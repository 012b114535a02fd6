#!/usr/bin/env python3
"""Record the benchmark's oracle, ``perfbench/expected.json``.

Run from the repository root at a commit whose outputs are trusted:

    python3 perfbench/record.py

It draws the pools of random rational functions the positivity workload
samples from, then runs every case once at the identity permutation and
stores each exit code and compared output.  The benchmark itself only
reads the file.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
POOL_SIZE = 60  # functions per fixture, --mode both
POOL_SIZE_K4 = 30  # functions on K4, --mode lp


def _values(label, nrays, count):
    rng = random.Random(f"pool:{label}")
    return [[str(Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(nrays)] for _ in range(count)]


def main():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import cases
    from tropfan import cli

    workdir = HERE / "work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    pools = {}
    fan_files = {}
    for name in cases.FIXTURES + ("k4",):
        if name == "k4":
            fan = cases.bergman_fan_data(name, ROOT)
        else:
            fan = json.loads((ROOT / "fans" / f"{name}.json").read_text())
        fan_files[name] = cases.write_json(workdir / f"{name}.json", fan)
        mode, size = ("lp", POOL_SIZE_K4) if name == "k4" else ("both", POOL_SIZE)
        pools[name] = []
        for values in _values(name, len(fan["rays"]), size):
            fn = cases.write_json(workdir / "function.json", {"ray_values": values})
            rc, out, _ = cases.run_cli(cli, ["ample", "--fan", fan_files[name], "--function", fn, "--mode", mode])
            pools[name].append({"values": values, "rc": rc, "out": out})

    oracle = {"pools": pools, "cases": {}}
    for workload in cases.WORKLOADS:
        recorded = {}
        for case in cases.write_inputs(workload, None, workdir / workload, ROOT, {"pools": pools}):
            rc, out, err = cases.run_cli(cli, case.argv)
            if case.expected is not None:
                if not case.check(rc, out):
                    raise SystemExit(f"{case.id}: disagrees with its pool entry")
                continue
            if rc not in (0, 1):
                raise SystemExit(f"{case.id}: exit {rc}: {err}")
            recorded[case.id] = {"rc": rc, "out": cases.compared(case.kind, out)}
        oracle["cases"][workload] = recorded
    (HERE / "expected.json").write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'expected.json'}")


if __name__ == "__main__":
    main()
