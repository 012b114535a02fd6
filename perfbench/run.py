#!/usr/bin/env python3
"""tropfan benchmark: the CLI over a fixed case list, timed and checked.

Run from the repository root:

    python3 perfbench/run.py --workload report --seed 1 --seconds 42 --trace 0

Load shape: a closed loop with one client.  The workload's cases run one
after another through ``tropfan.cli.run`` in this process, stdout
captured, and every result is checked against ``expected.json``.  A pass
is one run over the whole case list, with the workload's largest case
run a fixed number of times in it.  Before each pass the set-up is timed
a few times; passes repeat while the next one is predicted to end within
``--seconds``, and the time they leave over goes to more runs of the
largest case, shared between the gaps after the passes.

Every timing is scaled to a reference host speed.  A fixed pure-Python
loop is timed at least once a second between cases, and each case or
set-up time is multiplied by ``CALIBRATION_REF_S`` over the mean of the
loop times just before and just after it: the shared host's speed
drifts by a third within minutes, and the loop follows that drift.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes (see ``tracer.py``)
and prints the per-layer metrics; it also checks that the traced stdout
equals the untraced stdout and that each case's layer self times add up
to its traced wall time.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

import cases
import tracer as tracing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS_PER_PASS = 2
CASE_TIMEOUT_S = 60
CALIBRATION_STEPS = 1_000_000
CALIBRATION_REF_S = 0.1  # the loop's time on the reference host
CALIBRATE_EVERY_S = 1.0


class CaseTimeout(BaseException):
    """Raised by the interval timer inside a case that runs too long."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def calibrate():
    """Seconds for a fixed pure-Python integer loop: the host's speed now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_STEPS):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def execute(cli, argv):
    """One case under a timeout; the exit code is a string when it did not return."""
    signal.setitimer(signal.ITIMER_REAL, CASE_TIMEOUT_S)
    try:
        return cases.run_cli(cli, argv)
    except CaseTimeout:
        return f"timeout after {CASE_TIMEOUT_S} s", "", ""
    except SystemExit as exc:
        return f"exit {exc.code}", "", ""
    except Exception:
        return "exception", "", traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Bench:
    """One workload and seed: set-up, passes and the failures seen."""

    def __init__(self, workload, seed, oracle, cli):
        self.workload = workload
        self.seed = seed
        self.oracle = oracle
        self.cli = cli
        self.workdir = HERE / "work" / workload
        self.largest = cases.WORKLOADS[workload]["largest"]
        self.setup_times = []  # (start, seconds)
        self.calibrations = []  # (end, seconds of the loop)
        self.failures = {}  # (pass tag, case id, run of it in the pass) -> what went wrong
        self.attempted = 0
        self.case_list = None

    def write_inputs(self):
        return cases.write_inputs(self.workload, self.seed, self.workdir, ROOT, self.oracle)

    def set_up(self):
        """Import ``jsonschema`` and ``tropfan`` in a fresh interpreter, then
        write the seeded inputs here; timed together.

        The import runs in a child process because only a fresh
        interpreter pays the whole import, as every CLI call does.
        """
        self.tick()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import jsonschema, tropfan.cli"], check=True,
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        self.case_list = self.write_inputs()
        self.setup_times.append((t0, time.perf_counter() - t0))

    def tick(self, force=False):
        """Time the calibration loop if ``force`` or if the last one ended a second ago or more."""
        if force or not self.calibrations or time.perf_counter() - self.calibrations[-1][0] >= CALIBRATE_EVERY_S:
            c = calibrate()
            self.calibrations.append((time.perf_counter(), c))

    def scaled(self, start, seconds):
        """``seconds`` timed from ``start``, scaled to the reference host
        speed by the calibration loops just before and just after it."""
        ends = [end for end, _ in self.calibrations]
        before = self.calibrations[max(bisect.bisect_right(ends, start) - 1, 0)][1]
        after = self.calibrations[min(bisect.bisect_left(ends, start + seconds), len(ends) - 1)][1]
        return seconds * CALIBRATION_REF_S / ((before + after) / 2)

    def schedule(self):
        """The untraced pass: the case list with the largest case run
        ``largest_per_pass`` times, spread evenly through the pass."""
        others = [c for c in self.case_list if c.id != self.largest]
        largest = next(c for c in self.case_list if c.id == self.largest)
        runs = cases.WORKLOADS[self.workload]["largest_per_pass"]
        order = list(others)
        for k in reversed(range(runs)):
            order.insert(k * len(others) // runs, largest)
        return order

    def run_case(self, tag, case, times, outs):
        """Run one case, add (start, seconds) to ``times[case.id]``; a failure goes into ``failures``."""
        self.tick()
        ts = time.perf_counter()
        rc, out, err = execute(self.cli, case.argv)
        times.setdefault(case.id, []).append((ts, time.perf_counter() - ts))
        outs[case.id] = out
        self.attempted += 1
        if not case.check(rc, out):
            key = (tag, case.id, len(times[case.id]))
            self.failures[key] = f"exit {rc}, stdout {out[:200]!r} {err[-400:]}"

    def warm_up(self):
        """Run the workload's warm-up cases once, checked but not timed."""
        names = cases.WORKLOADS[self.workload]["warm_up"]
        for case in self.case_list:
            if case.id in names:
                self.run_case("warm-up", case, {}, {})

    def run_pass(self, tag, order, tracer=None):
        """One pass over ``order``; each case's times are a list, one per run.
        The pass's wall is the sum of its case times, calibration loops left out."""
        gc.collect()
        times = {}
        outs = {}
        for case in order:
            if tracer is not None:
                tracer.case = (tag, case.id)
            self.run_case(tag, case, times, outs)
        wall = sum(t for runs in times.values() for _, t in runs)
        return {"wall": wall, "times": times, "outs": outs, "tag": tag}

    def untraced(self, seconds):
        """Passes while the next fits in ``seconds``; the time the passes
        leave over goes to single runs of the largest case, shared evenly
        between the gaps after the passes.  Returns (passes, extra times)."""
        passes = []
        extra = {self.largest: []}
        t_start = time.perf_counter()
        self.tick()
        while True:
            t0 = time.perf_counter()
            for _ in range(SETUPS_PER_PASS):
                self.set_up()
            if not passes:
                self.warm_up()
            passes.append(self.run_pass(len(passes), self.schedule()))
            now = time.perf_counter()
            left = seconds - (now - t_start)
            more = max(int(left // (now - t0)), 0)  # passes that still fit
            gap_end = now + (left - more * (now - t0)) / (more + 1)
            largest = next(c for c in self.case_list if c.id == self.largest)
            last = passes[-1]["times"][self.largest][-1][1]
            while time.perf_counter() + last <= gap_end:
                self.run_case("extra", largest, extra, {})
                last = extra[self.largest][-1][1]
            if not more:
                break
        self.tick(force=True)  # the loop just after the last case
        return passes, extra[self.largest]

    def traced(self, seconds):
        """Pairs of an untraced and a traced pass; returns (pairs, tracer, set-up spans)."""
        tr = tracing.Tracer()
        pairs = []
        t_start = time.perf_counter()
        self.tick()
        while True:
            t0 = time.perf_counter()
            for _ in range(SETUPS_PER_PASS):
                self.set_up()
            if not pairs:
                # the matroid layer runs only in set-up: trace one more
                tr.install()
                try:
                    tr.case = "setup"
                    self.write_inputs()
                finally:
                    tr.uninstall()
                setup_spans = range(len(tr.names))
                self.warm_up()
            k = len(pairs)
            plain = self.run_pass(f"{k}-untraced", self.case_list)
            first = len(tr.names)
            tr.install()
            try:
                traced = self.run_pass(f"{k}-traced", self.case_list, tr)
            finally:
                tr.uninstall()
            traced["spans"] = range(first, len(tr.names))
            for case in self.case_list:
                if traced["outs"][case.id] != plain["outs"][case.id]:
                    self.failures[(traced["tag"], case.id, 1)] = "traced stdout differs from untraced stdout"
            pairs.append((plain, traced))
            now = time.perf_counter()
            if (now - t_start) + (now - t0) > seconds:
                return pairs, tr, setup_spans

    def layer_metrics(self, pairs, tr, setup_spans):
        """Median over traced passes of each per-layer metric, plus the self-time check."""
        per_pass = []
        for plain, traced in pairs:
            case_ids = ["setup"] + [(traced["tag"], c.id) for c in self.case_list]
            m, case_self = tracing.summarize(tr, list(setup_spans) + list(traced["spans"]), case_ids)
            for case in self.case_list:
                wall = traced["times"][case.id][0][1]
                root, total = case_self.get((traced["tag"], case.id), (0.0, 0.0))
                if root <= 0.0 or abs(total - wall) > 1e-3 + 0.01 * wall:
                    self.failures[(traced["tag"], case.id, 1)] = (
                        f"layer self times sum to {total:.6f} s, traced wall {wall:.6f} s")
            m["trace.overhead_ratio"] = traced["wall"] / plain["wall"]
            per_pass.append(m)
        out = {}
        for name, value in per_pass[0].items():
            # counts repeat exactly from pass to pass; keep them whole
            median = statistics.median_low if isinstance(value, int) else statistics.median
            out[name] = median(m[name] for m in per_pass)
        out["host.calib_s"] = statistics.median(c for _, c in self.calibrations)
        return out

    def end_to_end(self, passes, extra, scale=True):
        """Pass time as the sum of each case's median, so a slow spell of
        the host hits one sample of a case rather than a whole pass.  The
        largest case's median takes all its runs, in passes and after.
        Times are scaled to the reference host speed unless ``scale`` is false."""
        value = self.scaled if scale else (lambda start, seconds: seconds)
        samples = {c.id: [value(*s) for p in passes for s in p["times"][c.id]] for c in self.case_list}
        samples[self.largest] += [value(*s) for s in extra]
        return {
            "wall_s": sum(statistics.median(samples[c.id]) for c in self.case_list),
            "largest_case_s": statistics.median(samples[self.largest]),
            "setup_s": statistics.median(value(*s) for s in self.setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "tropfan" / "__init__.py").is_file():
        print("perfbench: no tropfan sources under src/; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    from tropfan import cli

    bench = Bench(args.workload, args.seed, json.loads((HERE / "expected.json").read_text()), cli)

    if args.trace:
        pairs, tr, setup_spans = bench.traced(args.seconds)
        values = bench.layer_metrics(pairs, tr, setup_spans)
        tr.write(HERE / "work" / f"spans-{args.workload}.jsonl.gz")
        wanted = spec["per_layer"]
        passes = [p for pair in pairs for p in pair]
        extra = []
    else:
        passes, extra = bench.untraced(args.seconds)
        values = bench.end_to_end(passes, extra)
        unscaled = bench.end_to_end(passes, extra, scale=False)
        print("unscaled " + ", ".join(f"{k} {v:.4f}" for k, v in unscaled.items() if k != "peak_rss_mib"))
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        print(f"perfbench: metrics {sorted(set(values) ^ {m['name'] for m in wanted})} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 2

    for (tag, case_id, run), why in bench.failures.items():
        print(f"FAIL pass {tag} {case_id} run {run}: {why}", file=sys.stderr)
    largest_runs = sum(len(p["times"][bench.largest]) for p in passes) + len(extra)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {len(bench.case_list)} cases, "
          f"{largest_runs} runs of {bench.largest}, "
          f"pass walls {[round(p['wall'], 3) for p in passes]}, "
          f"{len(bench.calibrations)} calibration loops of {min(c for _, c in bench.calibrations):.4f} to "
          f"{max(c for _, c in bench.calibrations):.4f} s, "
          f"set-up {[round(t, 3) for _, t in bench.setup_times]}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
