#!/usr/bin/env python3
"""Record the exit code, stdout and stderr of every CLI subcommand.

Runs ``tropfan.cli.run`` in-process, from the ``src/`` of the source tree
named on the command line, over the ``fans/`` fixtures and the Bergman
fan of K4, runs ``cohomology``, ``verify`` and ``manifold-check`` on the
Bergman fan of U(4,4), and ``verify`` on that of U(5,4), whose degree-2
and degree-3 generator cocycles are cup products.  Two trees are compared
by diffing their records:

    python scripts/cli_snapshot.py <other tree> old.txt
    python scripts/cli_snapshot.py . new.txt
    diff old.txt new.txt

On K4, ``ample`` runs on the seeded random functions only (the
``functions/`` files have other ray counts).
"""

import contextlib
import io
import json
import pathlib
import random
import sys
import tempfile


def bergman_file(work, name, m):
    """Write the Bergman fan of a matroid, with its weights, as a fan file; returns its path."""
    from tropfan import matroid

    fan, weights = matroid.bergman_fan(m, name=name)
    maximal = [list(fan.cones[i]) for i in sorted(fan.maximal)]
    path = work / f"{name}.json"
    path.write_text(json.dumps({
        "name": name,
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "maximal_cones": maximal,
        "weights": [weights[tuple(c)] for c in maximal],
    }))
    return path


def cases(root, work):
    from tropfan import matroid

    fans = sorted((root / "fans").glob("*.json"))
    k4_path = bergman_file(work, "k4", matroid.Matroid.graphic(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    fans.append(k4_path)

    out = []
    for path in fans:
        f = str(path)
        is_k4 = path == k4_path
        out.append(["diagnostics", "--fan", f, "--geometric"])
        out.append(["diagnostics", "--fan", f])
        for space in ("fan", "comp"):
            for variant in ("std", "bm", "c"):
                for coeff in ("Z", "Q"):
                    out.append(["cohomology", "--fan", f, "--space", space, "--variant", variant, "--coeff", coeff])
        out.append(["cohomology", "--fan", f, "--json"])
        for coeff in ("Z", "Q"):
            out.append(["chow", "--fan", f, "--table", "--coeff", coeff])
        for d in range(4):
            out.append(["mw", "--fan", f, "--dim", str(d)])
        for coeff in ("Z", "Q"):
            out.append(["manifold-check", "--fan", f, "--coeff", coeff])
        functions = [] if is_k4 else sorted((root / "functions").glob("*.json"))
        nrays = len(json.loads(path.read_text())["rays"])
        rng = random.Random(sum(path.name.encode()) + 7)
        for i in range(6):
            fp = work / f"{path.stem}_f{i}.json"
            values = [f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}" for _ in range(nrays)]
            fp.write_text(json.dumps({"ray_values": values}))
            functions.append(fp)
        for fp in functions:
            for mode in ("both", "lp", "kleiman"):
                out.append(["ample", "--fan", f, "--function", str(fp), "--mode", mode])
        out.append(["verify", "--fan", f])
    # the 3-dim permutohedral fan: the largest complexes of the tables
    f = str(bergman_file(work, "u44", matroid.Matroid.uniform(4, 4)))
    for variant in ("c", "bm"):
        for coeff in ("Z", "Q"):
            out.append(["cohomology", "--fan", f, "--space", "fan", "--variant", variant, "--coeff", coeff])
    for coeff in ("Z", "Q"):
        out.append(["cohomology", "--fan", f, "--space", "comp", "--coeff", coeff])
    out.append(["verify", "--fan", f])
    # every star's vanishing check, read off the stratum slices of the fan's complexes
    for coeff in ("Z", "Q"):
        out.append(["manifold-check", "--fan", f, "--coeff", coeff])
    # a 3-dim fan past U(4,4): the cup products of the Chow bridge on more rays
    out.append(["verify", "--fan", str(bergman_file(work, "u54", matroid.Matroid.uniform(5, 4)))])
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    root = pathlib.Path(argv[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    from tropfan.cli import run

    with tempfile.TemporaryDirectory() as tmp, open(argv[2], "w") as fh:
        work = pathlib.Path(tmp)

        def scrub(text):
            return text.replace(str(work), "WORK").replace(str(root), "ROOT")

        for args in cases(root, work):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(args)
            fh.write(f"=== {scrub(' '.join(args))}\n--- exit {code}\n{scrub(stdout.getvalue())}")
            fh.write(f"--- stderr\n{scrub(stderr.getvalue())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
