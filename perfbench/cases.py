"""Seeded inputs, fixed case lists and the output oracle of each workload.

The seed permutes every fan's rays and maximal cones (weights and
function values move with them) and picks the random functions out of
the recorded pools in ``expected.json``.  The program sees only the
files written here.  Every result compared is invariant under these
permutations, so one recording at the identity permutation serves
every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

FIXTURES = ("cone2", "cube", "delta", "p2", "sigma3", "u23")
# Bergman fans: graphic K4 from matroids/k4.json, uniform U(r, n) as (n, r).
UNIFORM = {"u35": (5, 3), "u36": (6, 3), "u44": (4, 4)}
RANDOM_BOTH = 30  # random functions per fixture, --mode both
RANDOM_LP_K4 = 10  # random functions on K4, --mode lp

# "largest" is the case behind largest_case_s; an untraced pass runs it
# "largest_per_pass" times, spread through the pass, so its median rests
# on more samples than the passes alone would give.  "warm_up" names
# small cases, one per subcommand, run once untimed before the first pass.
WORKLOADS = {
    "report": {"fans": FIXTURES + ("k4", "u35", "u36"), "largest": "verify-u36", "largest_per_pass": 1,
               "warm_up": ("verify-cone2", "manifold-check-k4")},
    "tables": {"fans": ("cube", "u44", "u36"), "largest": "cohomology-u44-fan-bm-Z", "largest_per_pass": 2,
               "warm_up": ("cohomology-cube-fan-c-Z",)},
    "positivity": {"fans": FIXTURES + ("k4", "u35"), "largest": "ample-lp-u35-quadratic", "largest_per_pass": 2,
                   "warm_up": ("ample-both-cone2-00", "ample-lp-k4-00", "diagnostics-cone2")},
}


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple
    kind: str  # which part of the output is compared, see compared()
    expected: dict  # {"rc": exit code, "out": compared output}, or None while recording

    def check(self, rc, out):
        """Whether a run's exit code and compared output match the oracle."""
        return rc == self.expected["rc"] and compared(self.kind, out) == self.expected["out"]


def compared(kind, out):
    """The permutation-invariant part of a subcommand's stdout."""
    lines = out.splitlines()
    if kind == "verify":
        return "\n".join(lines[1:])  # everything after the name line
    if kind == "first-line":
        return lines[0] if lines else ""
    if kind == "diagnostics":
        # finding lines name rays and cones by index, so keep only their code
        return "\n".join(ln.split(":", 1)[0] if ln.startswith("  - ") else ln for ln in lines)
    return out  # cohomology tables and ample verdict lines, whole


def run_cli(cli, argv):
    """Run one CLI invocation in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(list(argv))
    return rc, out.getvalue(), err.getvalue()


def bergman_fan_data(name, root):
    from tropfan import matroid

    if name == "k4":
        data = json.loads((root / "matroids" / "k4.json").read_text())
        m = matroid.Matroid.graphic(data["vertices"], [tuple(e) for e in data["edges"]])
    else:
        m = matroid.Matroid.uniform(*UNIFORM[name])
    fan, weights = matroid.bergman_fan(m, name=name)
    maximal = [list(fan.cones[i]) for i in sorted(fan.maximal)]
    return {
        "name": name,
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "maximal_cones": maximal,
        "lattice": "ambient",
        "weights": [weights[tuple(c)] for c in maximal],
    }


def quadratic_function(fan):
    """f(F) = |F| (n - |F|) on the ray of each proper flat F.

    The ray of F is the indicator of F with the last ground element
    dropped; when F contains that element every other coordinate is
    shifted down by one, so |F| = sum + n.
    """
    n = fan["rank"] + 1
    values = []
    for ray in fan["rays"]:
        size = sum(ray) + n if min(ray) < 0 else sum(ray)
        values.append(str(size * (n - size)))
    return values


def _permutation(seed, label, n):
    order = list(range(n))
    if seed is not None:
        random.Random(f"{seed}:{label}").shuffle(order)
    return order


def permute(fan, seed):
    """The fan with rays and maximal cones reordered by the seed.

    Returns the permuted fan dict and the ray order (new position ->
    old index), which function values follow.
    """
    rays = _permutation(seed, f"{fan['name']}:rays", len(fan["rays"]))
    cones = _permutation(seed, f"{fan['name']}:cones", len(fan["maximal_cones"]))
    new_index = {old: new for new, old in enumerate(rays)}
    out = dict(fan)
    out["rays"] = [fan["rays"][i] for i in rays]
    out["maximal_cones"] = [[new_index[j] for j in fan["maximal_cones"][c]] for c in cones]
    if "weights" in fan:
        out["weights"] = [fan["weights"][c] for c in cones]
    return out, rays


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def write_inputs(workload, seed, workdir, root, oracle):
    """Write the workload's input files for ``seed`` and return its cases.

    ``seed`` None writes the identity permutation.  ``oracle`` is the
    parsed ``expected.json``; while recording it holds only the pools,
    and the cases carry no expectation.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    expected = oracle.get("cases", {}).get(workload, {})
    fans = {}
    files = {}
    orders = {}
    for name in WORKLOADS[workload]["fans"]:
        if name in FIXTURES:
            fan = json.loads((root / "fans" / f"{name}.json").read_text())
        else:
            fan = bergman_fan_data(name, root)
        fans[name] = fan
        permuted, orders[name] = permute(fan, seed)
        files[name] = write_json(workdir / f"{name}.json", permuted)

    cases = []

    def add(case_id, argv, kind, exp=None):
        cases.append(Case(case_id, tuple(argv), kind, exp if exp is not None else expected.get(case_id)))

    def function_file(label, name, values):
        permuted = [values[i] for i in orders[name]]
        return write_json(workdir / f"{label}.json", {"ray_values": permuted})

    if workload == "report":
        for name in WORKLOADS[workload]["fans"]:
            add(f"verify-{name}", ["verify", "--fan", files[name]], "verify")
        for name in ("k4", "u36"):
            add(f"manifold-check-{name}", ["manifold-check", "--fan", files[name]], "first-line")
    elif workload == "tables":
        for variant in ("c", "bm"):
            for coeff in ("Z", "Q"):
                add(f"cohomology-u44-fan-{variant}-{coeff}",
                    ["cohomology", "--fan", files["u44"], "--space", "fan", "--variant", variant, "--coeff", coeff],
                    "whole")
        for coeff in ("Z", "Q"):
            add(f"cohomology-u36-comp-std-{coeff}",
                ["cohomology", "--fan", files["u36"], "--space", "comp", "--coeff", coeff], "whole")
        add("cohomology-cube-fan-c-Z", ["cohomology", "--fan", files["cube"], "--space", "fan", "--variant", "c"],
            "whole")
    else:
        pools = oracle["pools"]
        for name in FIXTURES:
            picks = random.Random(f"{seed}:functions:{name}").sample(range(len(pools[name])), RANDOM_BOTH)
            for slot, k in enumerate(picks):
                label = f"ample-both-{name}-{slot:02d}"
                fn = function_file(label, name, pools[name][k]["values"])
                add(label, ["ample", "--fan", files[name], "--function", fn, "--mode", "both"], "whole",
                    pools[name][k])
        for name in ("k4", "u35"):
            label = f"ample-lp-{name}-quadratic"
            fn = function_file(label, name, quadratic_function(fans[name]))
            add(label, ["ample", "--fan", files[name], "--function", fn, "--mode", "lp"], "whole")
        picks = random.Random(f"{seed}:functions:k4").sample(range(len(pools["k4"])), RANDOM_LP_K4)
        for slot, k in enumerate(picks):
            label = f"ample-lp-k4-{slot:02d}"
            fn = function_file(label, "k4", pools["k4"][k]["values"])
            add(label, ["ample", "--fan", files["k4"], "--function", fn, "--mode", "lp"], "whole", pools["k4"][k])
        for name in WORKLOADS[workload]["fans"]:
            add(f"diagnostics-{name}", ["diagnostics", "--geometric", "--fan", files[name]], "diagnostics")
    return cases
