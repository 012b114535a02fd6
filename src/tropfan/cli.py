"""Command-line interface and the JSON file formats.

Fan files carry primitive integer rays and maximal cones by ray index;
the optional ``lattice: "ray-span"`` re-expresses the rays in an HNF
basis of the lattice they generate before anything else runs.  Weights
align with ``maximal_cones``; rational numbers are serialized as
strings so no float ever enters the pipeline.

Exit codes: 0 success or property holds, 1 checked property fails,
2 invalid input, 3 internal assertion failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import chow as chow_mod
from . import criteria, homology, matroid, zlinalg
from .fan import ConewiseLinear, Fan, TropicalWeights, is_balanced, is_saturated, is_unimodular, validate

FAN_SCHEMA = {
    "type": "object",
    "required": ["rank", "rays", "maximal_cones"],
    "properties": {
        "name": {"type": "string"},
        "rank": {"type": "integer", "minimum": 0},
        "rays": {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}},
        "maximal_cones": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        },
        "lattice": {"enum": ["ambient", "ray-span"]},
        "weights": {"type": "array", "items": {"type": "integer"}},
        "function": {
            "type": "object",
            "required": ["ray_values"],
            "properties": {"ray_values": {"type": "array", "items": {"type": ["string", "integer"]}}},
        },
    },
    "additionalProperties": False,
}

MATROID_SCHEMA = {
    "type": "object",
    "required": ["type"],
    "oneOf": [
        {
            "properties": {
                "type": {"const": "uniform"},
                "n": {"type": "integer", "minimum": 0},
                "r": {"type": "integer", "minimum": 0},
            },
            "required": ["type", "n", "r"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "type": {"const": "graphic"},
                "vertices": {"type": "integer", "minimum": 1},
                "edges": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 2, "maxItems": 2},
                },
            },
            "required": ["type", "vertices", "edges"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "type": {"const": "bases"},
                "ground": {"type": "integer", "minimum": 0},
                "bases": {"type": "array", "items": {"type": "array", "items": {"type": "integer", "minimum": 0}}},
            },
            "required": ["type", "ground", "bases"],
            "additionalProperties": False,
        },
    ],
}

FUNCTION_SCHEMA = {
    "type": "object",
    "required": ["ray_values"],
    "properties": {"ray_values": {"type": "array", "items": {"type": ["string", "integer"]}}},
    "additionalProperties": False,
}


class _LazyValidator:
    """The jsonschema validator of ``schema``, built on first use: valid files never import jsonschema."""

    def __init__(self, schema):
        self.schema = schema

    @functools.cached_property
    def _validator(self):
        import jsonschema

        # Draft 2020-12, the dialect of a schema that names none, with JSON integers only:
        # its own "integer" also takes 1.0, which is no rank, ray index or weight here
        draft = jsonschema.Draft202012Validator
        integers = draft.TYPE_CHECKER.redefine("integer", lambda checker, x: type(x) is int)
        return jsonschema.validators.extend(draft, type_checker=integers)(self.schema)

    def __getattr__(self, name):
        return getattr(self._validator, name)


_FAN_VALIDATOR = _LazyValidator(FAN_SCHEMA)
_MATROID_VALIDATOR = _LazyValidator(MATROID_SCHEMA)
_FUNCTION_VALIDATOR = _LazyValidator(FUNCTION_SCHEMA)


class InputError(Exception):
    pass


# the Python type of each JSON type the fast check reads; a bool is no int there
_EXACT_TYPES = {"object": dict, "array": list, "integer": int, "string": str}


def _surely_conforms(data, schema):
    """True only if ``data`` conforms to ``schema``; False means "ask jsonschema".

    Reads the keywords of the fan and function schemas: ``type`` with
    exact Python types (so a bool or a float is no integer), ``required``,
    ``properties``, ``additionalProperties: false``, ``items``,
    ``minimum`` on integers and ``enum`` on strings.  A schema with any
    other keyword, such as the matroid schema's ``oneOf``, and any
    document it cannot accept at sight, it leaves to jsonschema.
    """
    if "type" in schema:
        want = schema["type"]
        if not any(type(data) is _EXACT_TYPES.get(t) for t in (want if isinstance(want, list) else [want])):
            return False
    for key, value in schema.items():
        if key == "type":
            continue
        if key == "required":
            ok = type(data) is dict and all(k in data for k in value)
        elif key == "properties":
            ok = type(data) is dict and all(k not in value or _surely_conforms(v, value[k]) for k, v in data.items())
        elif key == "additionalProperties":
            ok = value is False and type(data) is dict and all(k in schema.get("properties", ()) for k in data)
        elif key == "items":
            ok = type(data) is list and (
                _integers_at_least(data, value) or all(_surely_conforms(x, value) for x in data)
            )
        elif key == "minimum":
            ok = type(data) is int and data >= value
        elif key == "enum":
            ok = type(data) is str and data in value
        else:
            ok = False
        if not ok:
            return False
    return True


def _integers_at_least(data, schema):
    """True if ``schema`` is an integer type with at most a minimum, and every item meets it.

    One pass over a ray's coordinates or a cone's ray indices, with no
    call per item; a False leaves the items to :func:`_surely_conforms`.
    """
    if schema.get("type") != "integer" or not schema.keys() <= {"type", "minimum"}:
        return False
    lowest = schema.get("minimum")
    return {type(x) for x in data} <= {int} and (lowest is None or not data or min(data) >= lowest)


def _validate_schema(data, validator, origin):
    if _surely_conforms(data, validator.schema):
        return
    import jsonschema

    # the error jsonschema.validate would raise, without re-checking the schema
    exc = jsonschema.exceptions.best_match(validator.iter_errors(data))
    if exc is not None:
        raise InputError(f"{origin}: {exc.json_path}: {exc.message}") from exc


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}")


def load_fan_data(data, origin="<fan>", strict=True):
    """Build a fan (plus optional weights and function) from a fan dict.

    With ``strict`` the combinatorial diagnostics must pass; without it
    the fan is returned for reporting even when they do not.
    """
    _validate_schema(data, _FAN_VALIDATOR, origin)
    rank = data["rank"]
    rays = [tuple(r) for r in data["rays"]]
    for i, r in enumerate(rays):
        if len(r) != rank:
            raise InputError(f"{origin}: $.rays[{i}]: expected {rank} coordinates")
    seen = set()
    for i, c in enumerate(data["maximal_cones"]):
        for j in c:
            if j >= len(rays):
                raise InputError(f"{origin}: $.maximal_cones[{i}]: ray index {j} out of range")
        key = tuple(sorted(c))
        if len(set(c)) != len(c):
            raise InputError(f"{origin}: $.maximal_cones[{i}]: repeated ray index")
        if key in seen:
            raise InputError(f"{origin}: $.maximal_cones[{i}]: duplicate cone")
        seen.add(key)
    if data.get("lattice", "ambient") == "ray-span":
        basis = zlinalg.hnf_basis(rays, rank)
        solver = zlinalg.RowSolver(zlinalg.IntMatrix.from_rows(basis, rank))
        new_rays = []
        for i, r in enumerate(rays):
            c = solver.solve(r)
            if c is None:
                raise AssertionError(f"ray {i} is not in the lattice its rays span")
            new_rays.append(c)
        rays = new_rays
        rank = len(basis)
    fan = Fan.from_max_cones(rank, rays, data["maximal_cones"], name=data.get("name", origin))
    if strict:
        diags = validate(fan)
        if not diags.ok:
            msgs = "; ".join(f.message for f in diags.findings)
            raise InputError(f"{origin}: invalid fan: {msgs}")
    weights = None
    if "weights" in data:
        if len(data["weights"]) != len(data["maximal_cones"]):
            raise InputError(f"{origin}: $.weights: need one weight per maximal cone")
        if any(w == 0 for w in data["weights"]):
            raise InputError(f"{origin}: $.weights: weights must be nonzero")
        try:
            weights = TropicalWeights.from_list(
                fan, data["weights"], [tuple(sorted(c)) for c in data["maximal_cones"]]
            )
        except ValueError as exc:
            raise InputError(f"{origin}: $.weights: {exc}")
    func = None
    if "function" in data:
        func = _parse_function(data["function"], len(rays), origin)
    return fan, weights, func


def _parse_function(data, nrays, origin):
    vals = data["ray_values"]
    if len(vals) != nrays:
        raise InputError(f"{origin}: $.ray_values: need one value per ray")
    try:
        return ConewiseLinear([Fraction(str(v)) for v in vals])
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{origin}: $.ray_values: {exc}")


def load_fan_file(path, strict=True):
    return load_fan_data(_load_json(path), origin=path, strict=strict)


def _load_fan_arg(args, strict=True):
    """:func:`load_fan_file` of ``args.fan``; :func:`run` frees the fan on return."""
    loaded = load_fan_file(args.fan, strict)
    args.fans.append(loaded[0])
    return loaded


def load_matroid_file(path):
    data = _load_json(path)
    _validate_schema(data, _MATROID_VALIDATOR, path)
    try:
        if data["type"] == "uniform":
            return matroid.Matroid.uniform(data["n"], data["r"])
        if data["type"] == "graphic":
            return matroid.Matroid.graphic(data["vertices"], [tuple(e) for e in data["edges"]])
        return matroid.Matroid(data["ground"], [frozenset(b) for b in data["bases"]])
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def load_function_file(path, nrays):
    data = _load_json(path)
    _validate_schema(data, _FUNCTION_VALIDATOR, path)
    return _parse_function(data, nrays, path)


# rendering -----------------------------------------------------------------


def render_group(group):
    return str(group)


def render_table(title, dim, entries):
    """Aligned (p, q) table; entries maps (p, q) to rendered strings."""
    cells = [[entries.get((p, q), "0") for q in range(dim + 1)] for p in range(dim + 1)]
    widths = [max(4, *(len(cells[p][q]) for p in range(dim + 1))) for q in range(dim + 1)]
    lines = [title]
    head = " p\\q |" + "".join(f" {str(q).rjust(widths[q])}" for q in range(dim + 1))
    lines.append(head)
    lines.append("-" * len(head))
    for p in range(dim + 1):
        lines.append(f" {str(p).rjust(3)} |" + "".join(f" {cells[p][q].rjust(widths[q])}" for q in range(dim + 1)))
    return "\n".join(lines)


def _cohomology_payload(fan, space, variant, coeff):
    target = fan if space == "fan" else homology.compactification(fan)
    vname = {"std": "cohomology", "bm": "borel_moore", "c": "compact_support"}[variant]
    return homology.table(target, coeff, vname)


# subcommands ----------------------------------------------------------------


def cmd_diagnostics(args):
    fan, weights, _ = _load_fan_arg(args, strict=False)
    level = "geometric" if args.geometric else "combinatorial"
    diags = validate(fan, level)
    lines = [f"fan: {fan.name}  rank {fan.rank}  dim {fan.dim}"]
    lines.append(f"structural checks ({level}): {'pass' if diags.ok else 'FAIL'}")
    for f in diags.findings:
        lines.append(f"  - {f.code}: {f.message}")
    balanced = None
    if diags.ok:
        _, unimod = is_unimodular(fan)
        satur = is_saturated(fan)
        lines.append(f"unimodular: {'yes' if unimod else 'no'}")
        lines.append(f"saturated: {'yes' if satur else 'no'}")
        if weights is not None:
            balanced = is_balanced(fan, weights)
            lines.append(f"balanced (given weights): {'yes' if balanced else 'no'}")
        elif fan.is_pure():
            balanced = is_balanced(fan, TropicalWeights.unit(fan))
            lines.append(f"balanced (unit weights): {'yes' if balanced else 'no'}")
        else:
            lines.append("balanced: not pure-dimensional, skipped")
    print("\n".join(lines))
    ok = diags.ok and (balanced is not False)
    return 0 if ok else 1


def cmd_cohomology(args):
    fan, _, _ = _load_fan_arg(args)
    table = _cohomology_payload(fan, args.space, args.variant, args.coeff)
    d = fan.dim
    if args.json:
        payload = {
            "fan": fan.name,
            "space": args.space,
            "variant": args.variant,
            "coeff": args.coeff,
            "dim": d,
            "entries": [
                {
                    "p": p,
                    "q": q,
                    "group": render_group(table[(p, q)]),
                    "free_rank": table[(p, q)].free_rank,
                    "torsion": list(table[(p, q)].torsion),
                }
                for p in range(d + 1)
                for q in range(d + 1)
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    names = {"std": "H", "bm": "H^BM", "c": "H_c"}
    space_name = "comp Sigma" if args.space == "comp" else "Sigma"
    title = f"{names[args.variant]}^(p,q)({space_name}; {args.coeff}) for fan {fan.name}"
    print(render_table(title, d, {k: render_group(v) for k, v in table.items()}))
    return 0


def cmd_chow(args):
    fan, _, _ = _load_fan_arg(args)
    degrees = [args.degree] if args.degree is not None else list(range(fan.dim + 1))
    for k in degrees:
        try:
            pres = chow_mod.chow_group(fan, k, args.coeff)
        except ValueError as exc:
            print(f"A^{k}: {exc}")
            return 1
        print(f"A^{k} = {render_group(pres.group)}")
    if args.table:
        rays = fan.cones_of_dim(1)
        pres1 = chow_mod.chow_group(fan, 1, args.coeff)
        print("products of degree-one generators:")
        gens2 = [fan.cones[i] for i in fan.cones_of_dim(2)]
        for i, a in enumerate(rays):
            for b in rays[i:]:
                prod = chow_mod.chow_multiply(fan, pres1.generator(a), pres1.generator(b), args.coeff)
                terms = [
                    f"{c}*x{gens2[t]}" for t, c in enumerate(prod.vector) if c
                ]
                lhs = f"x{fan.cones[a]} * x{fan.cones[b]}"
                print(f"  {lhs} = {' + '.join(terms) if terms else '0'}")
    return 0


def cmd_mw(args):
    fan, _, _ = _load_fan_arg(args)
    basis = chow_mod.minkowski_weights(fan, args.dim)
    cones = [fan.cones[i] for i in fan.cones_of_dim(args.dim)]
    print(f"MW_{args.dim}: rank {len(basis)} on cones {cones}")
    for w in basis:
        print(f"  {w.values}")
    return 0


def cmd_bergman(args):
    m = load_matroid_file(args.matroid)
    try:
        fan, weights = matroid.bergman_fan(m, name=os.path.splitext(os.path.basename(args.output))[0])
    except ValueError as exc:
        raise InputError(f"{args.matroid}: {exc}")
    maximal = [list(fan.cones[i]) for i in sorted(fan.maximal)]
    payload = {
        "name": fan.name,
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "maximal_cones": maximal,
        "lattice": "ambient",
        "weights": [weights[tuple(c)] for c in maximal],
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}: {len(fan.rays)} rays, {len(maximal)} maximal cones, dim {fan.dim}")
    return 0


def cmd_manifold_check(args):
    fan, weights, _ = _load_fan_arg(args)
    report = criteria.homology_manifold_check(fan, weights, args.coeff)
    print("true" if report.ok else "false")
    for cone, res in report.per_face.items():
        if not res["ok"]:
            why = res["pd"].reasons + [f"H^{p},{q} = {g} nonzero for p > q" for p, q, g in res["vanishing_failures"]]
            print(f"  star of {cone}: " + "; ".join(why))
    return 0 if report.ok else 1


def cmd_ample(args):
    fan, _, func = _load_fan_arg(args)
    if args.function:
        func = load_function_file(args.function, len(fan.rays))
    if func is None:
        raise InputError("no conewise linear function given (embed one in the fan file or pass --function)")
    verdicts = {}
    if args.mode in ("lp", "both"):
        verdicts["lp"] = criteria.is_ample(fan, func)
    if args.mode in ("kleiman", "both"):
        verdicts["kleiman"] = criteria.kleiman_check(fan, func)
    for mode, v in verdicts.items():
        print(f"{mode}: {'true' if v else 'false'}")
    if len(verdicts) == 2 and len(set(verdicts.values())) != 1:
        print("modes disagree: numerical-criterion violation")
        return 3
    return 0 if all(verdicts.values()) else 1


def cmd_verify(args):
    fan, _, _ = _load_fan_arg(args)
    report = criteria.verification_report(fan)
    d = report.dim
    print(f"fan {report.fan_name}: dim {d}, unimodular {report.unimodular}, saturated {report.saturated}")
    print(render_table(
        "H^(p,q)(comp Sigma; Z)",
        d,
        {k: render_group(g) for k, g in report.cohomology.items()},
    ))
    for p in range(d + 1):
        g = report.chow_groups.get(p)
        rendered = render_group(g) if g is not None else f"Q-rank {report.chow_groups_q_rank[p]}"
        print(f"A^{p} = {rendered}   comparison map: {report.psi_status[p]}")
    if report.vanishing_observations:
        for p, q, g, kind in report.vanishing_observations:
            print(f"note: H^{p},{q} = {g} nonzero ({kind})")
    if report.ring_checks:
        bad = [pair for pair, ok in report.ring_checks if not ok]
        print(f"ring morphism spot checks: {len(report.ring_checks) - len(bad)}/{len(report.ring_checks)} pass")
        for pair in bad:
            print(f"  FAIL at {pair}")
    print("verdict:", "pass" if report.ok else "FAIL")
    return 0 if report.ok else 1


@functools.cache
def build_parser():
    """The CLI parser, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="tropfan",
        description="Exact tropical cohomology, Chow rings and positivity checks for rational simplicial fans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagnostics", help="structural report for a fan file")
    p.add_argument("--fan", required=True)
    p.add_argument("--geometric", action="store_true", help="also check that no two cones overlap")
    p.set_defaults(func=cmd_diagnostics)

    p = sub.add_parser("cohomology", help="(p,q) table of tropical (co)homology groups")
    p.add_argument("--fan", required=True)
    p.add_argument("--space", choices=["fan", "comp"], default="comp")
    p.add_argument("--variant", choices=["std", "bm", "c"], default="std")
    p.add_argument("--coeff", choices=["Z", "Q"], default="Z")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("chow", help="Chow groups, optionally with a product table")
    p.add_argument("--fan", required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--coeff", choices=["Z", "Q"], default="Z")
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=cmd_chow)

    p = sub.add_parser("mw", help="basis of Minkowski weights of a given dimension")
    p.add_argument("--fan", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=cmd_mw)

    p = sub.add_parser("bergman", help="write the Bergman fan of a matroid as a fan file")
    p.add_argument("--matroid", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_bergman)

    p = sub.add_parser("manifold-check", help="tropical homology manifold criterion")
    p.add_argument("--fan", required=True)
    p.add_argument("--coeff", choices=["Z", "Q"], default="Z")
    p.set_defaults(func=cmd_manifold_check)

    p = sub.add_parser("ample", help="strict convexity / numerical positivity of a function")
    p.add_argument("--fan", required=True)
    p.add_argument("--function", default=None)
    p.add_argument("--mode", choices=["lp", "kleiman", "both"], default="both")
    p.set_defaults(func=cmd_ample)

    p = sub.add_parser("verify", help="cohomology/Chow comparison report")
    p.add_argument("--fan", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args.fans = []
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return 3
    finally:
        for fan in args.fans:
            fan.drop_caches()


def main(argv=None):
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
