import contextlib
import gc
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan import cli, matroid
from tropfan.cli import build_parser, run
from tropfan.zlinalg import AbGroup

ROOT = pathlib.Path(__file__).resolve().parent.parent
FAN = lambda name: str(ROOT / "fans" / f"{name}.json")
FUNC = lambda name: str(ROOT / "functions" / f"{name}.json")
MATROID = lambda name: str(ROOT / "matroids" / f"{name}.json")
NON_PURE = {"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1]], "maximal_cones": [[0, 1], [1, 2], [0, 2], [3]]}


class TestExitCodes:
    def test_diagnostics_ok(self, capsys):
        assert run(["diagnostics", "--fan", FAN("p2"), "--geometric"]) == 0

    def test_missing_file(self, capsys):
        assert run(["cohomology", "--fan", "/nonexistent.json"]) == 2

    def test_schema_violation(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"rank": 2, "rays": [[1, 0]]}')
        assert run(["cohomology", "--fan", str(p)]) == 2
        err = capsys.readouterr().err
        assert "maximal_cones" in err

    def test_semantic_violation_pointered(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"rank": 2, "rays": [[1, 0]], "maximal_cones": [[3]]}')
        assert run(["cohomology", "--fan", str(p)]) == 2
        assert "maximal_cones[0]" in capsys.readouterr().err

    def test_non_primitive_ray_reported(self, tmp_path, capsys):
        p = tmp_path / "nonprim.json"
        p.write_text('{"rank": 2, "rays": [[2, 0]], "maximal_cones": [[0]]}')
        assert run(["diagnostics", "--fan", str(p)]) == 1
        assert "primitivity" in capsys.readouterr().out

    def test_manifold_check_exit(self, capsys):
        assert run(["manifold-check", "--fan", FAN("u23")]) == 0
        assert capsys.readouterr().out.startswith("true")
        assert run(["manifold-check", "--fan", FAN("cube")]) == 1

    def test_manifold_check_non_pure(self, tmp_path, capsys):
        # a valid fan with maximal cones of two dimensions has no degree map to be dual against
        p = tmp_path / "nonpure.json"
        p.write_text(json.dumps(NON_PURE))
        assert run(["diagnostics", "--fan", str(p), "--geometric"]) == 0
        capsys.readouterr()
        assert run(["manifold-check", "--fan", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "false"
        assert "not pure-dimensional" in out
        assert "Traceback" not in err

    def test_verify_exit(self, capsys):
        assert run(["verify", "--fan", FAN("delta")]) == 0
        assert run(["verify", "--fan", FAN("sigma3")]) == 0


class TestCohomologyTable:
    def test_cube_table_text(self, capsys):
        assert run(["cohomology", "--fan", FAN("cube"), "--space", "comp", "--coeff", "Z"]) == 0
        out = capsys.readouterr().out
        assert "Z^5" in out and "Z^2" in out

    def test_cube_compact_support_torsion(self, capsys):
        assert run(["cohomology", "--fan", FAN("cube"), "--space", "fan", "--variant", "c"]) == 0
        assert "Z^3 x Z/2Z" in capsys.readouterr().out

    def test_json_round_trip(self, capsys):
        assert run(["cohomology", "--fan", FAN("cube"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for entry in payload["entries"]:
            g = AbGroup(entry["free_rank"], tuple(entry["torsion"]))
            assert str(g) == entry["group"]

    def test_rational_coefficients(self, capsys):
        assert run(["cohomology", "--fan", FAN("sigma3"), "--coeff", "Q"]) == 0
        out = capsys.readouterr().out
        assert "Z/3Z" not in out


class TestAmple:
    def test_zero_function_fails_both(self, capsys):
        code = run(["ample", "--fan", FAN("p2"), "--function", FUNC("zero3"), "--mode", "both"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("false") == 2

    def test_ample_function_passes(self, capsys):
        code = run(["ample", "--fan", FAN("p2"), "--function", FUNC("p2_ample"), "--mode", "both"])
        assert code == 0
        assert capsys.readouterr().out.count("true") == 2

    def test_single_mode(self, capsys):
        assert run(["ample", "--fan", FAN("p2"), "--function", FUNC("p2_ample"), "--mode", "lp"]) == 0

    def test_k4_random_function_both_modes(self, tmp_path, capsys):
        fan = tmp_path / "k4.json"
        assert run(["bergman", "--matroid", MATROID("k4"), "-o", str(fan)]) == 0
        nrays = len(json.loads(fan.read_text())["rays"])
        rng = random.Random(4)
        func = tmp_path / "f.json"
        func.write_text(json.dumps({"ray_values": [f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}" for _ in range(nrays)]}))
        capsys.readouterr()
        code = run(["ample", "--fan", str(fan), "--function", str(func), "--mode", "both"])
        lines = capsys.readouterr().out.splitlines()
        assert code in (0, 1)
        assert [line.split(": ")[0] for line in lines] == ["lp", "kleiman"]
        assert len({line.split(": ")[1] for line in lines}) == 1


class TestBergman:
    def test_write_and_check(self, tmp_path, capsys):
        out = tmp_path / "u23fan.json"
        assert run(["bergman", "--matroid", MATROID("u23"), "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["rays"] == [[1, 0], [0, 1], [-1, -1]]
        assert run(["manifold-check", "--fan", str(out)]) == 0

    def test_k4_pipeline(self, tmp_path, capsys):
        out = tmp_path / "k4fan.json"
        assert run(["bergman", "--matroid", MATROID("k4"), "-o", str(out)]) == 0
        assert run(["diagnostics", "--fan", str(out)]) == 0

    def test_matroid_with_loops_rejected(self, tmp_path, capsys):
        m = tmp_path / "loopy.json"
        m.write_text('{"type": "bases", "ground": 2, "bases": [[0]]}')
        out = tmp_path / "out.json"
        assert run(["bergman", "--matroid", m.as_posix(), "-o", str(out)]) == 2


class TestChowAndMW:
    def test_chow_table(self, capsys):
        assert run(["chow", "--fan", FAN("p2"), "--table"]) == 0
        out = capsys.readouterr().out
        assert "A^1 = Z" in out and "products" in out

    def test_chow_single_degree(self, capsys):
        assert run(["chow", "--fan", FAN("delta"), "--degree", "1"]) == 0
        assert "Z x Z/3Z" in capsys.readouterr().out

    def test_mw(self, capsys):
        assert run(["mw", "--fan", FAN("cube"), "--dim", "1"]) == 0
        assert "rank 5" in capsys.readouterr().out


class TestRaySpanLattice:
    def test_cube_rebase_reports_unimodular(self, capsys):
        assert run(["diagnostics", "--fan", FAN("cube")]) == 0
        out = capsys.readouterr().out
        assert "unimodular: yes" in out

    def test_ambient_cube_is_not_unimodular(self, tmp_path, capsys):
        data = json.loads((ROOT / "fans" / "cube.json").read_text())
        data["lattice"] = "ambient"
        p = tmp_path / "cube_ambient.json"
        p.write_text(json.dumps(data))
        assert run(["diagnostics", "--fan", str(p)]) == 0
        assert "unimodular: no" in capsys.readouterr().out

    def test_ray_outside_the_span_exits_3_under_optimize(self):
        # a ray with no coordinates over the HNF basis: the raise survives -O and names the ray
        code = (
            "import sys\n"
            "from tropfan import cli, zlinalg\n"
            "zlinalg.RowSolver.solve = lambda self, vec: None\n"
            f"sys.exit(cli.run(['diagnostics', '--fan', {FAN('cube')!r}]))\n"
        )
        res = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert res.returncode == 3
        assert "ray 0 is not in the lattice its rays span" in res.stderr


class TestOriginOnlyFan:
    def test_empty_maximal_cones_match_zero_cone(self, tmp_path, capsys):
        # "maximal_cones": [] and [[]] both describe the fan of the origin alone
        outs = {}
        for tag, cones in (("empty", []), ("origin", [[]])):
            p = tmp_path / f"{tag}.json"
            p.write_text(json.dumps({"name": "origin", "rank": 2, "rays": [], "maximal_cones": cones}))
            for cmd in ("cohomology", "verify"):
                assert run([cmd, "--fan", str(p)]) == 0
                captured = capsys.readouterr()
                assert captured.err == ""
                outs[(tag, cmd)] = captured.out
        for cmd in ("cohomology", "verify"):
            assert outs[("empty", cmd)] == outs[("origin", cmd)]
        assert outs[("empty", "cohomology")].splitlines()[-1].split() == ["0", "|", "Z"]

    def test_weights_without_maximal_cones_rejected(self, tmp_path, capsys):
        # the origin is the one maximal cone, and it has no weight here
        p = tmp_path / "empty_weights.json"
        p.write_text(json.dumps({"rank": 2, "rays": [], "maximal_cones": [], "weights": []}))
        assert run(["verify", "--fan", str(p)]) == 2
        assert "$.weights" in capsys.readouterr().err


class TestFansFreedOnReturn:
    CACHED_TYPES = {"Fan", "Compactification", "StarData", "Cochain"}

    @staticmethod
    def _garbage_of(argv):
        build_parser()  # built once per process; later calls reuse it
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            code = run(argv)
            gc.collect()
            left = {type(o).__name__ for o in gc.garbage}
            modules = {type(o).__module__ for o in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        return code, left, modules

    def test_no_fan_left_for_the_cycle_collector(self, capsys):
        code, left, modules = self._garbage_of(
            ["cohomology", "--fan", FAN("sigma3"), "--space", "comp", "--variant", "bm"]
        )
        assert code == 0
        assert not left & self.CACHED_TYPES
        assert "argparse" not in modules

    def test_verify_leaves_no_cycles(self, tmp_path, capsys):
        # verify fills every cache: stars, the compactification, the sheaf
        # solvers and the memoised ray cocycles
        k4 = tmp_path / "k4fan.json"
        assert run(["bergman", "--matroid", MATROID("k4"), "-o", str(k4)]) == 0
        for path in (FAN("cube"), str(k4)):
            code, left, _ = self._garbage_of(["verify", "--fan", path])
            assert code == 0
            assert not left & self.CACHED_TYPES, path


class TestSchemas:
    @pytest.mark.parametrize(
        "schema", [cli.FAN_SCHEMA, cli.MATROID_SCHEMA, cli.FUNCTION_SCHEMA], ids=["fan", "matroid", "function"]
    )
    def test_schemas_are_valid(self, schema):
        jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("name, data", [
        ("_FAN_VALIDATOR", {"rank": 2, "rays": [[1, 0]]}),
        ("_FAN_VALIDATOR", {"rank": -1, "rays": [[1, "a"]], "maximal_cones": [[0]], "extra": 1}),
        ("_FAN_VALIDATOR", {"rank": 2, "rays": [], "maximal_cones": [], "function": {"ray_values": [1.5]}}),
        ("_MATROID_VALIDATOR", {"type": "graphic", "vertices": 0, "edges": [[0, 1, 2]]}),
        ("_MATROID_VALIDATOR", {"type": "uniform", "n": 3}),
        ("_FUNCTION_VALIDATOR", {"ray_values": [None]}),
        ("_FUNCTION_VALIDATOR", []),
    ])
    def test_messages_match_jsonschema_validate(self, name, data):
        validator = getattr(cli, name)
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(data, validator.schema)
        with pytest.raises(cli.InputError) as got:
            cli._validate_schema(data, validator, "origin")
        assert str(got.value) == f"origin: {want.value.json_path}: {want.value.message}"


_BAD_SCALARS = st.sampled_from([1.0, 0.5, -2.0, True, False, None, "1"])


@st.composite
def _fan_documents(draw):
    """Fan files near the schema: non-simplicial cones, duplicate rays, rank 0, huge entries, stray types."""
    rank = draw(st.integers(0, 3))
    rays = draw(st.lists(st.lists(st.integers(-1, 1), min_size=rank, max_size=rank), max_size=5))
    cone = st.lists(st.integers(0, max(len(rays) - 1, 0)), max_size=4, unique=True)
    cones = draw(st.lists(cone, max_size=4, unique_by=lambda c: tuple(sorted(c))))
    doc = {"rank": rank, "rays": rays, "maximal_cones": cones}
    if draw(st.integers(0, 3)):
        values = st.integers(-3, 3) | st.sampled_from(["1/2", "-3/4", "0", "x", "1/0"])
        doc["function"] = {"ray_values": draw(st.lists(values, min_size=len(rays), max_size=len(rays)))}
    if draw(st.booleans()):
        doc["weights"] = draw(st.lists(st.integers(-1, 2), min_size=len(cones), max_size=len(cones)))
    if draw(st.booleans()):
        doc["lattice"] = draw(st.sampled_from(["ambient", "ray-span"]))
    if draw(st.booleans()):
        doc["name"] = "f"
    kind = draw(st.sampled_from([None, None, "huge", "scalar", "extra", "enum", "rank", "length", "cone", "duplicate"]))
    if kind == "huge" and rank:
        for r in rays:
            r[draw(st.integers(0, rank - 1))] = draw(st.sampled_from([2, 10**40, -(10**40) + 1]))
    elif kind == "scalar":
        # a float, bool, None or string where an integer or the name belongs
        spots = [(doc, "rank"), (doc, "name")] + [(r, i) for r in rays for i in range(len(r))]
        spots += [(c, i) for c in cones for i in range(len(c))]
        spots += [(doc["weights"], i) for i in range(len(doc.get("weights", ())))]
        where, key = draw(st.sampled_from(spots))
        where[key] = draw(_BAD_SCALARS)
    elif kind == "extra":
        doc[draw(st.sampled_from(["extra", "Rank", "cones"]))] = 1
    elif kind == "enum":
        doc["lattice"] = "other"
    elif kind == "rank":
        doc["rank"] = draw(st.integers(-2, 5))
    elif kind == "length" and rays:
        rays[0].append(0)
    elif kind == "duplicate" and rays:
        rays.append(list(rays[0]))
    elif kind == "cone":
        cones.append(draw(st.sampled_from([[0, 0], [len(rays)], [-1]] + cones)))
    return json.loads(json.dumps(doc))


class TestFastSchemaCheck:
    """``_surely_conforms`` accepts what the validators accept, and every file the project ships or writes."""

    @given(_fan_documents())
    @settings(max_examples=300, deadline=None)
    def test_fan_documents(self, doc):
        assert cli._surely_conforms(doc, cli.FAN_SCHEMA) == cli._FAN_VALIDATOR.is_valid(doc)

    @given(st.one_of(
        st.fixed_dictionaries({"ray_values": st.lists(st.integers() | st.text(max_size=3) | _BAD_SCALARS, max_size=4)}),
        st.dictionaries(st.sampled_from(["ray_values", "values"]), st.lists(st.integers(), max_size=2), max_size=2),
        st.lists(st.integers(), max_size=2),
    ))
    @settings(max_examples=200, deadline=None)
    def test_function_documents(self, doc):
        assert cli._surely_conforms(doc, cli.FUNCTION_SCHEMA) == cli._FUNCTION_VALIDATOR.is_valid(doc)

    @pytest.mark.parametrize("data, where", [
        ({"rank": 1, "rays": [[1]], "maximal_cones": [[0.0]]}, "$.maximal_cones[0][0]: 0.0"),
        ({"rank": 2.0, "rays": [[1, 0]], "maximal_cones": [[0]]}, "$.rank: 2.0"),
        ({"rank": 1, "rays": [[1]], "maximal_cones": [[0]], "weights": [1.0]}, "$.weights[0]: 1.0"),
    ])
    def test_integral_floats_rejected(self, data, where, tmp_path, capsys):
        # jsonschema's own integer type takes 1.0; a float ray index used to end in a traceback
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(data))
        assert run(["diagnostics", "--fan", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {where} is not of type 'integer'\n"

    def test_matroid_documents_go_to_jsonschema(self):
        for path in sorted((ROOT / "matroids").glob("*.json")):
            assert not cli._surely_conforms(json.loads(path.read_text()), cli.MATROID_SCHEMA)

    def test_shipped_and_written_files_take_the_fast_path(self, tmp_path, monkeypatch, capsys):
        fans = sorted((ROOT / "fans").glob("*.json"))
        for path in sorted((ROOT / "matroids").glob("*.json")):
            fans.append(tmp_path / path.name)
            assert run(["bergman", "--matroid", str(path), "-o", str(fans[-1])]) == 0
        uniform = tmp_path / "u53-matroid.json"
        uniform.write_text('{"type": "uniform", "n": 5, "r": 3}')
        fans.append(tmp_path / "u53.json")
        assert run(["bergman", "--matroid", str(uniform), "-o", str(fans[-1])]) == 0

        def slow_path(errors):
            raise AssertionError("jsonschema consulted")

        monkeypatch.setattr(jsonschema.exceptions, "best_match", slow_path)
        for path in fans:
            assert cli.load_fan_file(str(path), strict=False)
        for path in sorted((ROOT / "functions").glob("*.json")):
            assert cli.load_function_file(str(path), 3)


class TestInputFuzz:
    """Generated fan files exit 0, 1 or 2 from diagnostics --geometric and ample, never with a traceback."""

    @given(_fan_documents())
    @settings(max_examples=150, deadline=None)
    def test_diagnostics_and_ample(self, doc):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "fan.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert run(["diagnostics", "--geometric", "--fan", path]) in (0, 1, 2)
                assert run(["ample", "--fan", path]) in (0, 1, 2)


def _fan_data(name):
    """Fan file contents of a fixture, or of the Bergman fan of K4 or U(5,3)."""
    if name == "k4":
        m = matroid.Matroid.graphic(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    elif name == "u53":
        m = matroid.Matroid.uniform(5, 3)
    else:
        return json.loads((ROOT / "fans" / f"{name}.json").read_text())
    fan, weights = matroid.bergman_fan(m, name=name)
    maximal = [list(fan.cones[i]) for i in sorted(fan.maximal)]
    return {
        "name": name,
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "maximal_cones": maximal,
        "weights": [weights[tuple(c)] for c in maximal],
    }


def _permuted(data, seed):
    """The same fan with rays and maximal cones listed in a seeded order; weights move with their cones."""
    rng = random.Random(seed)
    new_index = list(range(len(data["rays"])))
    rng.shuffle(new_index)
    rays = [None] * len(new_index)
    for i, ray in enumerate(data["rays"]):
        rays[new_index[i]] = ray
    order = list(range(len(data["maximal_cones"])))
    rng.shuffle(order)
    out = dict(data, rays=rays, maximal_cones=[[new_index[j] for j in data["maximal_cones"][k]] for k in order])
    if "weights" in data:
        out["weights"] = [data["weights"][k] for k in order]
    return out


class TestPermutationInvariance:
    """Listing rays and maximal cones in another order changes no reported group or verdict."""

    @staticmethod
    def _outputs(path, capsys):
        out = {}
        for space in ("fan", "comp"):
            for variant in ("std", "bm", "c"):
                for coeff in ("Z", "Q"):
                    code = run(["cohomology", "--fan", path, "--space", space, "--variant", variant, "--coeff", coeff])
                    out[(space, variant, coeff)] = (code, capsys.readouterr().out)
        code = run(["verify", "--fan", path])
        out["verify"] = (code, capsys.readouterr().out.splitlines()[1:])
        code = run(["manifold-check", "--fan", path])
        out["manifold-check"] = (code, capsys.readouterr().out.splitlines()[:1])
        return out

    @pytest.mark.parametrize("name, seed", [("cube", 3), ("sigma3", 11), ("k4", 5), ("u53", 7)])
    def test_same_output_in_any_order(self, name, seed, tmp_path, capsys):
        data = _fan_data(name)
        outputs = []
        for tag, d in (("identity", data), ("permuted", _permuted(data, seed))):
            path = tmp_path / f"{tag}.json"
            path.write_text(json.dumps(d))
            outputs.append(self._outputs(str(path), capsys))
        assert outputs[0] == outputs[1]


class TestTracedNamesBind:
    def test_every_wrapped_name_is_defined(self):
        import importlib
        import importlib.util

        spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for _, module, path, *_ in tracer.WRAPPED:
            owner = importlib.import_module(f"tropfan.{module}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            assert attr in owner.__dict__, path
            assert callable(owner.__dict__[attr]), path
