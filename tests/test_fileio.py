import json

import numpy as np
import pytest

from lorentzqp import DiagonalInstance, ProblemInstance, solve_problem
from lorentzqp.fileio import (
    ProblemFormatError,
    as_dense,
    dumps_json,
    gen_instance,
    parse_problem,
    problem_to_jsonable,
    report_to_jsonable,
    sweep_csv,
)
from lorentzqp.fileio import _fmt_float
from lorentzqp.solver import sweep_table


def reference_dumps_json(value, indent: int = 0) -> str:
    """``dumps_json`` before its float-array path: one recursive call and one
    ``json.dumps`` per scalar.  The reference for byte equality."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [reference_dumps_json(v, indent + 1) for v in value]
        if all(not isinstance(v, (list, tuple, dict, np.ndarray)) for v in value):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {reference_dumps_json(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


class TestParse:
    def test_dense_file(self, problem_dir):
        p = parse_problem((problem_dir / "dense_2d_certified.json").read_text())
        assert isinstance(p, ProblemInstance)
        assert p.n == 2 and p.name == "dense-2d-certified"
        np.testing.assert_array_equal(p.c, [0.5, 0.6])

    def test_diagonal_file(self, problem_dir):
        d = parse_problem((problem_dir / "diagonal_2d_saddle.json").read_text())
        assert isinstance(d, DiagonalInstance)
        np.testing.assert_array_equal(d.q, [0.1, -0.3])
        np.testing.assert_array_equal(as_dense(d).Q, np.diag([0.1, -0.3]))

    @pytest.mark.parametrize("text,field", [
        ("[]", "<document>"),
        ("{not json", "<document>"),
        ('{"Q": [[1,0],[0,1]], "c": [1,0]}', "n"),
        ('{"n": 1, "Q": [[1]], "c": [1]}', "n"),
        ('{"n": 2, "c": [1,0]}', "Q"),
        ('{"n": 2, "Q": [[1,0]], "c": [1,0]}', "Q"),
        ('{"n": 2, "Q": [[1,"a"],[0,1]], "c": [1,0]}', "Q[0][1]"),
        ('{"n": 2, "Q": [[1,0],[0,1]], "c": [1,0,3]}', "c"),
        ('{"n": 2, "Q": [[1,0],[0,1]]}', "c"),
        ('{"n": 2, "diagonal": true, "c": [1,0]}', "q"),
        ('{"n": 2, "Q": [[1,0.5],[0,1]], "c": [1,0]}', "Q"),
        ('{"n": 2, "Q": [[1,0],[0,1]], "c": [1,0], "name": 3}', "name"),
    ])
    def test_errors_name_the_field(self, text, field):
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(text)
        assert err.value.field == field


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["convex", "indefinite", "diagonal", "hardcase"])
    def test_exact_round_trip(self, kind):
        for seed in range(5):
            inst = gen_instance(kind, 3, seed)
            text = dumps_json(problem_to_jsonable(inst))
            back = parse_problem(text)
            assert type(back) is type(inst)
            assert back.name == inst.name
            np.testing.assert_array_equal(back.c, inst.c)
            if isinstance(inst, DiagonalInstance):
                np.testing.assert_array_equal(back.q, inst.q)
            else:
                np.testing.assert_array_equal(back.Q, inst.Q)

    def test_serialized_is_valid_json_with_17_digits(self, dense_2d):
        text = dumps_json(problem_to_jsonable(dense_2d))
        obj = json.loads(text)
        assert obj["Q"][0][0] == 1.8
        assert "1.8000000000000000e+00" in text


class TestGenerator:
    def test_deterministic_bytes(self):
        a = dumps_json(problem_to_jsonable(gen_instance("diagonal", 2, 7)))
        b = dumps_json(problem_to_jsonable(gen_instance("diagonal", 2, 7)))
        assert a == b

    def test_convex_kind_is_positive_definite(self):
        p = gen_instance("convex", 3, 1)
        assert float(np.linalg.eigvalsh(p.Q)[0]) > 0

    def test_hardcase_kind_hits_the_boundary(self):
        p = gen_instance("hardcase", 3, 5)
        assert p.c[0] == 0.0
        rep = solve_problem(p)
        assert rep.solution.certificate == "boundary_hard_case"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            gen_instance("sparse", 3, 0)


class TestReportSerialization:
    def test_report_structure(self, dense_3d):
        rep = solve_problem(dense_3d)
        obj = report_to_jsonable(rep, "0.1.0")
        text = dumps_json(obj)
        back = json.loads(text)
        assert back["solution"]["certificate"] == "kkt_no_certificate"
        assert back["solution"]["inertia"] == [1, 0, 2]
        assert len(back["critical_points"]) == len(rep.critical_points)
        assert back["kkt_residuals"]["stationarity"] <= 1e-10
        assert back["tolerances"]["tol_kkt"] == 1e-8
        # 17 significant digits survive the round trip bit-exactly
        assert back["solution"]["sigma"] == rep.solution.sigma

    def test_sweep_csv_contract(self, dense_2d):
        text = sweep_csv(sweep_table(dense_2d, 0.0, 2.0, 5))
        lines = text.strip().split("\n")
        assert lines[0] == "sigma,dual_value,dual_derivative,min_eigenvalue,is_pd"
        assert len(lines) == 6
        assert lines[1].split(",")[4] in ("true", "false")

    def test_sweep_csv_empty_fields_at_pole(self):
        p = ProblemInstance(Q=np.eye(2), c=[1.0, 0.0])
        text = sweep_csv(sweep_table(p, 0.0, 2.0, 3))
        row = text.strip().split("\n")[2].split(",")
        assert row[1] == "" and row[2] == ""
        assert row[4] == "false"


class TestDumpsJsonMatchesReference:
    def reports(self, problem_dir):
        for path in sorted(problem_dir.glob("*.json")):
            yield solve_problem(as_dense(parse_problem(path.read_text())))
        for kind in ("convex", "indefinite", "diagonal", "hardcase"):
            for n in (2, 3, 5):
                for seed in range(3):
                    p = as_dense(gen_instance(kind, n, 60_000 + seed))
                    yield solve_problem(p, oracle=n <= 3, oracle_resolution=16)

    def test_reports_are_byte_identical(self, problem_dir):
        oracles = 0
        for rep in self.reports(problem_dir):
            obj = report_to_jsonable(rep, "0.1.0")
            oracles += obj["oracle"] is not None
            assert dumps_json(obj) == reference_dumps_json(obj)
            assert dumps_json(obj, 2) == reference_dumps_json(obj, 2)
        assert oracles > 10

    @pytest.mark.parametrize("value", [
        np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0)), np.array([-0.0, 1e-300, 3.5]),
        np.arange(6.0).reshape(2, 3), np.float32([0.1, 2.5]), np.arange(8.0).reshape(2, 2, 2),
        {"k\u00e9y \"q\"": ["a\nb", 1, True, None, 2.5, np.int64(3)]},
    ])
    def test_edge_values_are_byte_identical(self, value):
        assert dumps_json(value, 1) == reference_dumps_json(value, 1)

    @pytest.mark.parametrize("bad", [
        np.array([1.0, np.nan]), np.array([[1.0, 2.0], [np.inf, -np.inf]]),
    ])
    def test_non_finite_values_raise_the_same_error(self, bad):
        with pytest.raises(ValueError) as ref:
            reference_dumps_json({"x": bad})
        with pytest.raises(ValueError) as got:
            dumps_json({"x": bad})
        assert str(got.value) == str(ref.value)
