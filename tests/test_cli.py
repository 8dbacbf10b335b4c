import json
import subprocess
import sys

import numpy as np
import pytest

from lorentzqp import ProblemInstance
from lorentzqp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolveCommand:
    def test_certified_exit_zero(self, capsys, problem_dir):
        code, out, _ = run_cli(capsys, "solve", str(problem_dir / "dense_2d_certified.json"))
        assert code == 0
        rep = json.loads(out)
        assert rep["solution"]["certificate"] == "global_min_certified"
        assert abs(rep["solution"]["sigma"] - 1.2909) < 1e-3

    def test_uncertified_exit_two_with_warning(self, capsys, problem_dir):
        code, out, _ = run_cli(capsys, "solve", str(problem_dir / "dense_3d_uncertified.json"))
        assert code == 2
        rep = json.loads(out)
        assert rep["solution"]["inertia"] == [1, 0, 2]
        assert any("certificate unavailable" in w for w in rep["warnings"])

    def test_hard_case_exit_three(self, capsys, problem_dir):
        code, out, _ = run_cli(capsys, "solve", str(problem_dir / "hardcase_2d.json"))
        assert code == 3
        rep = json.loads(out)
        assert rep["solution"]["x"] == [0.5, 0.5]

    def test_zero_matrix_exit_four(self, capsys, tmp_path):
        # G(sigma) = sigma*L: the pole-deflated Newton slope is exactly 0
        bad = tmp_path / "zero.json"
        bad.write_text('{"n": 2, "Q": [[0, 0], [0, 0]], "c": [1, 0.5]}')
        code, out, _ = run_cli(capsys, "solve", str(bad))
        assert code == 4
        assert json.loads(out)["critical_points"] == []

    @pytest.mark.parametrize("Q, exit_code", [
        pytest.param(Q, code, id=Q) for Q, code in [
            ("[[-1e200, 0], [0, 1e200]]", 4),
            ("[[-1e155, 0], [0, -1e155]]", 4),
            ("[[1e308, 0], [0, 1e308]]", 0),   # 0.5 (Q + Q') overflowed to inf
        ]])
    def test_large_q_exits_without_a_traceback(self, capsys, tmp_path, Q, exit_code):
        # each exits as its unit-scale copy, Q with entries +-1, does
        path = tmp_path / "large.json"
        path.write_text(f'{{"n": 2, "Q": {Q}, "c": [1, 1]}}')
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == exit_code and err == ""
        assert (json.loads(out)["solution"] is None) == (exit_code == 4)

    @pytest.mark.parametrize("command", ["solve", "enumerate"])
    def test_non_finite_report_value_exits_64(self, capsys, tmp_path, command):
        # x = c = 1e308 (1, 1): the squares of the solve's KKT check raised
        # OverflowError, and the objective overflows to -inf
        path = tmp_path / "huge.json"
        path.write_text('{"n": 2, "Q": [[1, 0], [0, 1]], "c": [1e308, 1e308]}')
        with np.errstate(all="ignore"):
            code, out, err = run_cli(capsys, command, str(path))
        assert code == 64 and out == ""
        assert err.count("\n") == 1 and "non-finite value" in err

    @pytest.mark.parametrize("name, exit_code", [
        ("dense_2d_certified", 0), ("dense_3d_uncertified", 2), ("diagonal_2d_certified", 0),
        ("diagonal_2d_saddle", 2), ("hardcase_2d", 3)])
    def test_small_q_solves_and_checks_as_its_unit_scale_copy(
            self, capsys, tmp_path, problem_dir, name, exit_code):
        # Q * 1e-12 met the absolute floors of the solve (exit 4 on every
        # fixture) and the zero band of check's hard-case limit value
        data = json.loads((problem_dir / f"{name}.json").read_text())
        key = "q" if data.get("diagonal") else "Q"
        data[key] = (1e-12 * np.array(data[key])).tolist()
        problem, report = tmp_path / "small.json", tmp_path / "report.json"
        problem.write_text(json.dumps(data))
        assert run_cli(capsys, "solve", str(problem), "-o", str(report))[0] == exit_code
        code, out, _ = run_cli(capsys, "check", str(problem), str(report))
        assert code == 0 and "FAIL" not in out

    def test_output_file_written_atomically(self, capsys, tmp_path, problem_dir):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "solve", str(problem_dir / "dense_2d_certified.json"), "-o", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["solution"]["nappe_ok"] is True
        assert not list(tmp_path.glob(".tmp-*"))

    def test_malformed_file_exit_64(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "Q": [[1, 0], [0, "x"]], "c": [1, 0]}')
        code, _, err = run_cli(capsys, "solve", str(bad))
        assert code == 64
        assert "Q[1][1]" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--tol-kkt", "-1"],
    ["solve", "--oracle", "--oracle-resolution", "8"],
    ["solve", "--oracle", "--oracle-radius", "-1"],
    ["sweep", "--steps", "3", "--sigma-max", "inf"],
    ["oracle", "--radius", "nan"],
], ids=lambda argv: " ".join(argv))
def test_bad_numeric_flag_exit_64(capsys, problem_dir, argv):
    command, flag, value = argv[0], argv[-2], argv[-1]
    code, out, err = run_cli(
        capsys, command, str(problem_dir / "dense_2d_certified.json"), *argv[1:])
    assert code == 64 and out == ""
    assert err.count("\n") == 1 and flag in err and value in err


@pytest.mark.parametrize("command", ["solve", "enumerate"])
def test_samples_flag_is_a_usage_error(capsys, problem_dir, command):
    with pytest.raises(SystemExit) as err:
        main([command, str(problem_dir / "dense_2d_certified.json"), "--samples", "16"])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--samples" in out.err


@pytest.mark.parametrize("argv", [
    ["solve", "--tol-root", "1e-6"],
    ["enumerate", "--max-iter", "3"],
], ids=lambda argv: " ".join(argv))
def test_newton_flags_are_usage_errors(capsys, problem_dir, argv):
    with pytest.raises(SystemExit) as err:
        main([argv[0], str(problem_dir / "dense_2d_certified.json"), *argv[1:]])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and argv[1] in out.err


@pytest.mark.parametrize("argv", [
    ["solve", "--tol-eig", "0.5"],
    ["enumerate", "--tol-eig", "0.5"],
    ["sweep", "--sigma-max", "2", "--steps", "3", "--tol-eig", "0.5"],
], ids=lambda argv: " ".join(argv))
def test_tol_eig_flag_is_a_usage_error(capsys, problem_dir, argv):
    # the zero band is the constant arrowhead.TOL_EIG, applied in natural units
    with pytest.raises(SystemExit) as err:
        main([argv[0], str(problem_dir / "dense_2d_certified.json"), *argv[1:]])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--tol-eig" in out.err


def test_every_flag_rule_has_its_flag():
    from lorentzqp.cli import _FLAG_RULES, build_parser

    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    dests = {a.dest for sp in subparsers.values() for a in sp._actions}
    assert set(_FLAG_RULES) <= dests


# a report with the certified solution of dense_2d_certified and the
# tolerances block given by %
_CLAIM = '{"solution": {"sigma": 1.2909090909090908, "x": [0.55, 0.55]}, "tolerances": %s}'


class TestCheckCommand:
    def test_self_consistency(self, capsys, tmp_path, problem_dir):
        problem = problem_dir / "dense_2d_certified.json"
        report = tmp_path / "report.json"
        assert run_cli(capsys, "solve", str(problem), "-o", str(report))[0] == 0
        code, out, _ = run_cli(capsys, "check", str(problem), str(report))
        assert code == 0
        assert "stationarity" in out

    def test_perturbed_solution_fails(self, capsys, tmp_path, problem_dir):
        problem = problem_dir / "dense_2d_certified.json"
        report = tmp_path / "report.json"
        run_cli(capsys, "solve", str(problem), "-o", str(report))
        obj = json.loads(report.read_text())
        obj["solution"]["x"][0] += 1e-2
        report.write_text(json.dumps(obj))
        code, out, _ = run_cli(capsys, "check", str(problem), str(report))
        assert code == 1
        assert "FAIL" in out

    def test_transcribed_inconsistent_claim_fails(self, capsys, tmp_path, problem_dir):
        # the claimed (x, sigma) pair for the saddle fixture fails stationarity
        report = tmp_path / "claim.json"
        report.write_text(json.dumps({
            "solution": {"sigma": 0.45, "x": [2.0, -2.0], "primal_value": -0.4},
            "tolerances": {"tol_kkt": 1e-8, "tol_gap": 1e-8},
        }))
        code, out, _ = run_cli(
            capsys, "check", str(problem_dir / "diagonal_2d_saddle.json"), str(report))
        assert code == 1
        assert "stationarity" in out and "FAIL" in out

    @pytest.mark.parametrize("source", ["hardcase_2d.json", "gen-hardcase-3-5"])
    def test_hard_case_report(self, capsys, tmp_path, problem_dir, source):
        # the dual is singular at the hard-case sigma; the gap uses its limit value
        problem = problem_dir / source
        if source.startswith("gen-"):
            problem = tmp_path / "hardcase.json"
            assert run_cli(capsys, "gen", "hardcase", "3", "--seed", "5", "-o", str(problem))[0] == 0
        report = tmp_path / "report.json"
        assert run_cli(capsys, "solve", str(problem), "-o", str(report))[0] == 3
        code, out, _ = run_cli(capsys, "check", str(problem), str(report))
        assert code == 0
        assert "duality_gap = 0.000e+00 (ok" in out
        obj = json.loads(report.read_text())
        obj["solution"]["x"][0] += 1e-2
        report.write_text(json.dumps(obj))
        code, out, _ = run_cli(capsys, "check", str(problem), str(report))
        assert code == 1
        assert "FAIL" in out

    def test_legacy_report_with_samples_field(self, capsys, tmp_path, problem_dir):
        problem = problem_dir / "dense_2d_certified.json"
        report = tmp_path / "report.json"
        assert run_cli(capsys, "solve", str(problem), "-o", str(report))[0] == 0
        obj = json.loads(report.read_text())
        assert set(obj["tolerances"]) == {"tol_kkt"}
        obj["tolerances"].update(samples_per_interval=64, tol_root=1e-10, max_iter=200,
                                 tol_gap=1e-6, tol_eig=1e-10)
        report.write_text(json.dumps(obj))
        code, out, _ = run_cli(capsys, "check", str(problem), str(report))
        assert code == 0 and "FAIL" not in out
        # an older report's tol_gap still sets the gap tolerance
        gap_line = next(line for line in out.splitlines() if "duality_gap" in line)
        assert gap_line.endswith("tol 1.0e-06)")

    def test_dimension_mismatch_exit_65(self, capsys, tmp_path, problem_dir):
        report = tmp_path / "claim.json"
        report.write_text(json.dumps({"solution": {"sigma": 0.0, "x": [1.0, 0.0, 0.0]}}))
        code, _, err = run_cli(
            capsys, "check", str(problem_dir / "dense_2d_certified.json"), str(report))
        assert code == 65
        assert "dimension mismatch" in err

    def test_report_without_solution_has_nothing_to_verify(self, capsys, tmp_path, problem_dir):
        report = tmp_path / "none.json"
        report.write_text(json.dumps({"solution": None}))
        code, out, _ = run_cli(
            capsys, "check", str(problem_dir / "dense_2d_certified.json"), str(report))
        assert code == 0 and "nothing to verify" in out

    @pytest.mark.parametrize("text, message", [
        ("{not json", "cannot read report file"),
        (None, "cannot read report file"),
        ('{"solution": {"x": 5, "sigma": 0}}', "x has shape ()"),
        ('{"solution": {"x": [[0.5, 0.5], [0.5, 0.5]], "sigma": 0}}', "x has shape (2, 2)"),
        (_CLAIM % '{"tol_kkt": "abc"}', "tol_kkt must be finite and > 0, got 'abc'"),
        (_CLAIM % "null", "malformed tolerances block"),
        ("[" + _CLAIM % "{}" + "]", "malformed report"),
        (_CLAIM % '{"tol_kkt": -1}', "tol_kkt must be finite and > 0, got -1"),
        (_CLAIM % '{"tol_gap": 0}', "tol_gap must be finite and > 0, got 0"),
        (_CLAIM % '{"tol_gap": NaN}', "tol_gap must be finite and > 0, got nan"),
        ('{"solution": {"x": [NaN, 0.5], "sigma": 0.5}}', "x and sigma must be finite"),
        ('{"solution": {"x": [0.5, 0.5], "sigma": Infinity}}', "x and sigma must be finite"),
    ], ids=["malformed", "missing", "scalar-x", "matrix-x", "text-tol-kkt", "null-tolerances",
            "list-report", "negative-tol-kkt", "zero-tol-gap", "nan-tol-gap", "nan-x",
            "infinite-sigma"])
    def test_unreadable_report_exit_64(self, capsys, tmp_path, problem_dir, text, message):
        report = tmp_path / "report.json"
        if text is not None:
            report.write_text(text)
        code, out, err = run_cli(
            capsys, "check", str(problem_dir / "dense_2d_certified.json"), str(report))
        assert code == 64 and out == ""
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["dense_2d_certified", "dense_3d_uncertified",
                                      "diagonal_2d_certified", "diagonal_2d_saddle",
                                      "hardcase_2d"])
    def test_check_builds_one_pencil_without_roots(self, capsys, tmp_path, problem_dir,
                                                   roots_and_eighs, name):
        # x(sigma), or the pseudo-solve at the hard case's pole, and the
        # inertia need the rotation of one arrowhead, not the roots of f
        problem = problem_dir / f"{name}.json"
        report = tmp_path / "report.json"
        run_cli(capsys, "solve", str(problem), "-o", str(report))
        roots_and_eighs.update(roots=0, eigh=0)
        code, out, _ = run_cli(capsys, "check", str(problem), str(report))
        assert code == 0 and "duality_gap" in out
        assert roots_and_eighs == {"roots": 0, "eigh": 1}

    def test_non_numeric_sigma_exit_64(self, capsys, tmp_path, problem_dir):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"solution": {"sigma": "x", "x": [0.5, 0.5]}}))
        code, out, err = run_cli(
            capsys, "check", str(problem_dir / "dense_2d_certified.json"), str(report))
        assert code == 64 and out == ""
        assert "malformed solution block" in err

    def test_singular_shift_with_c_in_the_null_space_has_an_infinite_gap(self, capsys,
                                                                           tmp_path):
        # G(1) = diag(0, 2) for Q = I, and c = (1, 1) is not orthogonal to its
        # null vector e0: the dual has no limit value at sigma = 1
        problem, report = tmp_path / "p.json", tmp_path / "report.json"
        problem.write_text('{"n": 2, "Q": [[1, 0], [0, 1]], "c": [1, 1]}')
        report.write_text(json.dumps({"solution": {"sigma": 1.0, "x": [0.5, 0.5]}}))
        code, out, _ = run_cli(capsys, "check", str(problem), str(report))
        assert code == 1
        assert "check: duality_gap = inf (FAIL" in out


class TestEnumerateCommand:
    def test_saddle_fixture_lists_uncertified_points(self, capsys, problem_dir):
        code, out, _ = run_cli(capsys, "enumerate", str(problem_dir / "diagonal_2d_saddle.json"))
        assert code == 0
        pts = json.loads(out)["critical_points"]
        positive = [cp for cp in pts if cp["sigma"] > 0]
        assert [round(cp["sigma"], 6) for cp in positive] == [0.225, 0.6]
        assert all(cp["certificate"] == "kkt_no_certificate" for cp in pts)
        assert all(not cp["nappe_ok"] for cp in positive)


class TestSweepCommand:
    def test_header_and_shape(self, capsys, problem_dir):
        code, out, _ = run_cli(
            capsys, "sweep", str(problem_dir / "dense_2d_certified.json"),
            "--sigma-max", "2", "--steps", "21")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "sigma,dual_value,dual_derivative,min_eigenvalue,is_pd"
        assert len(lines) == 22

    def test_pole_rows_have_empty_values(self, capsys, problem_dir):
        code, out, _ = run_cli(
            capsys, "sweep", str(problem_dir / "hardcase_2d.json"),
            "--sigma-max", "2", "--steps", "3")
        row = out.strip().split("\n")[2].split(",")
        assert row[1] == "" and row[2] == "" and row[4] == "false"

    def test_overflowing_values_are_empty_cells(self, capsys, tmp_path):
        # x ~ c ~ 1e308: c'x and x'Lx overflow in the problem's own units,
        # which leaves blank value cells rather than a traceback
        path = tmp_path / "huge.json"
        path.write_text('{"n": 2, "Q": [[1, 0], [0, 1]], "c": [1e308, 1e308]}')
        code, out, err = run_cli(
            capsys, "sweep", str(path), "--sigma-max", "1", "--steps", "3")
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 3
        assert all(row[1] == "" and row[2] == "" for row in rows)
        # G(0) and G(0.5) are positive definite, G(1) = diag(0, 2) is singular
        assert [row[4] for row in rows] == ["true", "true", "false"]


class TestOracleCommand:
    def test_hard_case_oracle(self, capsys, problem_dir):
        code, out, _ = run_cli(
            capsys, "oracle", str(problem_dir / "hardcase_2d.json"),
            "--radius", "3", "--resolution", "64")
        assert code == 0
        res = json.loads(out)["oracle"]
        assert abs(res["best_value"] + 0.25) < 1e-3

    @pytest.mark.parametrize("argv", [["oracle"], ["solve", "--oracle"]],
                             ids=lambda argv: " ".join(argv))
    def test_oracle_above_n_4_exits_64_before_solving(self, capsys, tmp_path, monkeypatch,
                                                      argv):
        from lorentzqp import cli
        from lorentzqp.verify import ORACLE_MAX_N

        def must_not_run(*args, **kwargs):
            raise AssertionError("ran past the dimension check")

        monkeypatch.setattr(cli, "solve_problem", must_not_run)
        monkeypatch.setattr(cli, "brute_force_min", must_not_run)
        path = tmp_path / "n5.json"
        assert run_cli(capsys, "gen", "convex", str(ORACLE_MAX_N + 1), "-o", str(path))[0] == 0
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 64 and out == ""
        assert err.count("\n") == 1 and f"n <= {ORACLE_MAX_N}" in err

    def test_non_finite_oracle_value_exits_64(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 2, "Q": [[1, 0], [0, 1]], "c": [1e308, 1e308]}')
        with np.errstate(all="ignore"):
            code, out, err = run_cli(capsys, "oracle", str(path), "--radius", "3")
        assert code == 64 and out == ""
        assert err.count("\n") == 1 and "best value is nan" in err

    def test_solve_reports_a_non_finite_oracle_value_with_exit_64(
            self, capsys, monkeypatch, problem_dir):
        # c = 1e308 (1, 1) overflows the solve's own KKT check first, so the
        # solve's oracle step is handed that instance directly
        from lorentzqp import solver, verify

        huge = ProblemInstance(Q=np.eye(2), c=[1e308, 1e308])
        monkeypatch.setattr(solver, "brute_force_min",
                            lambda p, radius, resolution:
                            verify.brute_force_min(huge, radius, resolution))
        with np.errstate(all="ignore"):
            code, out, err = run_cli(capsys, "solve", str(problem_dir / "dense_2d_certified.json"),
                                     "--oracle")
        assert code == 64 and out == ""
        assert err.count("\n") == 1 and "best value is nan" in err

    def test_oracle_at_n_4_runs(self, capsys, tmp_path):
        path = tmp_path / "n4.json"
        assert run_cli(capsys, "gen", "convex", "4", "--seed", "3", "-o", str(path))[0] == 0
        code, out, _ = run_cli(capsys, "oracle", str(path), "--radius", "2",
                               "--resolution", "16")
        assert code == 0
        assert len(json.loads(out)["oracle"]["best_x"]) == 4

    def test_solve_above_n_4_without_oracle_runs(self, capsys, tmp_path):
        path = tmp_path / "n5.json"
        assert run_cli(capsys, "gen", "convex", "5", "-o", str(path))[0] == 0
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code in (0, 2, 3, 4) and err == ""
        assert json.loads(out)["oracle"] is None


class TestGenCommand:
    def test_byte_identical_output(self, capsys):
        _, out1, _ = run_cli(capsys, "gen", "diagonal", "2", "--seed", "7")
        _, out2, _ = run_cli(capsys, "gen", "diagonal", "2", "--seed", "7")
        assert out1 == out2 and out1

    def test_unknown_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen", "sparse", "2"])
        assert err.value.code == 2

    def test_dimension_one_exit_64(self, capsys):
        code, out, err = run_cli(capsys, "gen", "convex", "1")
        assert code == 64 and out == ""
        assert "n must be at least 2" in err

    def test_generated_file_solves(self, capsys, tmp_path):
        path = tmp_path / "gen.json"
        assert run_cli(capsys, "gen", "convex", "3", "--seed", "1", "-o", str(path))[0] == 0
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code in (0, 2, 3, 4)
        assert json.loads(out)["problem"]["n"] == 3


def test_console_entry_point_subprocess(problem_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "lorentzqp.cli", "solve",
         str(problem_dir / "dense_2d_certified.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["solution"]["certificate"] == "global_min_certified"


def test_solve_subprocess_does_not_import_scipy(problem_dir):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "lorentzqp.cli", "solve",
         str(problem_dir / "dense_2d_certified.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "numpy" in imported and "lorentzqp.dual" in imported
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


# Runs every subcommand in one interpreter in which importing scipy fails.
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from lorentzqp.cli import main
problems, tmp = sys.argv[1], sys.argv[2]
dense, hard = problems + "/dense_2d_certified.json", problems + "/hardcase_2d.json"
codes = [
    main(["solve", dense, "-o", tmp + "/report.json"]),
    main(["check", dense, tmp + "/report.json"]),
    main(["enumerate", problems + "/diagonal_2d_saddle.json"]),
    main(["sweep", dense, "--sigma-max", "2", "--steps", "3"]),
    main(["oracle", hard, "--radius", "3", "--resolution", "16"]),
    main(["gen", "indefinite", "3", "--seed", "1", "-o", tmp + "/gen.json"]),
    main(["solve", tmp + "/gen.json"]),
]
print(json.dumps(codes), file=sys.stderr)
"""


def test_every_subcommand_runs_without_scipy(problem_dir, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(problem_dir), str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stderr.strip().splitlines()[-1])
    assert codes[:6] == [0, 0, 0, 0, 0, 0] and codes[6] in (0, 2, 3, 4)
