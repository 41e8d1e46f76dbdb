"""In-process driver tests: exit codes, output files, determinism."""

import json
import os
import subprocess
import sys

import sigmak
import sigmak.cli
from sigmak import RunConfig, load_field, parse_config_file
from sigmak.cli import main
from sigmak.solver import TRACE_HEADER


def drive(tmp_path, cfg, command, tag="run"):
    """Write cfg, run one command, return (exit code, output dir)."""
    conf = tmp_path / f"{tag.replace('/', '_')}.config"
    conf.write_text(cfg.to_text(), encoding="utf-8")
    out = tmp_path / tag
    rc = main([command, "--config", str(conf), "--out", str(out)])
    return rc, out


def read(out, name):
    return (out / name).read_bytes()


def fast_check_config(**overrides):
    overrides.setdefault("N", 8)
    overrides.setdefault("check_samples", 50)
    return RunConfig(**overrides)


def test_check_passes_and_writes_certificates(tmp_path):
    rc, out = drive(tmp_path, fast_check_config(), "check")
    assert rc == 0
    text = (out / "certificates.txt").read_text()
    assert "summary.passed: true" in text
    for prefix in ("suite.recurrence", "suite.newton_maclaurin",
                   "suite.ratio_monotonicity", "suite.euler_identity",
                   "ellipticity_t0", "ellipticity_t1", "concavity"):
        assert prefix in text
    echoed = parse_config_file(out / "config.txt")
    assert echoed == fast_check_config()


def test_check_fails_when_a_certificate_fails(tmp_path):
    # ric0 = +identity makes the t=1 linearization state leave the cone,
    # so the t=1 ellipticity certificate must report failure.
    hostile = fast_check_config(
        background={"(1,1)": "1", "(2,2)": "1", "(3,3)": "1"})
    rc, out = drive(tmp_path, hostile, "check")
    assert rc == 1
    text = (out / "certificates.txt").read_text()
    assert "ellipticity_t0.passed: true" in text
    assert "ellipticity_t1.passed: false" in text
    assert "summary.passed: false" in text


def test_check_reruns_are_byte_identical(tmp_path):
    _, first = drive(tmp_path, fast_check_config(), "check", "one")
    _, second = drive(tmp_path, fast_check_config(), "check", "two")
    for name in ("certificates.txt", "config.txt"):
        assert read(first, name) == read(second, name)


def test_solve_canonical_path_outputs(tmp_path):
    cfg = RunConfig(N=8)
    rc, out = drive(tmp_path, cfg, "solve")
    assert rc == 0

    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) >= 3
    assert lines[-1].split(",")[1] == "1.0"

    name, u = load_field(out / "u_final.field")
    assert name == "u"
    assert u.grid.shape == (8, 8, 8)
    assert u.max_abs() <= 1e-6

    report = (out / "report.txt").read_text()
    assert "trace.reached_target: true" in report
    assert report.rstrip().endswith("result: pass")
    doc = json.loads((out / "report.json").read_text())
    assert doc["result"] == "pass"
    assert doc["trace"]["final_t"] == 1.0

    assert parse_config_file(out / "config.txt") == cfg


def test_solve_reruns_are_byte_identical(tmp_path):
    cfg = RunConfig(N=8)
    _, first = drive(tmp_path, cfg, "solve", "one")
    _, second = drive(tmp_path, cfg, "solve", "two")
    for name in ("trace.csv", "u_final.field", "report.txt",
                 "report.json", "config.txt"):
        assert read(first, name) == read(second, name)


def test_solve_failure_keeps_partial_trace(tmp_path, capsys):
    # A frozen step size with a one-iteration Newton budget cannot leave
    # t = 0, so the path fails but the accepted prefix is still written.
    cfg = RunConfig(N=8, dt_init=0.5, dt_max=0.5, dt_min=0.5,
                    newton_max_iters=1)
    rc, out = drive(tmp_path, cfg, "solve")
    assert rc == 1
    assert "step size underflow" in capsys.readouterr().err

    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "0.0"
    report = (out / "report.txt").read_text()
    assert "trace.reached_target: false" in report
    # the accepted t = 0 state is still audited
    assert "check.ellipticity: pass value=" in report
    assert (out / "u_final.field").exists()


def test_failed_case_c_solve_writes_an_empty_trace_and_report(tmp_path,
                                                            capsys):
    # The direct case C Newton solve of this problem finds no admissible
    # decreasing step at t = 1. It has no accepted prefix, so the run writes
    # a header-only trace and a report whose checks fail on the empty trace.
    cfg = RunConfig(case="C", n=3, k=3, N=8, alpha="-0.05",
                    f="1+0.5*cos(x1+x2)")
    rc, out = drive(tmp_path, cfg, "solve")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("sigmak solve: line search found no admissible")
    assert err.count("\n") == 1

    assert (out / "trace.csv").read_text() == TRACE_HEADER + "\n"
    assert not (out / "u_final.field").exists()
    report = (out / "report.txt").read_text()
    assert "trace.reached_target: false" in report
    assert "result: fail" in report
    doc = json.loads((out / "report.json").read_text())
    assert doc["checks"]
    assert all(c["status"] == "fail" and c["detail"] == "empty trace"
               for c in doc["checks"])
    assert sorted(os.listdir(out)) == ["config.txt", "report.json",
                                       "report.txt", "trace.csv"]


def test_verify_manufactured_convergence_case_c(tmp_path):
    cfg = RunConfig(case="C", alpha="-0.05", f="1", N=16)
    rc, out = drive(tmp_path, cfg, "verify")
    assert rc == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["status"] == "pass"
    assert 1.6 <= doc["order"] <= 2.4
    assert doc["N_coarse"] == 16 and doc["N_fine"] == 32
    assert 0.0 < doc["err_fine"] < doc["err_coarse"]
    assert "verify.passed: true" in (out / "report.txt").read_text()
    name_c, u_c = load_field(out / "u_coarse.field")
    name_f, u_f = load_field(out / "u_fine.field")
    assert (name_c, name_f) == ("u_coarse", "u_fine")
    assert u_c.grid.N == 16 and u_f.grid.N == 32


def test_verify_zero_star_is_an_informational_skip(tmp_path):
    cfg = RunConfig(case="C", alpha="-0.05", f="1", N=8, u_star="0")
    rc, out = drive(tmp_path, cfg, "verify")
    assert rc == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["status"] == "info"
    assert doc["order"] is None
    assert doc["err_coarse"] <= 1e-10 and doc["err_fine"] <= 1e-10


def test_verify_rejects_case_b(tmp_path):
    cfg = RunConfig(case="B", alpha="-1/3", f="0", N=8)
    rc, _ = drive(tmp_path, cfg, "verify")
    assert rc == 2


def test_verify_rejects_inadmissible_star(tmp_path):
    cfg = RunConfig(case="C", alpha="-0.05", f="1", N=8,
                    u_star="5*sin(x1)*cos(x2)")
    rc, _ = drive(tmp_path, cfg, "verify")
    assert rc == 2


def test_missing_config_file_is_an_io_error(tmp_path):
    rc = main(["check", "--config", str(tmp_path / "nope.config"),
               "--out", str(tmp_path / "out")])
    assert rc == 3


def test_invalid_config_exits_two(tmp_path):
    conf = tmp_path / "bad.config"
    conf.write_text("spec.m = 4\n", encoding="utf-8")
    assert main(["check", "--config", str(conf),
                 "--out", str(tmp_path / "out")]) == 2

    conf2 = tmp_path / "range.config"
    conf2.write_text("spec.k = 2\n", encoding="utf-8")
    assert main(["solve", "--config", str(conf2),
                 "--out", str(tmp_path / "out")]) == 2


def test_bad_background_components_exit_two(tmp_path, capsys):
    """A malformed or out-of-range component key, a coordinate beyond n and
    an expression that fails on the grid: `sigmak solve` exits 2 for each,
    in the tensor each case reads."""
    bad = (("1,1", "-1", "malformed tensor component"),
           ("(1,4)", "-1", "out of range"),
           ("(1,1)", "x4", "x4"),
           ("(2,2)", "log(sin(x2))", "grid index (0, 0, 0)"))
    for case, tensor in (("A", "ric0"), ("C", "schouten0")):
        for i, (key, src, message) in enumerate(bad):
            conf = tmp_path / f"{case}{i}.config"
            conf.write_text(f'spec.case = "{case}"\nspec.N = 8\n'
                            f'background.{tensor}.{key} = "{src}"\n',
                            encoding="utf-8")
            assert main(["solve", "--config", str(conf), "--out",
                         str(tmp_path / f"{case}{i}")]) == 2, (case, key)
            assert message in capsys.readouterr().err, (case, key)


def test_unread_background_and_non_finite_numbers_exit_two(tmp_path,
                                                          capsys):
    """A component of the tensor the case does not read, a non-finite
    Newton tolerance and a NaN ceiling: each `sigmak solve` exits 2, and
    the message names the key."""
    bad = (('spec.case = "C"\nbackground.ric0.(2,2) = "log(sin(x2))"\n',
            "background.ric0.(2,2) is not read in case C"),
           ('background.schouten0.(1,1) = "1"\n',
            "background.schouten0.(1,1) is not read in case A"),
           ("solver.newton_tol = nan\n", "newton_tol must be finite"),
           ("solver.newton_tol = inf\n", "newton_tol must be finite"),
           ("monitor.ceiling_sup_u = nan\n", "monitor.ceiling_sup_u"))
    for i, (text, message) in enumerate(bad):
        conf = tmp_path / f"bad{i}.config"
        conf.write_text("spec.N = 8\n" + text, encoding="utf-8")
        assert main(["solve", "--config", str(conf), "--out",
                     str(tmp_path / f"out{i}")]) == 2, text
        assert message in capsys.readouterr().err, text


def test_check_samples_over_the_memory_budget_exit_two_before_any_work(
        tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a rejected config")
    for name in ("_suite_recurrence", "_suite_newton_maclaurin",
                 "_suite_ratio_monotonicity", "_suite_euler_identity",
                 "concavity_certificate", "_solve_manufactured"):
        monkeypatch.setattr(sigmak.cli, name, no_work)
    monkeypatch.setattr(RunConfig, "problem", no_work)
    cfg = RunConfig(check_samples=10_000_000)
    for command in ("check", "solve", "verify"):
        rc, out = drive(tmp_path, cfg, command, command)
        assert rc == 2
        assert "memory budget" in capsys.readouterr().err
        assert not out.exists()


def test_grids_over_the_memory_budget_exit_two_before_any_work(
        tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a rejected config")
    monkeypatch.setattr(RunConfig, "problem", no_work)
    monkeypatch.setattr(sigmak.cli, "_solve_manufactured", no_work)
    for n, N in ((4, 64), (6, 128)):
        cfg = RunConfig(n=n, k=3, N=N)
        for command in ("check", "solve", "verify"):
            rc, out = drive(tmp_path, cfg, command, f"n{n}/{command}")
            assert rc == 2
            assert "memory budget" in capsys.readouterr().err
            assert not out.exists()
    # verify solves at N and 2N: N=64 passes validation at n=3, its doubled
    # grid does not.
    cfg = RunConfig(N=64)
    cfg.validate()
    rc, out = drive(tmp_path, cfg, "verify", "verify64")
    assert rc == 2
    assert "N=128" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["config.txt"]


def test_outputs_land_in_requested_directory(tmp_path):
    rc, out = drive(tmp_path, fast_check_config(), "check", "nested/deep")
    assert rc == 0
    assert sorted(os.listdir(out)) == ["certificates.txt", "config.txt"]


def test_solve_finishes_when_krylov_stalls(tmp_path):
    """The first Newton system of the step from t = 0.8 to t = 1 is not
    elliptic at some nodes, and GMRES does not converge on it to its default
    tolerance (see test_stagnating_gmres_fails_within_three_cycles). GMRES
    is capped, and the inexact Newton step asks it only for a loose
    tolerance there; that step fails in the line search, the continuation
    halves dt, and the run still reaches t = 1 in bounded time. Run in a
    subprocess so a hang fails the test."""
    cfg = RunConfig(N=24, alpha="-0.5*(1+cos(x1))",
                    f="0.3+0.25*sin(x2)*sin(x3)")
    conf = tmp_path / "stall.config"
    conf.write_text(cfg.to_text(), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sigmak.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "sigmak.cli", "solve", "--config", str(conf),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert float(rows[-1].split(",")[1]) == 1.0


def test_scipy_stays_off_the_run_path(tmp_path):
    """A fresh interpreter that imports sigmak.cli and runs a small
    `sigmak solve` (a non-constant case A state, so GMRES takes Krylov
    steps) never imports scipy: the solver is matrix-free, and only
    LinearOperator.as_csr, for tests and diagnostics, needs scipy."""
    cfg = RunConfig(N=8, f="0.7+0.1*sin(x1)")
    conf = tmp_path / "small.config"
    conf.write_text(cfg.to_text(), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sigmak.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    code = ("import sys\n"
            "import sigmak.cli\n"
            "rc = sigmak.cli.main(['solve', '--config', sys.argv[1], "
            "'--out', sys.argv[2]])\n"
            "print(rc, sorted(m for m in sys.modules if m == 'scipy' "
            "or m.startswith('scipy.')))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(conf), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def _keys(text, sep=":"):
    return [line.partition(sep)[0].strip() for line in text.splitlines()]


def test_record_layouts_are_pinned(tmp_path):
    """The key order of every `key: value` record and of the config echo,
    the key set of verify's report.json, and the trace.csv header."""
    cfg = fast_check_config()
    rc, check = drive(tmp_path, cfg, "check", "check")
    assert rc == 0
    suites = [("suite.recurrence", ("samples", "max_rel_err", "passed"))]
    for name in ("newton_maclaurin", "ratio_monotonicity"):
        suites.append((f"suite.{name}",
                       ("samples", "min_gap", "violations", "passed")))
    suites.append(("suite.euler_identity", ("samples", "max_rel_err", "passed")))
    ellipticity = ("case", "n", "k", "N", "t", "nodes", "nodes_outside_cone",
                   "worst_margin", "worst_margin_node", "newton_min_eig",
                   "newton_min_eig_node", "quotient_min_eig",
                   "quotient_trace_min", "trace_bound", "trace_slack",
                   "passed")
    suites += [("ellipticity_t0", ellipticity), ("ellipticity_t1", ellipticity)]
    suites.append(("concavity", ("n", "k", "samples", "seed", "step",
                                 "margin_floor", "line_max_second_diff",
                                 "line_violations", "hess_min_slack",
                                 "hess_violations", "passed")))
    suites.append(("summary", ("passed",)))
    expected = [f"{prefix}.{key}" for prefix, keys in suites for key in keys]
    assert _keys((check / "certificates.txt").read_text()) == expected

    config_keys = ["seed", "spec.case", "spec.n", "spec.k", "spec.N",
                   "spec.alpha", "spec.f"]
    config_keys += [f"background.ric0.({i},{i})" for i in (1, 2, 3)]
    config_keys += [f"solver.{key}" for key in (
        "dt_init", "dt_max", "dt_min", "newton_tol", "newton_max_iters",
        "cone_factor", "armijo_factor")]
    config_keys += ["check.samples", "verify.u_star", "monitor.checks",
                    "monitor.ceiling_sup_u", "monitor.ceiling_sup_grad_u_sq",
                    "monitor.ceiling_sup_hess_u"]
    assert _keys((check / "config.txt").read_text(), "=") == config_keys

    rc, solve = drive(tmp_path, cfg, "solve", "solve")
    assert rc == 0
    assert (solve / "trace.csv").read_text().splitlines()[0] == (
        "step,t,newton_iters,residual_norm,cone_margin,"
        "sup_u,sup_grad_u_sq,sup_hess_u")

    rc, verify = drive(tmp_path, cfg, "verify", "verify")
    assert rc == 0
    record = ["case", "n", "k", "N_coarse", "N_fine", "u_star", "err_coarse",
              "err_fine", "order", "status", "detail", "passed"]
    assert _keys((verify / "report.txt").read_text()) == [
        f"verify.{key}" for key in record]
    doc = json.loads((verify / "report.json").read_text())
    assert set(doc) == {"command", *record}
    assert doc["command"] == "verify"


def test_case_c_solve_follows_the_solver_schedule(tmp_path):
    """The direct case C Newton solve reads solver.* like the continuation
    path does: a stricter Armijo factor takes more iterations."""
    iters = {}
    for factor in (0.25, 0.99):
        cfg = RunConfig(case="C", alpha="-0.05", f="1", N=8,
                        armijo_factor=factor)
        rc, out = drive(tmp_path, cfg, "solve", f"armijo{factor}")
        assert rc == 0
        row = (out / "trace.csv").read_text().splitlines()[1]
        iters[factor] = int(row.split(",")[2])
    assert iters[0.99] > iters[0.25]


def test_failed_verify_still_echoes_config(tmp_path):
    cfg = RunConfig(N=8, newton_max_iters=1, dt_min=0.05)
    rc, out = drive(tmp_path, cfg, "verify")
    assert rc == 1
    assert parse_config_file(out / "config.txt") == cfg
