"""In-process driver tests: exit codes, output files, determinism."""

import json
import os
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sigmak
import sigmak.cli
import sigmak.operators
import sigmak.solver
from sigmak import Grid, RunConfig, load_field, parse_config_file, sample_text
from sigmak.cli import _conjugated_planes, main
from sigmak.operators import (_concavity_blocks, linearize,
                              manufactured_forcing, sample_blocks)
from sigmak.report import run_checks
from sigmak.solver import TRACE_HEADER, continue_path
from sigmak.symfunc import pack, unpack


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


def test_check_certificates_do_not_depend_on_the_block_size(
        tmp_path, monkeypatch):
    """check streams its samples through blocks of operators.CHECK_BLOCK,
    read at call time, and leaves no block of one sample unless the draw is
    one sample: certificates.txt is byte-identical with blocks of 7 and with
    one block over every sample, at n = 3 and 4 and counts around 7."""
    monkeypatch.setattr(sigmak.operators, "CHECK_BLOCK", 7)
    assert sample_blocks(8) == [slice(0, 8)]
    assert sample_blocks(15) == [slice(0, 7), slice(7, 15)]
    assert sample_blocks(1) == [slice(0, 1)]
    sizes = [len(block[0]) for block in
             _concavity_blocks(3, 3, 8, np.random.default_rng(0))]
    assert sum(sizes) == 8 and min(sizes) > 1, sizes
    for n in (3, 4):
        for samples in (1, 6, 7, 8, 50):
            cfg = fast_check_config(n=n, check_samples=samples)
            texts = []
            for block in (7, samples + 1):
                monkeypatch.setattr(sigmak.operators, "CHECK_BLOCK", block)
                rc, out = drive(tmp_path, cfg, "check",
                                f"n{n}_s{samples}_b{block}")
                assert rc == 0
                texts.append(read(out, "certificates.txt"))
            assert texts[0] == texts[1], (n, samples)


def _expressions(n: int):
    """Expressions of the field grammar in x1..xn: numbers and coordinates
    under at most four nestings of the unary functions and the binary
    operators, so they can take any sign, blow up, or leave a function's
    domain."""
    leaves = st.one_of(st.sampled_from([f"x{i}" for i in range(1, n + 1)]),
                       st.sampled_from(["0", "0.05", "0.7", "1", "2", "3"]))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds("{}({})".format,
                  st.sampled_from(["sin", "cos", "exp", "log", "abs",
                                   "sqrt", "-"]), inner),
        st.builds("({}{}{})".format, inner, st.sampled_from("+-*/^"),
                  inner)), max_leaves=4)


@st.composite
def _check_configs(draw):
    """RunConfigs that validate: a case, n <= 4, N = 8, 3 <= k <= n, alpha
    and f from the field grammar, and 1 to 300 samples: one sample, and
    counts on both sides of sample_gamma's 256-proposal rounds."""
    n = draw(st.integers(3, 4))
    return RunConfig(
        case=draw(st.sampled_from(["A", "B", "C"])), n=n,
        k=draw(st.integers(3, n)), N=8, alpha=draw(_expressions(n)),
        f=draw(_expressions(n)), check_samples=draw(st.integers(1, 300)),
        seed=draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=40, deadline=timedelta(seconds=2))
@given(_check_configs())
def test_check_fuzz_exits_with_a_documented_code(cfg):
    """Over validating configs, `sigmak check` run through main exits 0, 1
    or 2 within the per-example deadline, raising nothing, and writes
    certificates.txt whenever it ran (exit 0 or 1)."""
    cfg.validate()
    with tempfile.TemporaryDirectory() as tmp:
        conf, out = Path(tmp) / "check.config", Path(tmp) / "out"
        conf.write_text(cfg.to_text(), encoding="utf-8")
        rc = main(["check", "--config", str(conf), "--out", str(out)])
        assert rc in (0, 1, 2), rc
        assert (out / "certificates.txt").exists() == (rc != 2), rc


def _first_axis_background(case: str, n: int) -> dict:
    """Background components near the canonical tensor that vary along the
    first grid axis, so each node block reads its own slabs of it, and
    along the last."""
    sign = "1" if case == "C" else "-1"
    comps = {f"({i},{i})": sign for i in range(1, n + 1)}
    comps["(1,1)"] = f"{sign}+0.1*sin(x1)"
    comps[f"({n},{n})"] = f"{sign}-0.05*cos(x{n})"
    comps["(1,2)"] = "0.05*cos(x1)"
    return comps


_BLOCK_CASES = {"A": dict(alpha="-0.1-0.05*cos(x2)", f="0.7+0.2*sin(x1)"),
                "B": dict(alpha="-0.3-0.05*sin(x1)", f="0"),
                "C": dict(alpha="-0.05", f="1+0.3*cos(x1)")}


def test_outputs_do_not_depend_on_the_state_block_size(tmp_path,
                                                        monkeypatch):
    """States are built, and audited, in node blocks of whole first-axis
    slabs sized by operators.STATE_BLOCK_BYTES, read at call time: with
    blocks of one slab and with one block over the whole grid, solve,
    verify (N = 8 -> 16; case B has no verify) and check write
    byte-identical files and exit alike, for cases A, B and C at n = 3 and
    4 on a background that varies along the first axis."""
    for n in (3, 4):
        for case, data in _BLOCK_CASES.items():
            cfg = RunConfig(case=case, n=n, k=3, N=8, check_samples=20,
                            background=_first_axis_background(case, n),
                            **data)
            commands = ("check", "solve") if case == "B" \
                else ("check", "solve", "verify")
            runs = []
            for block in (1, 2 ** 40):
                monkeypatch.setattr(sigmak.operators, "STATE_BLOCK_BYTES",
                                    block)
                blocks = sigmak.operators._node_blocks(cfg.grid())
                assert len(blocks) == (8 if block == 1 else 1)
                files = {}
                for command in commands:
                    rc, out = drive(tmp_path, cfg, command,
                                    f"{case}{n}_b{block}/{command}")
                    files[command] = rc, {name: read(out, name)
                                          for name in sorted(os.listdir(out))}
                runs.append(files)
            assert runs[0] == runs[1], (case, n)
            assert runs[0]["solve"][0] == 0, (case, n)


def test_euler_suite_catches_a_wrong_dsigma_k(tmp_path, monkeypatch):
    """The Euler suite takes k sigma_k from Newton's identities, not from
    the recurrence: a recurrence whose dsigma_k, and with it the sigma_k it
    contracts from dsigma_k, is off by a factor 1 + 1e-8 fails the suite
    and the check."""
    real = sigmak.cli.sigma_and_dsigma_batch

    def scaled(mats, k, *out):
        sig, dk, dkm1 = real(mats, k, *out)
        sig[k] *= 1.0 + 1e-8
        dk *= 1.0 + 1e-8
        return sig, dk, dkm1

    for n in (3, 4):
        cfg = fast_check_config(n=n)
        rc, out = drive(tmp_path, cfg, "check", f"real{n}")
        assert rc == 0
        assert "suite.euler_identity.passed: true" \
            in (out / "certificates.txt").read_text()
        monkeypatch.setattr(sigmak.cli, "sigma_and_dsigma_batch", scaled)
        rc, out = drive(tmp_path, cfg, "check", f"scaled{n}")
        monkeypatch.setattr(sigmak.cli, "sigma_and_dsigma_batch", real)
        text = (out / "certificates.txt").read_text()
        assert rc == 1
        assert "suite.euler_identity.passed: false" in text
        assert "summary.passed: false" in text


def test_conjugated_planes_match_the_qr_construction():
    """The recurrence suite's packed M = Q diag(lam) Q^T, with Q from CGS2,
    against an oracle from np.linalg.qr and a dense einsum: the same M to
    roundoff, the drawn spectrum as its eigenvalues and orthonormal Q, at
    every n and for a block of one sample."""
    for n in range(3, 7):
        for count in (1, 64):
            rng = np.random.default_rng(n)
            raw = rng.standard_normal(size=(count, n, n))
            lams = rng.uniform(-3.0, 3.0, size=(count, n))
            q, planes = _conjugated_planes(raw, lams)
            q_qr, _ = np.linalg.qr(raw)
            dense = np.einsum("bij,bj,bkj->ikb", q_qr, lams, q_qr)
            assert planes.shape == (n * (n + 1) // 2, count)
            assert np.abs(planes - pack(dense)).max() <= 1e-13, (n, count)
            eigs = np.linalg.eigvalsh(np.moveaxis(unpack(planes), -1, 0))
            assert np.allclose(eigs, np.sort(lams, axis=-1),
                               rtol=0.0, atol=1e-13), (n, count)
            gram = np.einsum("jab,lab->bjl", q, q)
            assert np.abs(gram - np.eye(n)).max() <= 1e-14, (n, count)


def test_check_runs_without_a_qr_factorization(tmp_path, monkeypatch):
    def no_qr(*args, **kwargs):
        raise AssertionError("check called np.linalg.qr")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    rc, out = drive(tmp_path, fast_check_config(), "check")
    assert rc == 0
    assert "suite.recurrence.passed: true" \
        in (out / "certificates.txt").read_text()


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


def test_failed_laddered_solve_writes_its_outputs_on_the_configured_grid(
        tmp_path, capsys, monkeypatch):
    """At N = 16 the path walks t on N = 8. When that path fails (a frozen
    step with a one-iteration Newton budget cannot leave t = 0), the run
    exits 1 naming the failure, writes the accepted prefix to trace.csv and
    a report that did not reach the target, and dumps and audits the last
    accepted state rebuilt on the configured N = 16 grid, never the coarse
    one; a rerun writes the same bytes."""
    audited = []

    def recorded(trace, *args):
        audited.append(trace.final_state.u.grid.N)
        return run_checks(trace, *args)

    monkeypatch.setattr(sigmak.cli, "run_checks", recorded)
    cfg = RunConfig(N=16, dt_init=0.5, dt_max=0.5, dt_min=0.5,
                    newton_max_iters=1)
    rc, out = drive(tmp_path, cfg, "solve")
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("sigmak solve: step size underflow")
    assert audited == [16]
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert [line.split(",")[1] for line in lines[1:]] == ["0.0"]
    doc = json.loads((out / "report.json").read_text())
    assert doc["trace"]["reached_target"] is False
    assert doc["result"] == "fail"
    assert (out / "report.txt").read_text().endswith("result: fail\n")
    name, u = load_field(out / "u_final.field")
    assert name == "u" and u.grid.shape == (16, 16, 16)

    rc_again, again = drive(tmp_path, cfg, "solve", tag="again")
    assert rc_again == rc
    assert capsys.readouterr() == captured
    assert sorted(os.listdir(again)) == sorted(os.listdir(out))
    for name in os.listdir(out):
        assert read(again, name) == read(out, name), name


def test_failed_refinement_writes_an_empty_trace_and_no_field(tmp_path,
                                                              capsys):
    """Data not resolved on the coarsest grid: alpha has a kink at x3 = 0
    (sqrt of the periodic coordinate), so the N = 8 path converges but its
    prolonged solution starts the N = 16 correction outside Gamma_3. The
    ladder has no fallback: the run exits 1 naming the cone exit, writes a
    header-only trace, no field and a report that did not reach the
    target, in well under a second (0.04 s in process on a 2-core x86
    machine), and a rerun writes the same bytes."""
    cfg = RunConfig(case="B", n=3, k=3, N=16,
                    alpha="-(0.05+0.3*sin(sin(sqrt(x3)))^2)", f="0")
    start = time.perf_counter()
    rc, out = drive(tmp_path, cfg, "solve")
    assert time.perf_counter() - start < 1.0
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("sigmak solve: entry state outside "
                                   "Gamma_3")
    assert (out / "trace.csv").read_text() == TRACE_HEADER + "\n"
    assert not (out / "u_final.field").exists()
    doc = json.loads((out / "report.json").read_text())
    assert doc["trace"]["reached_target"] is False
    assert doc["result"] == "fail"
    rc_again, again = drive(tmp_path, cfg, "solve", tag="again")
    assert rc_again == rc
    assert capsys.readouterr() == captured
    assert sorted(os.listdir(again)) == sorted(os.listdir(out))
    for name in os.listdir(out):
        assert read(again, name) == read(out, name), name


@st.composite
def _solve_configs(draw):
    """RunConfigs that validate: a case, n = k = 3, N of 8 (one grid) or 16
    (a ladder for cases A and B), alpha and f from the field grammar. Half
    the draws wrap them into the case's sign conditions, alpha as
    -(0.05+0.3*sin(a)^2) and f as 0.3+0.4*sin(f)^2 (0 for case B), so those
    reach the solver instead of failing validation."""
    case = draw(st.sampled_from(["A", "B", "C"]))
    alpha, f = draw(_expressions(3)), draw(_expressions(3))
    if draw(st.booleans()):
        alpha = f"-(0.05+0.3*sin({alpha})^2)"
        f = "0" if case == "B" else f"(0.3+0.4*sin({f})^2)"
    return RunConfig(case=case, n=3, k=3, N=draw(st.sampled_from([8, 16])),
                     alpha=alpha, f=f)


@settings(max_examples=15, deadline=timedelta(seconds=5))
@given(_solve_configs())
def test_solve_fuzz_exits_with_a_documented_code(cfg):
    """Over validating configs, `sigmak solve` run through main exits 0, 1
    or 2 within the per-example deadline, raising nothing, and any
    u_final.field it writes is on the configured grid."""
    cfg.validate()
    with tempfile.TemporaryDirectory() as tmp:
        conf, out = Path(tmp) / "solve.config", Path(tmp) / "out"
        conf.write_text(cfg.to_text(), encoding="utf-8")
        rc = main(["solve", "--config", str(conf), "--out", str(out)])
        assert rc in (0, 1, 2), rc
        if (out / "u_final.field").exists():
            assert load_field(out / "u_final.field")[1].grid == cfg.grid()


def test_failed_case_c_solve_writes_an_empty_trace_and_report(tmp_path,
                                                            capsys):
    """A real failure at the default schedule: the direct case C Newton
    solve of this problem (n=3, k=3, N=8, alpha=-0.05,
    f=1+0.5cos(x1+x2)) finds no admissible decreasing step at t = 1, in
    well under a second. It has no accepted prefix, so the run writes a
    header-only trace and a report whose checks fail on the empty trace,
    and a rerun writes the same bytes. Solving case C on a path from
    u = 0 (ROADMAP item 1) is to turn this failure into a pass, and this
    test's expectation with it."""
    cfg = RunConfig(case="C", n=3, k=3, N=8, alpha="-0.05",
                    f="1+0.5*cos(x1+x2)")
    start = time.perf_counter()
    rc, out = drive(tmp_path, cfg, "solve")
    assert time.perf_counter() - start < 1.0
    assert rc == 1
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("sigmak solve: line search found no admissible "
                          "decreasing step at t=1.0")
    assert err.count("\n") == 1
    rc_again, again = drive(tmp_path, cfg, "solve", tag="again")
    assert rc_again == rc
    assert capsys.readouterr() == captured
    assert sorted(os.listdir(again)) == sorted(os.listdir(out))
    for name in os.listdir(out):
        assert read(again, name) == read(out, name), name

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


def test_verify_solves_its_fine_grid_from_the_prolonged_coarse_solution(
        tmp_path, monkeypatch):
    """`sigmak verify` on the README config (N = 16) solves on the grid
    ladder 8, 16, 32 and walks the path on N = 8 only, its one
    continue_path call. N = 16 is one correction at t = 1, three Newton
    iterations from the N = 8 solution's trigonometric interpolant;
    2N = 32 is one correction of two iterations from the extrapolated
    start P u_16 + (P u_16 - P u_8) / 4. Both land on the solutions the
    full paths from u = 0 reach on their grids. The report records the
    levels and each level's iterations, newton_iters_coarse sums them up to
    N, and a rerun is byte-identical."""
    paths, corrections = [], []
    real_correct = sigmak.solver.newton_correct

    def recorded(*args):
        trace = continue_path(*args)
        paths.append((trace.final_state.u.grid.N,
                      [(row.t, row.newton_iters) for row in trace.rows]))
        return trace

    def correct(u, t, spec, schedule):
        result = real_correct(u, t, spec, schedule)
        corrections.append((u.grid.N, t, result[1]))
        return result

    monkeypatch.setattr(sigmak.cli, "continue_path", recorded)
    monkeypatch.setattr(sigmak.solver, "newton_correct", correct)
    cfg = RunConfig()
    rc, out = drive(tmp_path, cfg, "verify", "one")
    assert rc == 0
    ((n8, coarsest),) = paths
    assert n8 == 8
    assert [iters for _, iters in coarsest] == [0, 4, 4, 4, 4, 5]
    assert len(corrections) == len(coarsest) + 2
    assert corrections[-2:] == [(16, 1.0, 3), (32, 1.0, 2)]
    monkeypatch.undo()
    doc = json.loads((out / "report.json").read_text())
    assert (doc["newton_iters_coarse"], doc["newton_iters_fine"]) == (24, 2)
    assert doc["grid_levels"] == [8, 16, 32]
    assert doc["newton_iters_levels"] == [21, 3, 2]
    text = (out / "report.txt").read_text()
    assert "verify.grid_levels: (8, 16, 32)\n" in text
    assert "verify.newton_iters_levels: (21, 3, 2)\n" in text

    for name, N in (("u_coarse", cfg.N), ("u_fine", 2 * cfg.N)):
        grid = Grid(cfg.n, N)
        base = cfg.problem(grid)
        star = sample_text(cfg.u_star, grid)
        spec = base.with_f_field(manufactured_forcing(star, 1.0, base))
        path = continue_path(spec, cfg.schedule())
        assert len(path.rows) == 6
        _, u = load_field(out / f"{name}.field")
        assert np.abs(u.values - path.final_state.u.values).max() <= 1e-12

    rc, again = drive(tmp_path, cfg, "verify", "two")
    assert rc == 0
    names = sorted(os.listdir(out))
    assert names == sorted(os.listdir(again))
    for name in names:
        assert read(out, name) == read(again, name), name


def test_verify_validates_both_grids_before_any_newton_step(
        tmp_path, capsys, monkeypatch):
    """alpha = 0.05 - 0.1 cos(4 x1)^2 is -0.05 on every N = 8 node and
    +0.05 on the odd N = 16 nodes, so only the N = 16 problem breaks case
    A's sign condition: verify at N = 16 exits 2 naming it before a single
    Newton iteration, on the coarsest grid or any other."""
    linearized = []
    monkeypatch.setattr(sigmak.solver, "linearize", lambda *args, **kw:
                        linearized.append(1) or linearize(*args, **kw))
    cfg = RunConfig(alpha="0.05-0.1*cos(4*x1)^2", f="0.7")
    rc, _ = drive(tmp_path, cfg, "verify")
    assert rc == 2
    assert "case A requires alpha <= 0 pointwise" in capsys.readouterr().err
    assert linearized == []


def test_verify_converges_at_second_order_beyond_n3(tmp_path):
    """Case A at n=4, k=3, u* = 0.1 sin(x1) cos(x2): the observed order from
    N=8 to N=16 lies in [1.6, 2.4] (2.0164 when measured)."""
    cfg = RunConfig(n=4, k=3, N=8)
    rc, out = drive(tmp_path, cfg, "verify")
    assert rc == 0
    doc = json.loads((out / "report.json").read_text())
    assert (doc["N_coarse"], doc["N_fine"]) == (8, 16)
    assert 1.6 <= doc["order"] <= 2.4
    assert doc["status"] == "pass"


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


def test_inadmissible_background_exits_two_before_any_solve(
        tmp_path, capsys, monkeypatch):
    """A background outside its cone (-Ric_{g0}/(n-2) outside Gamma_k for
    case A, A_{g0} outside Gamma_{k-1} for case C) fails validation: solve
    and verify exit 2 with config.txt alone written, and no Newton solve
    starts. Both name the background tensor as the cause; verify checks it
    before it manufactures the forcing, which would fail on the tensor of
    u_star first."""
    def no_solve(*args):
        raise AssertionError("a Newton solve started")

    monkeypatch.setattr(sigmak.solver, "newton_correct", no_solve)
    for case, sign, cause in (("A", "1", "-Ric_{g0}/(n-2) in Gamma_3"),
                              ("C", "-1", "A_{g0} in Gamma_2")):
        cfg = RunConfig(case=case, N=8, alpha="-0.1", f="0.7",
                        background={f"({i},{i})": sign for i in (1, 2, 3)})
        for command in ("solve", "verify"):
            rc, out = drive(tmp_path, cfg, command, f"{case}-{command}")
            assert rc == 2, (case, command)
            assert os.listdir(out) == ["config.txt"]
            err = capsys.readouterr().err
            assert err.startswith(f"sigmak {command}: invalid configuration: "
                                  f"case {case} requires {cause} pointwise")


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


def test_too_deep_expressions_exit_two(tmp_path, capsys):
    """A spec.f summing 990 terms and a spec.alpha in 300 parentheses are
    nested deeper than an expression may be: `sigmak solve` exits 2 naming
    the key instead of failing with a RecursionError."""
    terms = "+".join(["x1"] * 990)
    for key, cfg in (("spec.f", RunConfig(N=8, f=f"0.7+0*({terms})")),
                     ("spec.alpha",
                      RunConfig(N=8, alpha="(" * 300 + "-0.1" + ")" * 300))):
        rc, out = drive(tmp_path, cfg, "solve", key)
        assert rc == 2, key
        assert f"invalid configuration: {key}:" in capsys.readouterr().err


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
                 "concavity_certificate", "_manufactured_spec"):
        monkeypatch.setattr(sigmak.cli, name, no_work)
    monkeypatch.setattr(RunConfig, "problem", no_work)
    cfg = RunConfig(check_samples=20_000_000)
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
    monkeypatch.setattr(sigmak.cli, "_manufactured_spec", no_work)
    for n, N in ((4, 64), (6, 128)):
        cfg = RunConfig(n=n, k=3, N=N)
        for command in ("check", "solve", "verify"):
            rc, out = drive(tmp_path, cfg, command, f"n{n}/{command}")
            assert rc == 2
            assert "memory budget" in capsys.readouterr().err
            assert not out.exists()
    # verify solves at N and 2N: N=32 passes validation at n=4, its doubled
    # grid does not.
    cfg = RunConfig(n=4, k=3, N=32)
    cfg.validate()
    rc, out = drive(tmp_path, cfg, "verify", "verify32")
    assert rc == 2
    assert "N=64" in capsys.readouterr().err
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
    suites.append(("concavity", ("n", "k", "samples", "seed",
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
              "err_fine", "order", "newton_iters_coarse", "newton_iters_fine",
              "grid_levels", "newton_iters_levels", "status", "detail",
              "passed"]
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
