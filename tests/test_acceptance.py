"""Acceptance gate: nine binding criteria, one test each.

Every test asserts the stated tolerance and, where one applies, its runtime
budget. The terminal summary hook in conftest.py prints one
`ACCEPTANCE <i>: PASS|FAIL` line per criterion after the run.
"""

import json
import time

import numpy as np

from sigmak import (
    Grid,
    ProblemSpec,
    RunConfig,
    ScalarField,
    concavity_certificate,
    continue_path,
    ellipticity_certificate,
    linearize,
    prepare_state,
    residual,
    sample_gamma,
    sigma,
    solve_t0,
)
from sigmak.cli import main
from sigmak.grid import random_smooth_field

from helpers import brute_sigma_all, canonical_problem

PAIRS = [(n, k) for n in (3, 4, 5, 6) for k in range(3, n + 1)]


def test_criterion_1():
    """sigma_k recurrence vs subset brute force: 1000 spectra per
    n in {3..6}, all k, relative error at most 1e-12, under 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for n in (3, 4, 5, 6):
        lams = rng.uniform(-3.0, 3.0, size=(1000, n))
        for lam in lams:
            want = brute_sigma_all(lam, n)
            scale = brute_sigma_all(np.abs(lam), n)
            for k in range(1, n + 1):
                got = sigma(lam, k)
                assert abs(got - want[k]) <= 1e-12 * max(1.0, scale[k])
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f} s (budget 5 s)"


def test_criterion_2():
    """Cone inequalities on 10^4 Gamma_k samples (1000 per (n, k) pair):
    the product inequality k(n-l+1) sigma_{l-1} sigma_k
    <= l(n-k+1) sigma_l sigma_{k-1} for every l < k, and the descending
    normalized-ratio chain. Zero violations at slack 1e-10, under 10 s."""
    from sigmak import newton_maclaurin_gap, quotient_ratio_gap

    start = time.perf_counter()
    rng = np.random.default_rng(202)
    violations = 0
    total = 0
    for n, k in PAIRS:
        for lam in sample_gamma(n, k, 1000, rng):
            total += 1
            for l in range(1, k):
                if newton_maclaurin_gap(lam, k, l) < -1e-10:
                    violations += 1
            for j in range(2, k + 1):
                if quotient_ratio_gap(lam, j, 0, j - 1, 0) < -1e-10:
                    violations += 1
    assert total == 10_000
    assert violations == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f} s (budget 10 s)"


def test_criterion_3():
    """Ellipticity and concavity certificates. Ellipticity at the homotopy
    endpoints of each case's canonical problem: per-node minimum eigenvalue
    of the quotient coefficient tensor positive, node trace at least
    (n-k+1)/k - 1e-10. Concavity on 10^4 sampled states (1000 per (n, k)
    pair): line second differences at most 1e-8 and the sharpened polynomial
    inequality sigma * sigma'' <= (k/(k+1)) sigma'^2 at relative slack
    -1e-8. Under 30 s."""
    start = time.perf_counter()
    for case, ts in (("A", (0.0, 0.5, 1.0)), ("B", (0.0, 0.5, 1.0)),
                     ("C", (1.0,))):
        spec = canonical_problem(case)
        rest = ScalarField.zeros(spec.grid)
        for t in ts:
            cert = ellipticity_certificate(prepare_state(rest, t, spec))
            assert cert.passed, (case, t)
            assert cert.quotient_min_eig > 0.0
            assert cert.trace_bound == (spec.n - spec.k + 1) / spec.k
            assert cert.quotient_trace_min >= cert.trace_bound - 1e-10

    for n, k in PAIRS:
        spec = canonical_problem("A", n=n, k=k, N=8)
        cert = concavity_certificate(spec, 1000, seed=303)
        assert cert.samples == 1000
        assert cert.passed, (n, k)
        assert cert.line_violations == 0
        assert cert.line_max_second_diff <= 1e-8
        assert cert.hess_violations == 0
        assert cert.hess_min_slack >= -1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f} s (budget 30 s)"


def test_criterion_4():
    """Analytic linearization vs central differences: 20 random
    (state, direction, weight) triples per case, relative error 1e-6."""
    for case in ("A", "B", "C"):
        spec = canonical_problem(case)
        rng = np.random.default_rng(404 + ord(case))
        for _ in range(20):
            t = 1.0 if case == "C" else float(rng.uniform(0.0, 1.0))
            u = random_smooth_field(spec.grid, rng, amplitude=0.02)
            phi = random_smooth_field(spec.grid, rng, amplitude=1.0)
            got = linearize(prepare_state(u, t, spec)).apply(phi.values)
            eps = 1e-6
            up = ScalarField(spec.grid, u.values + eps * phi.values)
            um = ScalarField(spec.grid, u.values - eps * phi.values)
            want = (residual(prepare_state(up, t, spec)).values
                    - residual(prepare_state(um, t, spec)).values) \
                / (2.0 * eps)
            scale = max(1.0, float(np.abs(want).max()))
            err = float(np.abs(got - want).max())
            assert err <= 1e-6 * scale, (case, t, err)


def test_criterion_5():
    """Flat-start endpoint: from 10 random smooth initializations on the
    n=3, N=16 canonical problem, Newton at t=0 returns to the zero field
    with sup|u| at most 1e-8, under 1 min."""
    start = time.perf_counter()
    spec = canonical_problem("A")
    for seed in range(10):
        u0 = random_smooth_field(spec.grid, np.random.default_rng(500 + seed),
                                 amplitude=0.05, max_wavenumber=1)
        u = solve_t0(spec, u0)
        assert u.max_abs() <= 1e-8, seed
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.2f} s (budget 1 min)"


def test_criterion_6():
    """Case A continuation to t=1 on the canonical configuration
    (n=3, k=3, alpha=-0.1, f=0.7, ric0=-identity, N=16): reaches t=1 with
    the constant solution c=0 within 1e-6, every accepted state inside the
    order-2 cone, sup|u| bounded by 10, under 5 min."""
    start = time.perf_counter()
    spec = canonical_problem("A")
    assert spec.required_cone == 2
    trace = continue_path(spec)
    assert trace.final_t == 1.0
    assert trace.final_state.u.max_abs() <= 1e-6
    assert all(row.cone_margin > 0.0 for row in trace.rows)
    assert max(row.sup_u for row in trace.rows) <= 10.0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 6 took {elapsed:.2f} s (budget 5 min)"


def test_criterion_7():
    """Case B continuation to t=1 at n=3, k=3, N=16: alpha=-1/3 lands on
    the constant c=0 and alpha=-1/(3 e^2) on c=1, each within 1e-6,
    under 5 min."""
    start = time.perf_counter()
    grid = Grid(3, 16)
    for alpha, c in (("-1/3", 0.0), ("-1/(3*exp(2))", 1.0)):
        spec = ProblemSpec.build("B", 3, 3, grid, alpha=alpha, f="0")
        trace = continue_path(spec)
        assert trace.final_t == 1.0
        err = float(np.abs(trace.final_state.u.values - c).max())
        assert err <= 1e-6, (alpha, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 7 took {elapsed:.2f} s (budget 5 min)"


def test_criterion_8(tmp_path):
    """Manufactured-solution convergence for case C and case A at t=1:
    u* = 0.1 sin(x1) cos(x2), observed order in [1.6, 2.4] from N=16 to
    N=32, under 10 min."""
    start = time.perf_counter()
    for case, alpha, f in (("C", "-0.05", "1"), ("A", "-0.1", "0.7")):
        cfg = RunConfig(case=case, alpha=alpha, f=f, N=16)
        conf = tmp_path / f"verify_{case}.config"
        conf.write_text(cfg.to_text(), encoding="utf-8")
        out = tmp_path / f"verify_{case}"
        rc = main(["verify", "--config", str(conf), "--out", str(out)])
        assert rc == 0, case
        doc = json.loads((out / "report.json").read_text())
        assert doc["N_coarse"] == 16 and doc["N_fine"] == 32
        assert 1.6 <= doc["order"] <= 2.4, (case, doc["order"])
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion 8 took {elapsed:.2f} s (budget 10 min)"


def test_criterion_9(tmp_path):
    """Determinism: rerunning each seeded command produces byte-identical
    trace, certificate, report, and field files."""
    runs = (
        ("check", RunConfig()),
        ("solve", RunConfig()),
        ("verify", RunConfig(case="C", alpha="-0.05", f="1", N=16)),
    )
    for command, cfg in runs:
        conf = tmp_path / f"{command}.config"
        conf.write_text(cfg.to_text(), encoding="utf-8")
        outs = []
        for attempt in ("one", "two"):
            out = tmp_path / f"{command}_{attempt}"
            rc = main([command, "--config", str(conf), "--out", str(out)])
            assert rc == 0, command
            outs.append(out)
        first, second = outs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert names, command
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), \
                (command, name)
