"""Command line driver: `sigmak check|solve|verify --config <path> [--out <dir>]`.

check   runs the symmetric-function property suites and the ellipticity and
        concavity certificates for the configured problem, writing
        certificates.txt; exit 0 iff every suite and certificate passes.
solve   runs the path from the problem's start_t to t = 1 (continuation
        from t = 0 for cases A and B, the direct solve at t = 1 alone for
        case C) on the grid ladder of spec.N, writing trace.csv, the final
        field dump, report.txt and report.json; exit 0 iff the report
        passes (target reached, every check green), else 1. A failed anchor
        or refinement writes a header-only trace.csv.
verify  manufactures the forcing for the configured u_star on each grid,
        validates the N and 2N problems, and solves on the ladder of N with
        2N as its last level; it reports the observed convergence order
        from N to 2N, the grid levels and each level's Newton iterations;
        exit 0 iff the order lies in [1.6, 2.4] (or u_star is identically
        zero and both errors stay below 1e-10). The background condition is
        checked first, so a background outside its cone is named as the
        cause.

Every command first echoes the effective configuration to config.txt in the
output directory, once it has validated, so a run that fails later still
leaves it; the echo re-parses to an identical RunConfig. Every solve walks
solver.continue_path, which picks the path from the case, with the
configured schedule (solver.*), on the coarsest grid of
solver.ladder_levels; solver.refine carries its solution up the finer
grids. Exit codes: 0 ok, 1 run failure, 2 invalid configuration (including
a run over the memory budget, found before any work; verify also checks
its 2N grid), 3 I/O error. Output files carry no timestamps, and all
sampling flows from the single config seed, so repeated runs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .config import RunConfig, parse_config_file
from .curvature import ProblemSpec, record_lines
from .errors import (AdmissibilityError, ConeExitError, ConfigError,
                     DomainError, ExprEvalError, ExprSyntaxError,
                     LinearSolveError, NonConvergenceError, PathFailureError)
from .fieldexpr import keyed
from .grid import Grid, ScalarField, dump_field, prolong, sample_text
from .operators import (concavity_certificate, ellipticity_certificate,
                        manufactured_forcing, prepare_state, sample_blocks)
from .report import run_checks
from .solver import ContinuationTrace, continue_path, ladder_levels, refine
# Unused here: bench/tracer.py wraps sigmak.cli.solve_caseC by name.
from .solver import solve_caseC  # noqa: F401
from .symfunc import (_commuting_product, full_contraction,
                      newton_maclaurin_gap, outer_planes, quotient_ratio_gap,
                      sample_gamma, sigma_all_batch, sigma_and_dsigma_batch,
                      sigma_matrix_planes, sym_dim, sym_entries)

_GAP_SLACK = 1e-10
_REL_TOL = 1e-10
_ORDER_RANGE = (1.6, 2.4)
_ZERO_STAR_TOL = 1e-10


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        fp.write(text)


# -- check -----------------------------------------------------------------

def _rel_err(a: np.ndarray, b: np.ndarray):
    """Largest |a - b| / max(1, |a|, |b|) over a block."""
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return (np.abs(a - b) / scale).max()


def _rel_err_record(name: str, count: int, max_rel) -> tuple:
    max_rel = float(max_rel)
    ok = max_rel <= _REL_TOL
    return record_lines({"samples": count, "max_rel_err": max_rel,
                         "passed": ok}, f"suite.{name}"), ok


def _conjugated_planes(raw: np.ndarray, lams: np.ndarray) -> tuple:
    """(q, planes) for Gaussian draws raw (B, n, n) and spectra lams (B, n):
    q[j], (n, B), is column j of each draw's orthonormal factor by classical
    Gram-Schmidt applied twice (CGS2), and planes is the packed stack of
    M = sum_j lams_j q_j q_j^T, one packed outer product a term."""
    q = raw.transpose(2, 1, 0).copy()  # (column, component, sample)
    for j, v in enumerate(q):
        for _ in range(2):
            coef = (q[:j] * v).sum(axis=1)
            v -= (coef[:, None] * q[:j]).sum(axis=0)
        v /= np.sqrt((v * v).sum(axis=0))
    return q, sum(outer_planes(v) * lam for v, lam in zip(q, lams.T))


def _suite_recurrence(cfg: RunConfig, rng: np.random.Generator) -> tuple:
    """Trace recurrence on conjugated matrices M = Q diag(lam) Q^T against
    the eigenvalue route: all spectra drawn first, then each block's
    Gaussian draws, whose CGS2 factor is Q (_conjugated_planes). That is
    LAPACK's Householder Q up to column signs, which M does not see, so M
    is the QR construction's to roundoff, built straight into packed
    planes."""
    n = cfg.n
    count = cfg.check_samples
    lams = rng.uniform(-3.0, 3.0, size=(count, n))
    max_rel = -np.inf
    for sl in sample_blocks(count):
        raw = rng.standard_normal(size=(sl.stop - sl.start, n, n))
        planes = _conjugated_planes(raw, lams[sl])[1]
        via_traces = np.moveaxis(sigma_matrix_planes(planes, n), 0, -1)
        max_rel = np.maximum(max_rel, _rel_err(via_traces,
                                               sigma_all_batch(lams[sl], n)))
    return _rel_err_record("recurrence", count, max_rel)


def _gap_record(name: str, count: int, gaps: np.ndarray) -> tuple:
    min_gap = float(gaps.min())
    violations = int((gaps < -_GAP_SLACK).sum())
    ok = violations == 0
    return record_lines({"samples": count, "min_gap": min_gap,
                         "violations": violations, "passed": ok},
                        f"suite.{name}"), ok


def _suite_newton_maclaurin(cfg: RunConfig, rng: np.random.Generator) -> tuple:
    n, k = cfg.n, cfg.k
    spectra = sample_gamma(n, k, cfg.check_samples, rng)
    gaps = np.stack([newton_maclaurin_gap(spectra, k, l) for l in range(1, k)])
    return _gap_record("newton_maclaurin", len(spectra), gaps)


def _suite_ratio_monotonicity(cfg: RunConfig, rng: np.random.Generator) -> tuple:
    n, k = cfg.n, cfg.k
    spectra = sample_gamma(n, k, cfg.check_samples, rng)
    gaps = quotient_ratio_gap(spectra, k, 0, k - 1, 0)
    return _gap_record("ratio_monotonicity", len(spectra), gaps)


def _k_sigma_by_power_sums(planes: np.ndarray, k: int) -> np.ndarray:
    """k sigma_k of each matrix M of a packed stack, by Newton's identities
    j sigma_j = sum_{i=1..j} (-1)^(i-1) sigma_{j-i} p_i from the power sums
    p_i = tr(M^i): tr(M) for i = 1, else full_contraction(M^a, M^b) with
    a = i // 2 and b = i - a. The powers up to M^ceil(k/2) cost
    ceil(k/2) - 1 products, and neither the sigma recurrence nor an
    eigendecomposition is involved."""
    n = sym_dim(planes.shape[0])
    powers = [None, planes]
    for _ in range(2, (k + 1) // 2 + 1):
        powers.append(_commuting_product(powers[-1], planes))
    sums = [None, planes[:n].sum(axis=0)] + [
        full_contraction(powers[i // 2], powers[i - i // 2])
        for i in range(2, k + 1)]
    sigmas = [1.0]
    for j in range(1, k + 1):
        total = sum((-1) ** (i - 1) * sigmas[j - i] * sums[i]
                    for i in range(1, j + 1))
        sigmas.append(total / j)
    return total


def _suite_euler_identity(cfg: RunConfig, rng: np.random.Generator) -> tuple:
    """tr(dsigma_k(M) M) = k sigma_k(M) for arbitrary symmetric M, drawn and
    evaluated one block at a time: dsigma_k from the recurrence, k sigma_k
    from Newton's identities (_k_sigma_by_power_sums), so a wrong dsigma_k
    cannot be met by the recurrence's own sigma_k."""
    n, k = cfg.n, cfg.k
    count = cfg.check_samples
    rows, cols = sym_entries(n)
    max_rel = -np.inf
    for sl in sample_blocks(count):
        raw = rng.standard_normal(size=(sl.stop - sl.start, n, n))
        full = np.moveaxis(raw, 0, -1)
        planes = 0.5 * (full[rows, cols] + full[cols, rows])
        dk = sigma_and_dsigma_batch(planes, k)[1]
        max_rel = np.maximum(max_rel, _rel_err(
            full_contraction(dk, planes), _k_sigma_by_power_sums(planes, k)))
    return _rel_err_record("euler_identity", count, max_rel)


def run_check(cfg: RunConfig, out_dir: str) -> int:
    rng = np.random.default_rng(cfg.seed)
    lines = []
    all_ok = True
    for suite in (_suite_recurrence, _suite_newton_maclaurin,
                  _suite_ratio_monotonicity, _suite_euler_identity):
        suite_lines, ok = suite(cfg, rng)
        lines.extend(suite_lines)
        all_ok = all_ok and ok

    spec = cfg.problem()
    u0 = ScalarField.zeros(spec.grid)
    for t in sorted({spec.start_t, 1.0}):
        cert = ellipticity_certificate(prepare_state(u0, t, spec))
        label = f"ellipticity_t{t:g}".replace(".", "_")
        lines.extend(cert.to_lines(prefix=label))
        all_ok = all_ok and cert.passed

    conc = concavity_certificate(spec, cfg.check_samples, cfg.seed)
    lines.extend(conc.to_lines())
    all_ok = all_ok and conc.passed

    lines.extend(record_lines({"passed": all_ok}, "summary"))
    _write_text(os.path.join(out_dir, "certificates.txt"),
                "\n".join(lines) + "\n")
    return 0 if all_ok else 1


# -- solve -----------------------------------------------------------------

def run_solve(cfg: RunConfig, out_dir: str) -> int:
    """Solve the configured problem on the ladder of spec.N and write its
    outputs; trace rows before t = 1 come from the coarsest grid, and the
    t = 1 row from spec.N's state (ContinuationTrace.end_on).

    A failed path still reports its accepted prefix. When that path ran on
    a coarser grid than spec.N, its last accepted u is prolonged to the
    configured grid and the state there is built at the same t, after the
    coarse state is freed: u_final.field and the audits are on spec.N. A
    failed anchor (a case C solve) or refinement has no accepted prefix:
    it reports an empty trace and writes no field."""
    spec = cfg.problem()
    validation = spec.validate(strict=True)
    grids = [Grid(cfg.n, N) for N in ladder_levels(cfg.N, spec.start_t)]
    sched = cfg.schedule()
    spec_at = lambda grid: spec if grid == spec.grid else cfg.problem(grid)
    failure = None
    try:
        trace = continue_path(spec_at(grids[0]), sched)
        if len(grids) > 1:
            levels, (sd, _, rnorm) = refine(trace, spec_at, grids[1:], sched)
            trace.end_on(sd, sum(it for _, it in levels[1:]), rnorm)
    except (PathFailureError, ConeExitError, NonConvergenceError,
            LinearSolveError) as err:
        failure = f"sigmak solve: {err}"
        trace = err.trace if isinstance(err, PathFailureError) \
            else ContinuationTrace()
        if trace.final_state is not None and \
                trace.final_state.u.grid != spec.grid:
            u, trace.final_state = trace.final_state.u, None
            trace.final_state = prepare_state(prolong(u, spec.grid),
                                              trace.final_t, spec)
    _write_text(os.path.join(out_dir, "trace.csv"), trace.to_csv())
    if trace.final_state is not None:
        dump_field(trace.final_state.u, "u",
                   os.path.join(out_dir, "u_final.field"))
    report = run_checks(trace, spec, cfg.checks_mapping(), validation)
    _write_text(os.path.join(out_dir, "report.txt"), report.to_text())
    _write_text(os.path.join(out_dir, "report.json"), report.to_json_text())
    if failure is not None:
        print(failure, file=sys.stderr)
    return 0 if report.passed else 1


# -- verify ------------------------------------------------------------------

def _manufactured_spec(cfg: RunConfig, grid: Grid) -> ProblemSpec:
    """The configured problem on grid with the forcing manufactured from
    u_star. The background condition is checked first, so an inadmissible
    background is named as the cause; a case with no forcing to
    manufacture (B) fails in manufactured_forcing."""
    base = cfg.problem(grid)
    base.validate_background()
    star = keyed("verify.u_star", sample_text, cfg.u_star, grid)
    return base.with_f_field(manufactured_forcing(star, 1.0, base))


def run_verify(cfg: RunConfig, out_dir: str) -> int:
    n_coarse, n_fine = cfg.N, 2 * cfg.N
    cfg.check_memory(n_fine)
    specs = {N: _manufactured_spec(cfg, Grid(cfg.n, N))
             for N in (n_coarse, n_fine)}
    for spec in specs.values():
        spec.validate(strict=True)
    levels = ladder_levels(n_coarse, specs[n_coarse].start_t) + [n_fine]
    grids = [Grid(cfg.n, N) for N in levels]
    spec_at = lambda grid: specs.get(grid.N) or _manufactured_spec(cfg, grid)
    sched = cfg.schedule()
    solved, _ = refine(continue_path(spec_at(grids[0]), sched), spec_at,
                       grids[1:], sched)
    (u_coarse, _), (u_fine, iters_fine) = solved[-2:]
    iters = tuple(it for _, it in solved)
    stars = [sample_text(cfg.u_star, u.grid) for u in (u_coarse, u_fine)]
    err_coarse, err_fine = (float(np.abs(u.values - star.values).max())
                            for u, star in zip((u_coarse, u_fine), stars))
    star_sup = stars[0].max_abs()

    if star_sup == 0.0:
        status = "info"
        order = None
        passed = err_coarse <= _ZERO_STAR_TOL and err_fine <= _ZERO_STAR_TOL
        detail = "u_star is identically zero; order check skipped"
    else:
        order = (math.log2(err_coarse / err_fine)
                 if err_coarse > 0.0 and err_fine > 0.0 else math.inf)
        passed = _ORDER_RANGE[0] <= order <= _ORDER_RANGE[1]
        status = "pass" if passed else "fail"
        detail = (f"order in [{_ORDER_RANGE[0]}, {_ORDER_RANGE[1]}] "
                  f"from N={n_coarse} to N={n_fine}")

    record = {"case": cfg.case, "n": cfg.n, "k": cfg.k,
              "N_coarse": n_coarse, "N_fine": n_fine, "u_star": cfg.u_star,
              "err_coarse": err_coarse, "err_fine": err_fine, "order": order,
              "newton_iters_coarse": sum(iters[:-1]),
              "newton_iters_fine": iters_fine,
              "grid_levels": tuple(levels), "newton_iters_levels": iters,
              "status": status, "detail": detail, "passed": passed}
    _write_text(os.path.join(out_dir, "report.txt"),
                "\n".join(record_lines(record, "verify")) + "\n")
    payload = {"command": "verify", **record, "order": (
        order if order is not None and math.isfinite(order) else None)}
    _write_text(os.path.join(out_dir, "report.json"),
                json.dumps(payload, indent=2, sort_keys=True) + "\n")
    dump_field(u_coarse, "u_coarse", os.path.join(out_dir, "u_coarse.field"))
    dump_field(u_fine, "u_fine", os.path.join(out_dir, "u_fine.field"))
    return 0 if passed else 1


# -- entry point -------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmak",
        description="Certified continuation solver for sigma_k curvature "
                    "equations on the periodic box.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("check", "run property suites and certificates"),
                            ("solve", "run the continuation solve"),
                            ("verify", "manufactured-solution convergence "
                                       "study")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="path to the key = value configuration file")
        p.add_argument("--out", default=".",
                       help="output directory (default: current directory)")
    return parser


_COMMANDS = {"check": run_check, "solve": run_solve, "verify": run_verify}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config_file(args.config)
        cfg.validate()
        os.makedirs(args.out, exist_ok=True)
        _write_text(os.path.join(args.out, "config.txt"), cfg.to_text())
        return _COMMANDS[args.command](cfg, args.out)
    except OSError as err:
        print(f"sigmak {args.command}: i/o error: {err}", file=sys.stderr)
        return 3
    except (ConfigError, ExprSyntaxError, ExprEvalError, DomainError) as err:
        print(f"sigmak {args.command}: invalid configuration: {err}",
              file=sys.stderr)
        return 2
    except (AdmissibilityError, LinearSolveError, ConeExitError,
            NonConvergenceError, PathFailureError) as err:
        print(f"sigmak {args.command}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
