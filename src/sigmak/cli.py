"""Command line driver: `sigmak check|solve|verify --config <path> [--out <dir>]`.

check   runs the symmetric-function property suites and the ellipticity and
        concavity certificates for the configured problem, writing
        certificates.txt; exit 0 iff every suite and certificate passes.
solve   runs the continuation path (cases A and B) or the direct Newton
        solve (case C), writing trace.csv, the final field dump, report.txt
        and report.json; exit 0 on reaching the target with all configured
        checks green, exit 1 on a reported failure. A failed case C solve
        writes a header-only trace.csv and a report that fails on it.
verify  manufactures the forcing for the configured u_star, solves at N and
        2N, and reports the observed convergence order; exit 0 iff the order
        lies in [1.6, 2.4] (or u_star is identically zero and both errors
        stay below 1e-10).

Every command first echoes the effective configuration to config.txt in the
output directory, once it has validated, so a run that fails later still
leaves it; the echo re-parses to an identical RunConfig. The case C solve
and the verify solves take their Newton settings from the configured
schedule (solver.*), like the continuation path. Exit codes: 0 ok,
1 run failure, 2 invalid configuration (including a grid over the memory
budget, found before any work; verify also checks its 2N grid), 3 I/O
error. Output files carry no timestamps, and all sampling flows from the
single config seed, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .config import RunConfig, parse_config_file
from .curvature import ProblemSpec, ValidationReport, record_lines
from .errors import (AdmissibilityError, ConeExitError, ConfigError,
                     DomainError, ExprEvalError, ExprSyntaxError,
                     LinearSolveError, NonConvergenceError, PathFailureError)
from .grid import Grid, ScalarField, dump_field, sample_text
from .operators import (concavity_certificate, ellipticity_certificate,
                        manufactured_forcing, prepare_state)
from .report import run_checks
from .solver import (ContinuationTrace, continue_path, solve_caseC,
                     trace_for_state)
from .symfunc import (newton_maclaurin_gap, quotient_ratio_gap, sample_gamma,
                      sigma_all_batch, sigma_and_dsigma_batch,
                      sigma_matrix_planes)

_GAP_SLACK = 1e-10
_REL_TOL = 1e-10
_ORDER_RANGE = (1.6, 2.4)
_ZERO_STAR_TOL = 1e-10


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        fp.write(text)


# -- check -----------------------------------------------------------------

def _suite_recurrence(cfg: RunConfig, rng: np.random.Generator) -> tuple:
    """Trace recurrence on conjugated matrices against the eigenvalue route."""
    n = cfg.n
    count = cfg.check_samples
    lams = rng.uniform(-3.0, 3.0, size=(count, n))
    raw = rng.standard_normal(size=(count, n, n))
    q, _ = np.linalg.qr(raw)
    mats = np.einsum("bij,bj,bkj->bik", q, lams, q)
    mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    planes = np.ascontiguousarray(np.moveaxis(mats, (-2, -1), (0, 1)))
    via_traces = np.moveaxis(sigma_matrix_planes(planes, n), 0, -1)
    via_eigs = sigma_all_batch(lams, n)
    scale = np.maximum(1.0, np.maximum(np.abs(via_traces), np.abs(via_eigs)))
    max_rel = float((np.abs(via_traces - via_eigs) / scale).max())
    ok = max_rel <= _REL_TOL
    return record_lines({"samples": count, "max_rel_err": max_rel,
                         "passed": ok}, "suite.recurrence"), ok


def _suite_newton_maclaurin(cfg: RunConfig, rng: np.random.Generator) -> tuple:
    n, k = cfg.n, cfg.k
    spectra = sample_gamma(n, k, cfg.check_samples, rng)
    gaps = np.stack([newton_maclaurin_gap(spectra, k, l) for l in range(1, k)])
    min_gap = float(gaps.min())
    violations = int((gaps < -_GAP_SLACK).sum())
    ok = violations == 0
    return record_lines({"samples": len(spectra), "min_gap": min_gap,
                         "violations": violations, "passed": ok},
                        "suite.newton_maclaurin"), ok


def _suite_ratio_monotonicity(cfg: RunConfig, rng: np.random.Generator) -> tuple:
    n, k = cfg.n, cfg.k
    spectra = sample_gamma(n, k, cfg.check_samples, rng)
    gaps = quotient_ratio_gap(spectra, k, 0, k - 1, 0)
    min_gap = float(gaps.min())
    violations = int((gaps < -_GAP_SLACK).sum())
    ok = violations == 0
    return record_lines({"samples": len(spectra), "min_gap": min_gap,
                         "violations": violations, "passed": ok},
                        "suite.ratio_monotonicity"), ok


def _suite_euler_identity(cfg: RunConfig, rng: np.random.Generator) -> tuple:
    """tr(dsigma_k(M) M) = k sigma_k(M) for arbitrary symmetric M."""
    n, k = cfg.n, cfg.k
    count = cfg.check_samples
    raw = rng.standard_normal(size=(count, n, n))
    mats = np.moveaxis(0.5 * (raw + np.swapaxes(raw, -1, -2)), 0, -1)
    sig, dk, _ = sigma_and_dsigma_batch(mats, k)
    lhs = np.einsum("ij...,ji...->...", dk, mats)
    rhs = k * sig[k]
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    max_rel = float((np.abs(lhs - rhs) / scale).max())
    ok = max_rel <= _REL_TOL
    return record_lines({"samples": count, "max_rel_err": max_rel,
                         "passed": ok}, "suite.euler_identity"), ok


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
    t_values = (1.0,) if cfg.case == "C" else (0.0, 1.0)
    for t in t_values:
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

def _write_solve_outputs(cfg: RunConfig, spec: ProblemSpec,
                         validation: ValidationReport,
                         trace: ContinuationTrace, out_dir: str) -> bool:
    _write_text(os.path.join(out_dir, "trace.csv"), trace.to_csv())
    if trace.final_state is not None:
        dump_field(trace.final_state.u, "u",
                   os.path.join(out_dir, "u_final.field"))
    report = run_checks(trace, spec, cfg.checks_mapping(), validation)
    _write_text(os.path.join(out_dir, "report.txt"), report.to_text())
    _write_text(os.path.join(out_dir, "report.json"), report.to_json_text())
    return report.reached_target and report.ok


def run_solve(cfg: RunConfig, out_dir: str) -> int:
    spec = cfg.problem()
    validation = spec.validate(strict=True)
    try:
        if cfg.case == "C":
            state, sd = solve_caseC(spec, schedule=cfg.schedule())
            trace = trace_for_state(state, sd)
            del sd   # free the state's arrays before the outputs are written
        else:
            trace = continue_path(spec, cfg.schedule())
    except (PathFailureError, ConeExitError, NonConvergenceError,
            LinearSolveError) as err:
        # A failed path still reports its accepted prefix; the direct case C
        # solve has none, so it reports an empty trace.
        failed = err.trace if isinstance(err, PathFailureError) \
            else ContinuationTrace()
        _write_solve_outputs(cfg, spec, validation, failed, out_dir)
        print(f"sigmak solve: {err}", file=sys.stderr)
        return 1
    ok = _write_solve_outputs(cfg, spec, validation, trace, out_dir)
    return 0 if ok else 1


# -- verify ------------------------------------------------------------------

def _solve_manufactured(cfg: RunConfig, grid: Grid) -> tuple:
    """Solve on one grid with forcing manufactured from u_star; returns
    (sup error against u_star, sup |u_star|)."""
    base = cfg.problem(grid)
    star = sample_text(cfg.u_star, grid)
    star_sup = star.max_abs()
    if cfg.case == "B":
        raise DomainError("case B has no forcing to manufacture; "
                          "verify supports cases A and C")
    f_field = manufactured_forcing(star, 1.0, base)
    spec = base.with_f_field(f_field)
    spec.validate(strict=True)
    if cfg.case == "C":
        state, _ = solve_caseC(spec, schedule=cfg.schedule())
    else:
        trace = continue_path(spec, cfg.schedule())
        state = trace.final_state
    err = float(np.abs(state.u.values - star.values).max())
    return err, star_sup, state.u


def run_verify(cfg: RunConfig, out_dir: str) -> int:
    n_coarse, n_fine = cfg.N, 2 * cfg.N
    cfg.check_memory(n_fine)
    err_coarse, star_sup, u_coarse = _solve_manufactured(cfg, Grid(cfg.n, n_coarse))
    err_fine, _, u_fine = _solve_manufactured(cfg, Grid(cfg.n, n_fine))

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
