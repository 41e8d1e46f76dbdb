"""Aggregates path monitors and diagnostics into verification reports.

A report answers, for one completed (possibly failed) continuation trace:
did the quantities the a priori estimates control stay bounded, did the
states stay in the cone, is the final state elliptic, and does the discrete
maximum-principle comparison hold there. Each configured check lands in the
report exactly once with a pass/fail/info status, a measured value, and the
tolerance it was held against. Reports carry no timestamps; identical runs
serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .curvature import ProblemSpec, ValidationReport
from .errors import ConfigError
from .operators import c0_diagnostic
from .solver import ContinuationTrace

BOUNDED_CHECKS = {
    "bounded_sup_u": ("sup_u", 10.0),
    "bounded_sup_grad_u_sq": ("sup_grad_u_sq", 100.0),
    "bounded_sup_hess_u": ("sup_hess_u", 100.0),
}


def _bounded(attr: str):
    def check(rows, limit):
        value = max(getattr(row, attr) for row in rows)
        return value <= limit, value, limit, ""
    return check


def _cone_margin(rows, limit):
    value = min(row.cone_margin for row in rows)
    return value > limit, value, limit, ""


def _ellipticity(cert, limit):
    return (cert.passed, cert.quotient_min_eig, limit,
            f"quotient_trace_min={cert.quotient_trace_min!r} "
            f"trace_bound={cert.trace_bound!r}")


def _c0_comparison(sd, limit):
    rep = c0_diagnostic(sd)
    return (rep.within_slack, min(rep.gap_at_max, rep.gap_at_min),
            -rep.slack_delta,
            f"gap_at_max={rep.gap_at_max!r} gap_at_min={rep.gap_at_min!r}")


# name -> (the trace attribute the check reads, its detail when a trace
# with rows has nothing there, and the check: (what it read, the ceiling of
# a bounded check or 0.0) -> (passed, value, tolerance, detail))
_CHECKS = {
    **{name: ("rows", "empty trace", _bounded(attr))
       for name, (attr, _) in BOUNDED_CHECKS.items()},
    "cone_margin": ("rows", "empty trace", _cone_margin),
    "ellipticity": ("ellipticity", "no certificate", _ellipticity),
    "c0_comparison": ("final_state", "no final state", _c0_comparison),
}

KNOWN_CHECKS = tuple(_CHECKS)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str        # pass | fail | info
    value: float
    tolerance: float
    detail: str = ""

    def to_line(self) -> str:
        line = (f"check.{self.name}: {self.status} value={self.value!r} "
                f"tolerance={self.tolerance!r}")
        if self.detail:
            line += f" [{self.detail}]"
        return line


@dataclass
class VerificationReport:
    run_id: str
    spec_lines: list      # echo of the validated problem description
    trace_steps: int
    final_t: float
    reached_target: bool
    checks: list

    @property
    def ok(self) -> bool:
        """No check failed."""
        return all(c.status != "fail" for c in self.checks)

    @property
    def passed(self) -> bool:
        """The report's result: the target reached and no check failed."""
        return self.reached_target and self.ok

    def to_text(self) -> str:
        lines = [f"run: {self.run_id}"]
        lines.extend(self.spec_lines)
        lines.append(f"trace.steps: {self.trace_steps}")
        lines.append(f"trace.final_t: {self.final_t!r}")
        lines.append(f"trace.reached_target: "
                     f"{'true' if self.reached_target else 'false'}")
        lines.extend(c.to_line() for c in self.checks)
        lines.append(f"result: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        def num(x):
            x = float(x)
            return x if np.isfinite(x) else None

        doc = {
            "run_id": self.run_id,
            "spec": list(self.spec_lines),
            "trace": {
                "steps": self.trace_steps,
                "final_t": num(self.final_t),
                "reached_target": self.reached_target,
            },
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "value": num(c.value),
                    "tolerance": num(c.tolerance),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "result": "pass" if self.passed else "fail",
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _normalize_checks(checks) -> tuple:
    """Accept None (all defaults), a sequence of names, or a mapping
    name -> ceiling override; return ((name, ceiling-or-None), ...). A
    ceiling is a number, and only the bounded-* checks take one."""
    if checks is None:
        items = [(name, None) for name in KNOWN_CHECKS]
    elif isinstance(checks, dict):
        items = list(checks.items())
    else:
        items = [(name, None) for name in checks]
    seen = set()
    out = []
    for name, ceiling in items:
        if name not in KNOWN_CHECKS:
            raise ConfigError(f"unknown check '{name}'; known: "
                              f"{', '.join(KNOWN_CHECKS)}")
        if name in seen:
            raise ConfigError(f"check '{name}' listed twice")
        seen.add(name)
        if ceiling is not None:
            if name not in BOUNDED_CHECKS:
                raise ConfigError(f"check '{name}' takes no ceiling")
            try:
                ceiling = float(ceiling)
            except (TypeError, ValueError) as err:
                raise ConfigError(f"check '{name}': ceiling {ceiling!r} is "
                                  f"not a number") from err
        out.append((name, ceiling))
    return tuple(out)


def _run_id(spec: ProblemSpec, trace: ContinuationTrace, items: tuple) -> str:
    digest = hashlib.sha256()
    digest.update(f"{spec.case}|{spec.n}|{spec.k}|{spec.grid.N}|"
                  f"{spec.alpha_src}|{spec.f_src}".encode())
    digest.update(trace.to_csv().encode())
    for name, ceiling in items:
        digest.update(f"{name}={ceiling}".encode())
    return digest.hexdigest()[:12]


def run_checks(trace: ContinuationTrace, spec: ProblemSpec, checks=None,
               validation: ValidationReport | None = None
               ) -> VerificationReport:
    """Evaluate the configured checks against a trace, each through its
    entry of one table (_CHECKS), which reads the trace's ellipticity audit
    at most once.

    checks may be None (all known checks at default ceilings), a sequence of
    names, or a mapping of names to ceiling overrides for the bounded-*
    family. Unknown or duplicated names, and a ceiling that is not a number
    or is given to a check without one, raise ConfigError. validation is
    spec's ValidationReport, echoed into the report; it is computed here
    when not given. Inputs are not mutated; rerunning yields an identical
    report.
    """
    if validation is None:
        validation = spec.validate(strict=False)
    items = _normalize_checks(checks)
    rows = trace.rows
    results = []
    for name, ceiling in items:
        attr, missing, check = _CHECKS[name]
        limit = ceiling if ceiling is not None \
            else BOUNDED_CHECKS.get(name, (None, 0.0))[1]
        source = getattr(trace, attr)
        if source:
            passed, value, tolerance, detail = check(source, limit)
            results.append(CheckResult(name, "pass" if passed else "fail",
                                       value, tolerance, detail))
        else:
            results.append(CheckResult(name, "fail", float("nan"), limit,
                                       missing if rows else "empty trace"))
    final_t = trace.final_t
    return VerificationReport(
        run_id=_run_id(spec, trace, items),
        spec_lines=validation.to_lines(),
        trace_steps=len(rows),
        final_t=final_t,
        reached_target=bool(rows and final_t == 1.0),
        checks=results)
