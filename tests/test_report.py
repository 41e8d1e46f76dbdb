"""Verification-report assembly: check selection, ceilings, serialization."""

import json

import numpy as np
import pytest

import sigmak.operators
import sigmak.report
import sigmak.solver
from sigmak import (
    ConfigError,
    ContinuationTrace,
    PathFailureError,
    ScalarField,
    continue_path,
    run_checks,
)
from sigmak.operators import prepare_state
from sigmak.report import BOUNDED_CHECKS, KNOWN_CHECKS
from sigmak.solver import Schedule

from helpers import canonical_problem


def rest_trace(spec):
    """One-row trace holding the exact t=0 solution u = 0, ended on it."""
    sd = prepare_state(ScalarField.zeros(spec.grid), 0.0, spec)
    trace = ContinuationTrace()
    trace.append(sd, 0, 0.0)
    trace.final_state = sd
    return trace


def test_default_checks_all_present_and_pass_at_rest():
    spec = canonical_problem("A", N=8)
    report = run_checks(rest_trace(spec), spec)
    assert [c.name for c in report.checks] == list(KNOWN_CHECKS)
    assert all(c.status == "pass" for c in report.checks)
    assert report.ok
    assert report.trace_steps == 1
    assert report.final_t == 0.0
    assert not report.reached_target


def test_reached_target_only_at_t_equal_one():
    spec = canonical_problem("A", N=8)
    trace = continue_path(spec)
    report = run_checks(trace, spec)
    assert report.reached_target
    assert report.final_t == 1.0
    assert report.ok and report.passed
    assert report.to_text().endswith("result: pass\n")
    assert json.loads(report.to_json_text())["result"] == "pass"


def test_check_subset_and_order_are_respected():
    spec = canonical_problem("A", N=8)
    names = ["cone_margin", "bounded_sup_u"]
    report = run_checks(rest_trace(spec), spec, names)
    assert [c.name for c in report.checks] == names


def test_unknown_check_rejected():
    spec = canonical_problem("A", N=8)
    with pytest.raises(ConfigError, match="unknown check"):
        run_checks(rest_trace(spec), spec, ["bounded_sup_u", "no_such_check"])
    # a known check that has no ceiling is not given one silently
    with pytest.raises(ConfigError, match="'cone_margin' takes no ceiling"):
        run_checks(rest_trace(spec), spec, {"cone_margin": 5.0})


def test_duplicate_check_rejected():
    spec = canonical_problem("A", N=8)
    with pytest.raises(ConfigError, match="listed twice"):
        run_checks(rest_trace(spec), spec, ["cone_margin", "cone_margin"])
    # nor is a ceiling that is not a number let through as ValueError
    for ceiling in ("high", [1.0]):
        with pytest.raises(ConfigError, match="is not a number"):
            run_checks(rest_trace(spec), spec, {"bounded_sup_u": ceiling})


def test_ceiling_override_can_fail_a_bounded_check():
    spec = canonical_problem("A", N=8)
    trace = rest_trace(spec)
    report = run_checks(trace, spec, {"bounded_sup_u": -1.0})
    (check,) = report.checks
    assert check.status == "fail"
    assert check.tolerance == -1.0
    assert not report.ok
    # The default ceiling passes the same trace.
    assert run_checks(trace, spec, ["bounded_sup_u"]).ok


def _pin_missing(checks, details):
    """Each of checks fails with value nan and the detail details gives its
    name, in details' order."""
    assert [c.name for c in checks] == list(details)
    for check in checks:
        assert check.status == "fail"
        assert np.isnan(check.value)
        assert check.detail == details[check.name]


def test_empty_trace_fails_every_check():
    """A check with nothing to read fails with value nan, and its tolerance
    is its ceiling (the default or the one given) for a bounded check and
    0.0 otherwise."""
    spec = canonical_problem("A", N=8)
    report = run_checks(ContinuationTrace(), spec)
    assert not report.reached_target
    assert np.isnan(report.final_t)
    _pin_missing(report.checks, dict.fromkeys(KNOWN_CHECKS, "empty trace"))
    assert [c.tolerance for c in report.checks] == [
        BOUNDED_CHECKS[name][1] if name in BOUNDED_CHECKS else 0.0
        for name in KNOWN_CHECKS]
    ceilings = {"bounded_sup_grad_u_sq": 7.5, "cone_margin": None}
    report = run_checks(ContinuationTrace(), spec, ceilings)
    _pin_missing(report.checks, dict.fromkeys(ceilings, "empty trace"))
    assert [c.tolerance for c in report.checks] == [7.5, 0.0]


def test_text_report_shape():
    spec = canonical_problem("A", N=8)
    report = run_checks(rest_trace(spec), spec)
    text = report.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("run: ")
    assert "trace.steps: 1" in lines
    assert "trace.reached_target: false" in lines
    # every check passes, but a t = 0 trace has not reached the target
    assert report.ok and not report.passed
    assert lines[-1] == "result: fail"
    assert sum(line.startswith("check.") for line in lines) == len(KNOWN_CHECKS)
    assert text.endswith("\n")


def test_json_report_round_trips_and_masks_non_finite():
    spec = canonical_problem("A", N=8)
    doc = json.loads(run_checks(ContinuationTrace(), spec).to_json_text())
    assert doc["result"] == "fail"
    assert doc["trace"]["final_t"] is None
    assert all(c["value"] is None for c in doc["checks"]
               if c["detail"] == "empty trace")

    good = json.loads(run_checks(rest_trace(spec), spec).to_json_text())
    assert all(c["status"] == "pass" for c in good["checks"])
    assert good["result"] == "fail"   # t = 0 is not the target
    assert good["trace"]["final_t"] == 0.0
    assert {c["name"] for c in good["checks"]} == set(KNOWN_CHECKS)


def test_reports_are_deterministic():
    spec = canonical_problem("A", N=8)
    first = run_checks(rest_trace(spec), spec)
    second = run_checks(rest_trace(spec), spec)
    assert first.to_text() == second.to_text()
    assert first.to_json_text() == second.to_json_text()
    assert first.run_id == second.run_id


def test_run_id_depends_on_configuration():
    spec = canonical_problem("A", N=8)
    trace = rest_trace(spec)
    base = run_checks(trace, spec).run_id
    assert run_checks(trace, spec, {"bounded_sup_u": 5.0}).run_id != base


def test_case_c_comparison_holds_at_schouten_rest():
    # With u = 0 the state tensor equals the comparison tensor pointwise,
    # so both quotient gaps vanish and the check passes.
    spec = canonical_problem("C", N=8)
    trace = ContinuationTrace()
    sd = prepare_state(ScalarField.zeros(spec.grid), 1.0, spec)
    trace.append(sd, 0, 0.0)
    # both audits read the state the trace was ended on, and fail without:
    # value nan, tolerance 0.0
    missing = run_checks(trace, spec, ["c0_comparison", "ellipticity"])
    _pin_missing(missing.checks, {"c0_comparison": "no final state",
                                  "ellipticity": "no certificate"})
    assert [c.tolerance for c in missing.checks] == [0.0, 0.0]
    trace.final_state = sd
    report = run_checks(trace, spec, ["c0_comparison"])
    (check,) = report.checks
    assert check.status == "pass"
    assert check.value == 0.0
    assert report.ok
    (check,) = run_checks(trace, spec, ["ellipticity"]).checks
    assert check.status == "pass"
    assert check.value == trace.ellipticity.newton_min_eig


def test_audits_share_the_final_state_data(monkeypatch):
    """run_checks builds no state: a path that reached t = 1 keeps the
    corrector's final StateData, and a failed path the StateData of its
    last accepted state, built once as the path fails; the ellipticity and
    C0 audits both read that one StateData, trace.final_state."""
    built, audited = [], []
    for module in (sigmak.solver, sigmak.operators):
        real = module.prepare_state
        monkeypatch.setattr(module, "prepare_state", lambda *args, _r=real:
                            built.append(args) or _r(*args))
    for module, name in ((sigmak.solver, "ellipticity_certificate"),
                         (sigmak.report, "c0_diagnostic")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda sd, _r=real:
                            audited.append(sd) or _r(sd))
    spec = canonical_problem("A", N=8)
    reached = continue_path(spec)
    with pytest.raises(PathFailureError) as exc:
        continue_path(spec, Schedule(dt_init=0.5, dt_max=0.5, dt_min=0.5,
                                     newton_max_iters=1))
    failed = exc.value.trace
    # the failed path's last act is to build its final state, at t = 0
    assert built[-1][0] is failed.final_state.u and built[-1][1] == 0.0
    for trace, t in ((reached, 1.0), (failed, 0.0)):
        built.clear()
        audited.clear()
        report = run_checks(trace, spec)
        assert len(built) == 0
        assert [check.status for check in report.checks] == ["pass"] * 6
        assert len(audited) == 2
        assert audited[0] is audited[1] is trace.final_state
        assert trace.final_state.t == t
        # a second report reads the kept state and audits it again
        run_checks(trace, spec)
        assert len(built) == 0 and len(audited) == 4
        assert audited[2] is audited[3] is trace.final_state


def test_given_validation_is_echoed_instead_of_recomputed():
    """run_checks echoes the ValidationReport it is handed; without one it
    validates the spec itself, to the same lines."""
    spec = canonical_problem("A", N=8)
    trace = rest_trace(spec)
    validation = spec.validate(strict=False)
    assert run_checks(trace, spec, validation=validation).to_text() == \
        run_checks(trace, spec).to_text()
    marked = type(validation)(**{**vars(validation),
                                 "problems": ("marker",)})
    report = run_checks(trace, spec, validation=marked)
    assert report.spec_lines == marked.to_lines()
    assert "problem: marker" in report.to_text()
