"""Spans and counts around sigmak's layers, recorded from outside the program.

Each target is a public function wrapped where the caller looks it up: a
module imported by name (`from .operators import prepare_state`) keeps its
own reference, so `sigmak.solver.prepare_state` and
`sigmak.operators.prepare_state` are wrapped separately and feed one span
name. Methods are wrapped on their
class. `Tracer.installed()` restores every original on exit and reports any
that did not come back.

The line search has no function of its own. Its span opens when
`solve_linear` returns inside `newton_correct` and closes when the next
Newton iteration starts (`linearize`) or `newton_correct` exits; the
exception that ends `newton_correct`, if any, is recorded on it. A step is
accepted unless that exception is the corrector's ConeExitError (no
admissible decreasing step). Every candidate calls `prepare_state`; only
candidates inside the cone go on to `residual`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute path, span name)
TARGETS = (
    ("sigmak.operators", "LinearOperator.matvec", "operators.matvec"),
    ("sigmak.operators", "LinearOperator.as_csr", "solver.krylov.dense"),
    ("sigmak.solver", "bicgstab", "solver.krylov.bicgstab"),
    ("sigmak.solver", "gmres", "solver.krylov.gmres"),
    ("sigmak.solver", "solve_linear", "solver.solve_linear"),
    ("sigmak.solver", "prepare_state", "operators.prepare_state"),
    ("sigmak.operators", "prepare_state", "operators.prepare_state"),
    ("sigmak.operators", "build_u_tensor", "curvature.tensor"),
    ("sigmak.operators", "build_v_tensor", "curvature.tensor"),
    ("sigmak.operators", "build_w_tensor", "curvature.tensor"),
    ("sigmak.operators", "sigma_and_dsigma_batch", "symfunc.recurrence"),
    ("sigmak.solver", "residual", "operators.residual"),
    ("sigmak.solver", "linearize", "operators.linearize"),
    ("sigmak.solver", "newton_correct", "solver.newton_correct"),
    ("sigmak.cli", "continue_path", "solver.continue_path"),
    ("sigmak.cli", "solve_caseC", "solver.solve_caseC"),
    ("sigmak.solver", "monitor", "solver.monitor"),
    ("sigmak.solver", "ellipticity_certificate",
     "operators.ellipticity_certificate"),
    ("sigmak.cli", "ellipticity_certificate",
     "operators.ellipticity_certificate"),
    ("sigmak.cli", "concavity_certificate", "operators.concavity_certificate"),
    ("sigmak.cli", "manufactured_forcing", "operators.manufactured_forcing"),
    ("sigmak.cli", "run_checks", "report.run_checks"),
    ("sigmak.cli", "newton_maclaurin_gap", "symfunc.scalar"),
    ("sigmak.cli", "quotient_ratio_gap", "symfunc.scalar"),
    ("sigmak.cli", "sample_gamma", "symfunc.scalar"),
    ("sigmak.config", "RunConfig.problem", "config.problem"),
    ("sigmak.curvature", "ProblemSpec.build", "config.problem"),
    ("sigmak.cli", "dump_field", "grid.dump_field"),
)

LINESEARCH = "solver.linesearch"
KRYLOV = ("solver.krylov.bicgstab", "solver.krylov.gmres")

# Per-layer metrics: name -> (unit, better). The same set is reported for
# every workload, zeros included, so a layer that stops running shows.
METRICS = {
    "operators.matvec.calls": ("count", "lower"),
    "operators.matvec.s": ("s", "lower"),
    "operators.matvec.us_per_call": ("us", "lower"),
    "solver.solve_linear.calls": ("count", "lower"),
    "solver.solve_linear.s": ("s", "lower"),
    "solver.solve_linear.matvecs_per_solve": ("matvec/solve", "lower"),
    "solver.krylov.bicgstab_calls": ("count", "lower"),
    "solver.krylov.gmres_calls": ("count", "lower"),
    "solver.krylov.dense_calls": ("count", "lower"),
    "solver.krylov.breakdowns": ("count", "lower"),
    "operators.prepare_state.calls": ("count", "lower"),
    "operators.prepare_state.s": ("s", "lower"),
    "curvature.tensor.s": ("s", "lower"),
    "symfunc.recurrence.s": ("s", "lower"),
    "operators.residual.s": ("s", "lower"),
    "operators.linearize.calls": ("count", "lower"),
    "operators.linearize.s": ("s", "lower"),
    "solver.newton.iters": ("count", "lower"),
    "solver.newton_correct.calls": ("count", "lower"),
    "solver.newton_correct.self_s": ("s", "lower"),
    "solver.linesearch.trials": ("count", "lower"),
    "solver.linesearch.cone_rejects": ("count", "lower"),
    "solver.linesearch.armijo_rejects": ("count", "lower"),
    "solver.linesearch.accept_ratio": ("ratio", "higher"),
    "solver.linesearch.s": ("s", "lower"),
    "solver.continuation.steps_accepted": ("count", "lower"),
    "solver.continuation.steps_rejected": ("count", "lower"),
    "solver.monitor.calls": ("count", "lower"),
    "solver.monitor.s": ("s", "lower"),
    "operators.ellipticity_certificate.s": ("s", "lower"),
    "report.run_checks.s": ("s", "lower"),
    "operators.manufactured_forcing.s": ("s", "lower"),
    "symfunc.scalar.calls": ("count", "lower"),
    "symfunc.scalar.s": ("s", "lower"),
    "operators.concavity_certificate.s": ("s", "lower"),
    "config.problem.s": ("s", "lower"),
    "grid.dump_field.s": ("s", "lower"),
    "io.bytes_written": ("B", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

COUNT_METRICS = tuple(name for name, (unit, _) in METRICS.items()
                      if unit in ("count", "B", "matvec/solve", "ratio"))


def resolve(module_name: str, path: str):
    """(owner, attribute, current raw value) for one target; on a class the
    raw value is the descriptor itself (a classmethod stays one)."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    return owner, attr, raw


def _krylov_outcome(result):
    info = result[1]
    return None if info == 0 else f"info={info}"


class Tracer:
    """Spans kept in memory as [name, start, end, parent, error]; parent is
    the index of the enclosing span or -1. Recording a span costs two clock
    reads and two list operations; everything else is derived afterwards."""

    def __init__(self):
        self.spans = []
        self._stack = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        stack = self._stack
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           stack[-1] if stack else -1, None])
        stack.append(idx)
        return idx

    def close(self, idx: int, error=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = error
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")

    def _top(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _close_linesearch(self, error=None) -> None:
        if self._top() == LINESEARCH:
            self.close(self._stack[-1], error)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name: str):
        open_, close = self.open, self.close
        starts_iteration = name == "operators.linearize"
        corrector = name == "solver.newton_correct"
        linear = name == "solver.solve_linear"
        krylov = name in KRYLOV

        if not (starts_iteration or corrector or linear or krylov):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = open_(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as err:
                    close(idx, type(err).__name__)
                    raise
                close(idx)
                return result

            return traced

        @functools.wraps(fn)
        def traced_step(*args, **kwargs):
            if starts_iteration:
                self._close_linesearch()
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                if corrector:
                    self._close_linesearch(type(err).__name__)
                close(idx, type(err).__name__)
                raise
            if corrector:
                self._close_linesearch()
            close(idx, _krylov_outcome(result) if krylov else None)
            if linear and self._top() == "solver.newton_correct":
                open_(LINESEARCH)
            return result

        return traced_step

    @contextlib.contextmanager
    def installed(self, left_wrapped: list):
        """Wrap every target for the duration of the block. On exit every
        original is put back; `left_wrapped` receives the names of targets
        that did not come back (an empty list is the expected outcome)."""
        patches = []
        try:
            for module_name, path, span in TARGETS:
                owner, attr, raw = resolve(module_name, path)
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, span))
                else:
                    patched = self._wrap(raw, span)
                setattr(owner, attr, patched)
                patches.append((module_name, path, raw))
            yield self
        finally:
            for module_name, path, raw in reversed(patches):
                owner, attr, _ = resolve(module_name, path)
                setattr(owner, attr, raw)
            for module_name, path, raw in patches:
                if resolve(module_name, path)[2] is not raw:
                    left_wrapped.append(f"{module_name}.{path}")

    # -- metrics -------------------------------------------------------

    def metrics(self) -> dict:
        """Every METRICS entry except io.bytes_written and the trace.*
        pair, which the runner measures around the traced pass. A name's
        time is the sum over its outermost spans (config.problem nests)."""
        spans = self.spans
        calls = Counter()
        busy = defaultdict(float)
        covered = defaultdict(float)   # span index -> its children's time
        children = defaultdict(Counter)   # parent name -> child name counts
        for name, start, end, parent, error in spans:
            calls[name] += 1
            if parent >= 0:
                covered[parent] += end - start
                children[spans[parent][0]][name] += 1
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                busy[name] += end - start
        accepted = path_ok = path_failed = breakdowns = 0
        self_s = 0.0
        for idx, (name, start, end, parent, error) in enumerate(spans):
            if name == "solver.newton_correct":
                self_s += (end - start) - covered[idx]
                if parent >= 0 and spans[parent][0] == "solver.continue_path":
                    if error is None:
                        path_ok += 1
                    else:
                        path_failed += 1
            elif name == LINESEARCH and error in (None,
                                                  "NonConvergenceError"):
                accepted += 1
            elif name in KRYLOV and error is not None:
                breakdowns += 1
        trials = children[LINESEARCH]["operators.prepare_state"]
        evaluated = children[LINESEARCH]["operators.residual"]
        matvecs = calls["operators.matvec"]
        solves = calls["solver.solve_linear"]
        return {
            "operators.matvec.calls": matvecs,
            "operators.matvec.s": busy["operators.matvec"],
            "operators.matvec.us_per_call":
                1e6 * busy["operators.matvec"] / matvecs if matvecs else 0.0,
            "solver.solve_linear.calls": solves,
            "solver.solve_linear.s": busy["solver.solve_linear"],
            "solver.solve_linear.matvecs_per_solve":
                matvecs / solves if solves else 0.0,
            "solver.krylov.bicgstab_calls": calls["solver.krylov.bicgstab"],
            "solver.krylov.gmres_calls": calls["solver.krylov.gmres"],
            "solver.krylov.dense_calls": calls["solver.krylov.dense"],
            "solver.krylov.breakdowns": breakdowns,
            "operators.prepare_state.calls": calls["operators.prepare_state"],
            "operators.prepare_state.s": busy["operators.prepare_state"],
            "curvature.tensor.s": busy["curvature.tensor"],
            "symfunc.recurrence.s": busy["symfunc.recurrence"],
            "operators.residual.s": busy["operators.residual"],
            "operators.linearize.calls": calls["operators.linearize"],
            "operators.linearize.s": busy["operators.linearize"],
            "solver.newton.iters":
                children["solver.newton_correct"]["operators.linearize"],
            "solver.newton_correct.calls": calls["solver.newton_correct"],
            "solver.newton_correct.self_s": self_s,
            "solver.linesearch.trials": trials,
            "solver.linesearch.cone_rejects": trials - evaluated,
            "solver.linesearch.armijo_rejects": evaluated - accepted,
            "solver.linesearch.accept_ratio":
                accepted / trials if trials else 0.0,
            "solver.linesearch.s": busy[LINESEARCH],
            # the first corrector of each path is the t = 0 anchor, not a step
            "solver.continuation.steps_accepted":
                path_ok - calls["solver.continue_path"],
            "solver.continuation.steps_rejected": path_failed,
            "solver.monitor.calls": calls["solver.monitor"],
            "solver.monitor.s": busy["solver.monitor"],
            "operators.ellipticity_certificate.s":
                busy["operators.ellipticity_certificate"],
            "report.run_checks.s": busy["report.run_checks"],
            "operators.manufactured_forcing.s":
                busy["operators.manufactured_forcing"],
            "symfunc.scalar.calls": calls["symfunc.scalar"],
            "symfunc.scalar.s": busy["symfunc.scalar"],
            "operators.concavity_certificate.s":
                busy["operators.concavity_certificate"],
            "config.problem.s": busy["config.problem"],
            "grid.dump_field.s": busy["grid.dump_field"],
        }

    def dump(self) -> dict:
        """The spans in a compact form: a name table and one
        [name index, start, end, parent, error] row per span, times in
        seconds from the first span's start."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[name], start - t0, end - t0, parent, error]
                for name, start, end, parent, error in self.spans]
        return {"fields": ["name", "start_s", "end_s", "parent", "error"],
                "names": names, "spans": rows}
