"""The benchmark tracer's targets stay on the program's path.

bench/tracer.py wraps named functions where their callers look them up; a
refactor that renames one, or routes around it, would leave its span
measuring nothing. These tests only import bench/tracer.py; they change
nothing under bench/.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import canonical_problem
import sigmak.operators
from sigmak import RunConfig, ScalarField
from sigmak.cli import main
from sigmak.grid import random_smooth_field

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracer):
    for module_name, path, span in tracer.TARGETS:
        owner, attr, raw = tracer.resolve(module_name, path)
        assert getattr(owner, attr) is not None, (module_name, path, span)
        assert callable(raw) or isinstance(raw, classmethod), path


@pytest.mark.parametrize("case, tensors", [("A", 2), ("B", 2), ("C", 1)])
def test_prepare_state_runs_through_the_wrapped_layers(tracer, case, tensors):
    """One prepare_state call, looked up in sigmak.operators, opens the
    tensor spans (U then V, or W) and one recurrence span inside its own,
    and every original comes back afterwards."""
    spec = canonical_problem(case, n=4, k=3, N=8)
    u = random_smooth_field(spec.grid, np.random.default_rng(3),
                            amplitude=0.02)
    traced, left = tracer.Tracer(), []
    with traced.installed(left):
        sigmak.operators.prepare_state(u, 1.0, spec)
    assert left == []
    spans = traced.spans
    assert spans[0][0] == "operators.prepare_state" and spans[0][3] == -1
    inside = Counter(span[0] for span in spans if span[3] == 0)
    assert inside == Counter({"curvature.tensor": tensors,
                              "symfunc.recurrence": 1})
    assert len(spans) == 1 + tensors + 1
    # unwrapped again: a second call records nothing
    sigmak.operators.prepare_state(ScalarField.zeros(spec.grid), 1.0, spec)
    assert len(traced.spans) == len(spans)


@pytest.mark.parametrize("command, N, monitored", [("solve", 16, 7),
                                                   ("verify", 8, 6)])
def test_a_laddered_command_walks_one_traced_path(tracer, tmp_path, command,
                                                  N, monitored):
    """A laddered solve (the README config, levels 8 and 16) and a verify
    at N = 8 (levels 8 and 16) run through sigmak.cli.main open one
    solver.continue_path span: the coarse path's six correctors nest in it
    and the one refinement correction runs outside it, so steps_accepted
    reads 5. Only rows that are kept are monitored: the path's six, and
    for solve the t = 1 row rebuilt on N = 16."""
    conf = tmp_path / "run.config"
    conf.write_text(RunConfig(N=N).to_text(), encoding="utf-8")
    traced, left = tracer.Tracer(), []
    with traced.installed(left):
        rc = main([command, "--config", str(conf), "--out",
                   str(tmp_path / "out")])
    assert rc == 0 and left == []
    spans = traced.spans
    (path,) = [i for i, span in enumerate(spans)
               if span[0] == "solver.continue_path"]
    correctors = [span[3] for span in spans
                  if span[0] == "solver.newton_correct"]
    assert correctors == [path] * 6 + [-1]
    metrics = traced.metrics()
    assert metrics["solver.continuation.steps_accepted"] == 5
    assert metrics["solver.monitor.calls"] == monitored
