#!/usr/bin/env python3
"""sigmak benchmark: end-to-end times, set-up time and peak memory per
workload, or (with --trace 1) the per-layer split from a traced run.

One run of one workload, as BENCHMARK.json's command is run:

    python3 bench/run.py --workload verify-A3 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Every command's outputs are
checked against the oracles in oracles.py; a wrong answer makes `correct`
false and the exit code 1. A command that exits non-zero or raises counts
in `failed` and is a wrong answer too.

Steadiness mode runs each named workload `--repeat` times in fresh processes
(seeds --seed, --seed+1, ...) and prints the median, quartiles and spread of
every metric:

    python3 bench/run.py --workload all --repeat 10 --seconds 30

The program is imported from `src/` next to this directory; nothing is
installed. BLAS and OpenMP are pinned to one thread before numpy loads, here
and in every process the benchmark starts.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is sampled this many times after every timed pass, each time in a
# fresh interpreter, so that its samples spread over the whole run as the
# passes do; the median is reported.
SETUP_PER_PASS = 2
# Fewest timed passes per run, whatever --seconds says.
MIN_PASSES = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sigmak.cli
from sigmak.config import parse_config_file
cfg = parse_config_file(sys.argv[2])
cfg.validate()
cfg.problem()
print(repr(time.perf_counter() - t0))
"""


def _import_program():
    """Import sigmak from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "sigmak" / "__init__.py").is_file():
        sys.exit(f"bench: no sigmak sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sigmak.cli
    if Path(sigmak.cli.__file__).resolve().parent != SRC / "sigmak":
        sys.exit(f"bench: imported sigmak from {sigmak.cli.__file__}, "
                 f"not from {SRC}")
    return sigmak.cli


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/status", encoding="ascii") as fp:
            for line in fp:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "process_threads": threads,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """Runs passes of one workload in this process. A pass is the
    workload's commands in order, each through sigmak.cli.main, writing
    into a fresh directory; its outputs are checked after the clock stops."""

    def __init__(self, cli, workload, seed: int):
        self.cli = cli
        self.workload = workload
        self.values = workload.values()
        self.dir = OUT / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "run.config"
        self.config.write_text(workload.config_text(seed), encoding="utf-8")
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def one_pass(self, tracer=None):
        """Run one pass; returns (seconds, bytes written)."""
        pass_dir = self.dir / f"pass{self.passes}"
        self.passes += 1
        outs = {cmd: str(pass_dir / cmd) for cmd in self.workload.commands}
        codes = {}
        gc.collect()
        start = time.perf_counter()
        for cmd, out in outs.items():
            span = tracer.open(f"cli.{cmd}") if tracer else None
            try:
                codes[cmd] = self.cli.main([cmd, "--config", str(self.config),
                                            "--out", out])
            except Exception:   # a crash is one failed command, not the end
                traceback.print_exc()
                codes[cmd] = -1
            if tracer:
                tracer.close(span, None if codes[cmd] == 0
                             else f"exit {codes[cmd]}")
        seconds = time.perf_counter() - start
        self.attempted += len(codes)
        self.failed += sum(code != 0 for code in codes.values())
        self.problems += [f"sigmak {cmd} exited {code}"
                          for cmd, code in codes.items() if code != 0]
        if all(code == 0 for code in codes.values()):
            try:
                self.problems += self.workload.oracle(self.values, outs)
            except (OSError, ValueError, KeyError) as err:
                self.problems.append(f"unreadable output: {err!r}")
        written = _bytes_under(pass_dir)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return seconds, written


def _setup_seconds(config: Path) -> float:
    """Import sigmak.cli, parse and validate the config and build the
    problem, timed inside a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def _timed_loop(seconds: float, least: int, one):
    """Call one() until `seconds` have passed, stopping early rather than
    start a call the last one's duration says would overrun; at least
    `least` calls whatever the clock says."""
    start = time.perf_counter()
    last = 0.0
    count = 0
    while count < least or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        one()
        last = time.perf_counter() - t0
        count += 1


def measure(runner: Runner, seconds: float) -> dict:
    runner.one_pass()   # warm-up; the process is fresh, so it sets the peak
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls, setup = [], []

    def one():
        walls.append(runner.one_pass()[0])
        setup.extend(_setup_seconds(runner.config)
                     for _ in range(SETUP_PER_PASS))

    _timed_loop(seconds, MIN_PASSES, one)
    runner.samples = {"wall_s": walls, "setup_s": setup}
    print(f"{runner.workload.name}: {len(walls)} timed passes "
          f"{[round(w, 4) for w in walls]}, {len(setup)} set-up samples "
          f"{[round(s, 4) for s in setup]}")
    return {"wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_mb}


def measure_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes; counts must agree between the
    traced passes, times are their medians, and the overhead is the traced
    median wall time minus the untraced one."""
    from tracer import COUNT_METRICS, Tracer

    runner.one_pass()   # warm-up
    plain, traced, layers = [], [], []
    tracer = None

    def pair():
        nonlocal tracer
        plain.append(runner.one_pass()[0])
        tracer = Tracer()
        left_wrapped = []
        with tracer.installed(left_wrapped):
            wall, written = runner.one_pass(tracer)
        if left_wrapped:
            runner.problems.append(f"not restored: {left_wrapped}")
        traced.append(wall)
        layers.append(dict(tracer.metrics(), **{"io.bytes_written": written}))

    _timed_loop(seconds, MIN_TRACED, pair)
    runner.samples = {"wall_s": plain, "trace.wall_s": traced}
    for name in COUNT_METRICS:
        seen = {run[name] for run in layers if name in run}
        if len(seen) > 1:
            runner.problems.append(f"{name} differs between traced passes: "
                                   f"{sorted(seen)}")
    out = {}
    for name in layers[0]:
        values = [run[name] for run in layers]
        out[name] = values[0] if name in COUNT_METRICS \
            else statistics.median(values)
    out["trace.wall_s"] = statistics.median(traced)
    out["trace.overhead_s"] = statistics.median(traced) - \
        statistics.median(plain)
    spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    print(f"{runner.workload.name}: untraced passes "
          f"{[round(w, 4) for w in plain]}, traced "
          f"{[round(w, 4) for w in traced]};"
          f" spans of the last in {spans_path.relative_to(ROOT)}")
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    cli = _import_program()
    from tracer import METRICS
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    runner = Runner(cli, workload, seed)
    try:
        if trace:
            values = measure_traced(runner, seconds,
                                    results / f"{stem}.spans.json")
            units = METRICS
        else:
            values = measure(runner, seconds)
            units = END_TO_END
    finally:
        runner.close()
    env = environment()
    metrics = {key: {"value": values[key], "unit": units[key][0]}
               for key in units}
    result = {"correct": not runner.problems, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps(
        dict(result, workload=name, seed=seed, seconds=seconds,
             trace=int(trace), environment=env, problems=runner.problems,
             samples=runner.samples),
        indent=1), encoding="utf-8")
    print(f"environment: {json.dumps(env)}")
    for problem in runner.problems[:20]:
        print(f"WRONG: {problem}")
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']!r} {metric['unit']}")
    print(f"  attempted {runner.attempted}, failed {runner.failed}, "
          f"correct {str(result['correct']).lower()}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def steadiness(names, repeat: int, seed: int, seconds: float) -> int:
    """Run each workload `repeat` times in fresh processes and print, per
    metric, the median, the quartiles and the spread (q3 - q1) / median."""
    status = 0
    summary = {}
    for name in names:
        runs = []
        for r in range(repeat):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed + r),
                   "--seconds", repr(seconds), "--trace", "0"]
            try:
                done = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S + 60, cwd=ROOT)
            except subprocess.TimeoutExpired:
                print(f"{name} seed {seed + r}: no result in "
                      f"{CHILD_TIMEOUT_S + 60} s")
                status = 1
                continue
            lines = done.stdout.strip().splitlines()
            try:
                runs.append(json.loads(lines[-1]))
            except (IndexError, ValueError):
                print(f"{name} seed {seed + r}: no result (exit "
                      f"{done.returncode})\n{done.stderr[-2000:]}")
                status = 1
                continue
            if done.returncode != 0 or not runs[-1]["correct"]:
                status = 1
        if not runs:
            continue
        rows = {}
        print(f"\n{name}: {len(runs)} runs, attempted "
              f"{[run['attempted'] for run in runs]}, failed "
              f"{[run['failed'] for run in runs]}, correct "
              f"{all(run['correct'] for run in runs)}")
        for key, first in runs[0]["metrics"].items():
            values = [run["metrics"][key]["value"] for run in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            rows[key] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "unit": first["unit"],
                         "values": values}
            print(f"  {key:42s} median {med:12.6g} {first['unit']:12s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}")
        summary[name] = rows
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "steadiness.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long one run keeps timing passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per workload")
    args = parser.parse_args(argv)
    from workloads import NAMES
    names = NAMES if args.workload == "all" else (args.workload,)
    if any(name not in NAMES for name in names):
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{', '.join(NAMES)} or 'all'")
    if args.repeat or len(names) > 1:
        if args.trace:
            parser.error("steadiness mode measures untraced runs only")
        return steadiness(names, max(args.repeat, 1), args.seed,
                          args.seconds)
    return run_one(names[0], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
