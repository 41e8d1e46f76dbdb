"""The three benchmark workloads: configs, commands and the oracle each one's
outputs must pass. Why each was chosen is in README.md and BENCHMARK.json.

Every workload is a fixed configuration; `seed` stays at 12345 in all of them.
The benchmark's own `--seed` only permutes the order of the `key = value`
lines (the parser must treat every order alike), so the work done, and every
per-layer count, is the same for every benchmark seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

import oracles


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple   # sigmak subcommands run in order, one pass
    config: str       # the config file, one `key = value` per line
    oracle: object    # oracle(config_values, {command: out_dir}) -> problems

    def config_text(self, seed: int) -> str:
        """The config with its lines in an order drawn from `seed`."""
        lines = [line for line in self.config.splitlines() if line.strip()]
        random.Random(seed).shuffle(lines)
        return f"# benchmark seed {seed}\n" + "\n".join(lines) + "\n"

    def values(self) -> dict:
        """The config as a plain key -> value mapping (for the oracles)."""
        out = {}
        for line in self.config.splitlines():
            if line.strip():
                key, _, raw = line.partition("=")
                raw = raw.strip()
                out[key.strip()] = raw[1:-1] if raw.startswith('"') else raw
        return out


# -- oracles bound to each workload's known data ----------------------------

def _u_star(x):
    return 0.1 * np.sin(x[0]) * np.cos(x[1])


def _oracle_verify(cfg: dict, outs: dict) -> list:
    return oracles.check_verify(outs["verify"], u_star=_u_star,
                                n=int(cfg["spec.n"]), N=int(cfg["spec.N"]))


def _oracle_solve_uniform(cfg: dict, outs: dict) -> list:
    return oracles.check_uniform_caseA(
        outs["solve"], n=int(cfg["spec.n"]), k=int(cfg["spec.k"]),
        N=int(cfg["spec.N"]), alpha=float(cfg["spec.alpha"]),
        f=float(cfg["spec.f"]), newton_tol=float(cfg.get("solver.newton_tol",
                                                          1e-10)))


def _f_certify(x):
    return 1.0 + 0.5 * np.cos(x[0] + x[1])


def _oracle_certify(cfg: dict, outs: dict) -> list:
    problems = oracles.check_certificates(outs["check"])
    problems += oracles.check_caseC(
        outs["solve"], n=int(cfg["spec.n"]), k=int(cfg["spec.k"]),
        N=int(cfg["spec.N"]), alpha=lambda x: float(cfg["spec.alpha"]),
        f=_f_certify, newton_tol=float(cfg.get("solver.newton_tol", 1e-10)))
    return problems


_CANONICAL = """\
seed = 12345
spec.case = "A"
spec.n = 3
spec.k = 3
spec.N = {N}
spec.alpha = "-0.1"
spec.f = "0.7"
background.ric0.(1,1) = "-1"
background.ric0.(2,2) = "-1"
background.ric0.(3,3) = "-1"
solver.dt_init = 0.1
solver.newton_tol = 1e-10
verify.u_star = "0.1*sin(x1)*cos(x2)"
monitor.checks = "bounded_sup_u,cone_margin,ellipticity,c0_comparison"
monitor.ceiling_sup_u = 10.0
"""

_A5K4 = """\
seed = 12345
spec.case = "A"
spec.n = 5
spec.k = 4
spec.N = 8
spec.alpha = "-0.1"
spec.f = "0.7"
"""

_C4 = """\
seed = 12345
spec.case = "C"
spec.n = 4
spec.k = 3
spec.N = 8
spec.alpha = "-0.05"
spec.f = "1+0.5*cos(x1+x2)"
check.samples = {samples}
"""


def build(small: bool = False) -> dict:
    """The workloads by name. `small` shrinks them for the self-test: verify
    at N=8 -> 16 and 500 check samples; the solves are already at N=8."""
    verify_n = 8 if small else 16
    samples = 500 if small else 20000
    items = (
        Workload("verify-A3", ("verify",), _CANONICAL.format(N=verify_n),
                 _oracle_verify),
        Workload("solve-A5k4", ("solve",), _A5K4, _oracle_solve_uniform),
        Workload("certify-C4", ("check", "solve"),
                 _C4.format(samples=samples), _oracle_certify),
    )
    return {w.name: w for w in items}


WORKLOADS = build()
NAMES = tuple(WORKLOADS)
