"""Run configuration: flat `key = value` text, parsed and echoed exactly.

The format is deliberately minimal so diffs stay readable and the echo into
an output directory re-parses to an identical configuration:

    # comment lines start with '#'; blank lines are skipped
    seed = 12345
    spec.case = "A"
    spec.alpha = "-0.1"
    background.ric0.(1,1) = "-1"
    solver.dt_init = 0.1

Values are quoted strings (no embedded quotes), integers, floats, or
true/false. Unknown keys, duplicate keys, and malformed values are rejected
with the line number. All randomness downstream flows from the single `seed`
key. A configuration carries the one background tensor its case reads:
background.ric0.* for cases A and B, background.schouten0.* for case C; a
component of the other tensor is rejected. The default is the canonical
tensor (ric0 = -identity, schouten0 = +identity); providing any component
replaces that default entirely, with omitted components zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields

from . import fieldexpr
from .curvature import (CASES, ProblemSpec, _fmt, canonical_background,
                        component_key)
from .errors import ConfigError, DomainError, ExprSyntaxError, SigmaKError
from .grid import Grid
from .report import BOUNDED_CHECKS, KNOWN_CHECKS, _normalize_checks
from .solver import Schedule

_DEFAULT_CHECKS = ",".join(KNOWN_CHECKS)
_SCHEDULE = Schedule()

_INT_RE = re.compile(r"^[+-]?\d+$")

# A run whose estimated peak memory exceeds this is rejected as an invalid
# configuration before any work starts, rather than left to the operating
# system's out-of-memory killer.
MEMORY_BUDGET_BYTES = 2 * 2 ** 30


def peak_bytes(n: int, N: int) -> int:
    """Estimated peak bytes of a solve or check on the grid with N points on
    each of n axes: N^n nodes at 84 n^2 + 300 bytes a node. That per-node
    cost bounds the tracemalloc peaks of `sigmak solve` at n = 3, 4, 5
    (N = 16 at n = 3 and N = 8 above): 796, 1227 and 1786 bytes a node for
    case A with k = 3 on a background whose (1,1) entry varies along every
    axis, 797, 1108 and 1602 for case A with k = n, and 716, 1083 and 1569
    for case C with k = 3; n = 6 peaked at 2889 when the operator also held
    CSR column indices. The peaks are set by the (n, n) planes of the state
    and the recurrence, the one background tensor (grid-sized only when it
    varies along every axis), and the operator's 2n^2 + 1 stencil weight
    planes. A full GMRES basis (51 grid vectors, 408 bytes a node) fits
    inside it: the Newton state is dropped before the Krylov solve (at
    n = 3, N = 24 the peak while solve_linear runs is 585 bytes a node), and
    a singular solve that allocates the whole basis peaks at 477 bytes a
    node at n = 3, N = 16."""
    return N ** n * (84 * n * n + 300)


def sample_bytes(n: int, k: int) -> int:
    """Estimated peak bytes a check sample adds. It bounds the tracemalloc
    peaks a sample of the suites and the concavity certificate (the largest)
    at n = 3..6: 869 at n = k = 3, 1445/2181/3077 at k = 3 and
    1976/3664/6120 at k = n = 4/5/6, alike at 20,000 and 40,000 samples."""
    return 32 * n * n * k + 128


@dataclass
class RunConfig:
    """Everything a run needs, with the library defaults (canonical case A)."""

    seed: int = 12345
    case: str = "A"
    n: int = 3
    k: int = 3
    N: int = 16
    alpha: str = "-0.1"
    f: str = "0.7"
    background: dict = field(default_factory=dict)
    dt_init: float = _SCHEDULE.dt_init
    dt_max: float = _SCHEDULE.dt_max
    dt_min: float = _SCHEDULE.dt_min
    newton_tol: float = _SCHEDULE.newton_tol
    newton_max_iters: int = _SCHEDULE.newton_max_iters
    cone_factor: float = _SCHEDULE.cone_factor
    armijo_factor: float = _SCHEDULE.armijo_factor
    check_samples: int = 2000
    u_star: str = "0.1*sin(x1)*cos(x2)"
    checks: str = _DEFAULT_CHECKS
    ceiling_sup_u: float = BOUNDED_CHECKS["bounded_sup_u"][1]
    ceiling_sup_grad_u_sq: float = BOUNDED_CHECKS["bounded_sup_grad_u_sq"][1]
    ceiling_sup_hess_u: float = BOUNDED_CHECKS["bounded_sup_hess_u"][1]

    def __post_init__(self):
        if not self.background:
            self.background = canonical_background(self.case, self.n)

    @property
    def background_key(self) -> str:
        """The key prefix of the background tensor this case reads."""
        return "background." + ("schouten0" if self.case == "C" else "ric0")

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Range-check every knob and parse every expression; ConfigError on
        the first problem. Case sign invariants are checked later, on the
        sampled fields (ProblemSpec.validate)."""
        if self.case not in CASES:
            raise ConfigError(f"spec.case must be one of {CASES}, "
                              f"got {self.case!r}")
        if not 3 <= self.n <= 6:
            raise ConfigError(f"spec.n must lie in [3, 6], got {self.n}")
        if not 3 <= self.k <= self.n:
            raise ConfigError(f"spec.k must lie in [3, n={self.n}], "
                              f"got {self.k}")
        if not 8 <= self.N <= 128:
            raise ConfigError(f"spec.N must lie in [8, 128], got {self.N}")
        if self.check_samples < 1:
            raise ConfigError("check.samples must be positive")
        self.check_memory(self.N)
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        for attr, _ in BOUNDED_CHECKS.values():
            if not getattr(self, f"ceiling_{attr}") > 0.0:
                raise ConfigError(f"monitor.ceiling_{attr} must be positive")
        try:
            self.schedule()
        except SigmaKError as err:
            raise ConfigError(f"solver schedule: {err}") from err
        for label, src in (("spec.alpha", self.alpha), ("spec.f", self.f),
                           ("verify.u_star", self.u_star)):
            try:
                fieldexpr.parse(src, self.n)
            except ExprSyntaxError as err:
                raise ConfigError(f"{label}: {err}") from err
        for key, src in self.background.items():
            try:
                component_key(self.n, key)
                fieldexpr.parse(src, self.n)
            except (DomainError, ExprSyntaxError) as err:
                raise ConfigError(f"{self.background_key}.{key}: {err}") \
                    from err
        _normalize_checks(self.check_names())

    def check_memory(self, N: int) -> None:
        """ConfigError when a run on this n with N points per axis and
        check.samples samples would need more than MEMORY_BUDGET_BYTES (see
        peak_bytes and sample_bytes). validate checks spec.N; verify also
        checks its doubled grid."""
        need = peak_bytes(self.n, N) \
            + self.check_samples * sample_bytes(self.n, self.k)
        if need > MEMORY_BUDGET_BYTES:
            raise ConfigError(
                f"a run with n={self.n}, N={N} and check.samples = "
                f"{self.check_samples} needs about {need / 2 ** 30:.1f} GiB, "
                f"over the {MEMORY_BUDGET_BYTES / 2 ** 30:g} GiB memory "
                f"budget")

    # -- derived objects -------------------------------------------------

    def grid(self) -> Grid:
        return Grid(self.n, self.N)

    def problem(self, grid: Grid | None = None) -> ProblemSpec:
        g = grid if grid is not None else self.grid()
        return ProblemSpec.build(self.case, self.n, self.k, g,
                                 alpha=self.alpha, f=self.f,
                                 background=self.background)

    def schedule(self) -> Schedule:
        return Schedule(**{f.name: getattr(self, f.name)
                           for f in fields(Schedule)})

    def check_names(self) -> list:
        return [name.strip() for name in self.checks.split(",")
                if name.strip()]

    def checks_mapping(self) -> dict:
        ceilings = {name: getattr(self, f"ceiling_{attr}")
                    for name, (attr, _) in BOUNDED_CHECKS.items()}
        return {name: ceilings.get(name) for name in self.check_names()}

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        """The echo: one line per _SCALAR_KEYS entry, in table order, with
        the components of the background tensor after spec.f."""
        lines = []
        for key, (attr, _) in _SCALAR_KEYS.items():
            value = getattr(self, attr)
            text = _quote(value) if isinstance(value, str) else _fmt(value)
            lines.append(f"{key} = {text}")
            if key != "spec.f":
                continue
            for comp in sorted(self.background,
                               key=lambda c: component_key(self.n, c)):
                lines.append(f"{self.background_key}.{comp} = "
                             f"{_quote(self.background[comp])}")
        return "\n".join(lines) + "\n"


_SCALAR_KEYS = {
    "seed": ("seed", int),
    "spec.case": ("case", str),
    "spec.n": ("n", int),
    "spec.k": ("k", int),
    "spec.N": ("N", int),
    "spec.alpha": ("alpha", str),
    "spec.f": ("f", str),
    "solver.dt_init": ("dt_init", float),
    "solver.dt_max": ("dt_max", float),
    "solver.dt_min": ("dt_min", float),
    "solver.newton_tol": ("newton_tol", float),
    "solver.newton_max_iters": ("newton_max_iters", int),
    "solver.cone_factor": ("cone_factor", float),
    "solver.armijo_factor": ("armijo_factor", float),
    "check.samples": ("check_samples", int),
    "verify.u_star": ("u_star", str),
    "monitor.checks": ("checks", str),
    "monitor.ceiling_sup_u": ("ceiling_sup_u", float),
    "monitor.ceiling_sup_grad_u_sq": ("ceiling_sup_grad_u_sq", float),
    "monitor.ceiling_sup_hess_u": ("ceiling_sup_hess_u", float),
}


def _quote(text: str) -> str:
    if '"' in text or "\n" in text:
        raise ConfigError("string values cannot contain quotes or newlines")
    return f'"{text}"'


def _parse_value(raw: str, lineno: int):
    raw = raw.strip()
    if raw.startswith('"'):
        if not (raw.endswith('"') and len(raw) >= 2):
            raise ConfigError(f"line {lineno}: unterminated string")
        body = raw[1:-1]
        if '"' in body:
            raise ConfigError(f"line {lineno}: embedded quote in string")
        return body
    if raw in ("true", "false"):
        return raw == "true"
    if _INT_RE.match(raw):
        return int(raw)
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value {raw!r}") from None


def parse_config_text(text: str) -> RunConfig:
    """Parse configuration text into a RunConfig (not yet validated)."""
    kwargs = {}
    background = {}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        value = _parse_value(raw, lineno)
        if key in _SCALAR_KEYS:
            attr, kind = _SCALAR_KEYS[key]
            if kind is int:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(f"line {lineno}: {key} wants an integer")
                kwargs[attr] = value
            elif kind is float:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigError(f"line {lineno}: {key} wants a number")
                kwargs[attr] = float(value)
            else:
                if not isinstance(value, str):
                    raise ConfigError(f"line {lineno}: {key} wants a "
                                      f"quoted string")
                kwargs[attr] = value
        elif key.startswith(("background.ric0.", "background.schouten0.")):
            if not isinstance(value, str):
                raise ConfigError(f"line {lineno}: tensor components want "
                                  f"quoted expression strings")
            background[key] = (lineno, value)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    cfg = RunConfig(**kwargs)
    if background:
        cfg.background = _background_components(background, cfg)
    return cfg


def _background_components(given: dict, cfg: RunConfig) -> dict:
    """The components of the tensor cfg's case reads, from the background
    keys given (key -> (line number, expression text)), each written as
    its upper-triangle "(i,j)"; a key of the other tensor is an error."""
    prefix = cfg.background_key + "."
    out = {}
    for key, (lineno, src) in given.items():
        if not key.startswith(prefix):
            raise ConfigError(f"line {lineno}: {key} is not read in case "
                              f"{cfg.case}, which reads {prefix}*")
        try:
            canon = "({},{})".format(*component_key(cfg.n, key[len(prefix):]))
        except DomainError as err:
            raise ConfigError(f"line {lineno}: {err}") from err
        if canon in out:
            raise ConfigError(f"line {lineno}: {prefix}{canon} given twice "
                              f"(components are symmetric)")
        out[canon] = src
    return out


def parse_config_file(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_config_text(fp.read())
