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
from .curvature import (CASES, ProblemSpec, _fmt, background_key,
                        canonical_background, component_key)
from .errors import ConfigError, DomainError, ExprSyntaxError, SigmaKError
from .grid import Grid
from .operators import CHECK_BLOCK
from .report import BOUNDED_CHECKS, KNOWN_CHECKS, _normalize_checks
from .solver import Schedule

_DEFAULT_CHECKS = ",".join(KNOWN_CHECKS)
_SCHEDULE = Schedule()

_INT_RE = re.compile(r"^[+-]?\d+$")

# A run whose estimated peak memory exceeds this is rejected as an invalid
# configuration before any work starts, rather than left to the operating
# system's out-of-memory killer.
MEMORY_BUDGET_BYTES = 2 * 2 ** 30


# Bytes a node of peak_bytes at n = 3, 4, 5 and 6.
_PEAK_PER_NODE = (730, 940, 1030, 1160)


def peak_bytes(n: int, N: int) -> int:
    """Estimated peak bytes of a solve or check on the grid with N points on
    each of n axes: N^n nodes at 730, 940, 1,030 and 1,160 bytes a node at
    n = 3..6. Each is fitted to the tracemalloc peaks, in bytes a node, of
    `sigmak solve` (N = 16 at n = 3, N = 8 above) and of `sigmak verify`
    (per node of its 2N grid) with at least 20% of headroom at n >= 4 and
    5% over the largest n = 3 peak, a case A solve on a background stored
    grid-sized. A state holds its gradient, sigmas, floored sigma_{k-1},
    Newton weight S_Q (spent by linearize as its coefficient planes) and
    weights, and is built in node blocks, so no grid-sized tensor, Hessian
    or recurrence plane exists; the peaks are linearize's, beside a spent
    state, or the Krylov solve's, whose full GMRES basis (51 grid vectors,
    408 bytes a node) is allocated at once beside the operator's
    1 + 2n + n(n-1)/2 weight planes, plus the background where it is
    grid-sized. The measured peaks are in the memory_model of BENCH_23.json."""
    return N ** n * _PEAK_PER_NODE[n - 3]


def sample_bytes(n: int) -> int:
    """Estimated bytes a check sample adds to the peak: 48 n + 64. The
    samples stream through blocks of CHECK_BLOCK (see block_bytes), so what
    grows with check.samples is the concavity draw, O(n) a sample (spectra,
    weights, line directions), never a matrix. The measured slope, 48 n + 33
    at every k, and the peaks it was fitted to are recorded in the
    memory_model of BENCH_21.json."""
    return 48 * n + 64


def block_bytes(n: int, k: int) -> int:
    """Estimated bytes of one block's working set, charged once per check:
    CHECK_BLOCK samples at 32 n^2 (k + 1) + 512 bytes (1,664 at n = k = 3,
    8,576 at n = k = 6). The largest is the concavity certificate's, whose
    Hessian check holds k planes of a matrix per sample through a sigma
    recurrence; the measured intercepts lie 18-24% under the estimate (the
    memory_model of BENCH_21.json)."""
    return CHECK_BLOCK * (32 * n * n * (k + 1) + 512)


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
        return background_key(self.case)

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
            ceiling = getattr(self, f"ceiling_{attr}")
            if not 0.0 < ceiling < float("inf"):
                raise ConfigError(f"monitor.ceiling_{attr} must be finite "
                                  f"and positive, got {ceiling!r}")
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
        peak_bytes, sample_bytes and block_bytes). validate checks spec.N;
        verify also checks its doubled grid."""
        need = peak_bytes(self.n, N) + block_bytes(self.n, self.k) \
            + self.check_samples * sample_bytes(self.n)
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
