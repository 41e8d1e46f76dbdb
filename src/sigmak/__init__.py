"""sigmak: conformal sigma_k curvature equations on the periodic box.

The library solves fully nonlinear equations of the form

    sigma_k(V) + alpha(x) sigma_{k-1}(V) = f(x),    3 <= k <= n,

where V is a symmetric tensor built from the conformal curvature of
g = e^{+/-2u} g0 on the torus [0, 2pi)^n, by homotopy continuation from a
closed-form starting problem with cone-constrained damped Newton steps.
Alongside the solver it ships numerical certificates for the structural
facts the method rests on: Newton-Maclaurin inequalities, ellipticity and
concavity of the quotient operator, trace lower bounds, and max-principle
diagnostics.
"""

from .errors import (
    SigmaKError,
    DomainError,
    ExprSyntaxError,
    ExprEvalError,
    ConfigError,
    ValidationError,
    AdmissibilityError,
    LinearSolveError,
    ConeExitError,
    NonConvergenceError,
    PathFailureError,
)
from .symfunc import (
    ConeReport,
    sigma,
    in_gamma,
    newton_maclaurin_gap,
    quotient_ratio_gap,
    sample_gamma,
    sigma_matrix,
    dsigma_matrix,
)
from .fieldexpr import parse, evaluate, to_string
from .grid import (
    Grid,
    ScalarField,
    sample,
    sample_text,
    dump_field,
    load_field,
)
from .curvature import (
    ProblemSpec,
    ValidationReport,
    canonical_background,
    sample_tensor,
    build_u_tensor,
    build_v_tensor,
    build_w_tensor,
)
from .operators import (
    StateData,
    LinearOperator,
    EllipticityReport,
    ConcavityReport,
    C0Report,
    case_weights,
    prepare_state,
    residual,
    linearize,
    ellipticity_certificate,
    concavity_certificate,
    manufactured_forcing,
    c0_diagnostic,
)
from .solver import (
    Schedule,
    HomotopyState,
    MonitorRecord,
    TraceRow,
    ContinuationTrace,
    TRACE_HEADER,
    monitor,
    newton_correct,
    solve_t0,
    continue_path,
    solve_caseC,
)
from .report import CheckResult, VerificationReport, run_checks
from .config import RunConfig, parse_config_text, parse_config_file

__version__ = "0.1.0"
