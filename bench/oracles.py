"""Independent oracles for the benchmark's outputs.

Nothing here imports sigmak. Fields are read back from the text dumps the
program writes, derivatives come from this file's own central stencils, and
elementary symmetric functions come from eigenvalues (`np.linalg.eigvalsh`)
and characteristic polynomials (`np.poly`), not from the program's
recurrence. Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

ORDER_RANGE = (1.6, 2.4)


def read_field(path: str):
    """Read a `field n=.. N=.. name=..` dump; returns (n, N, values)."""
    with open(path, encoding="utf-8") as fp:
        header = fp.readline().split()
        meta = dict(part.split("=", 1) for part in header[1:])
        n, N = int(meta["n"]), int(meta["N"])
        values = np.array([float(line) for line in fp if line.strip()])
    if header[0] != "field" or values.size != N ** n:
        raise ValueError(f"{path}: malformed field dump")
    return n, N, values.reshape((N,) * n)


def nodes(n: int, N: int) -> list:
    """Coordinates x_a = 2 pi i_a / N of every node, one array per axis."""
    axis = 2.0 * math.pi * np.arange(N) / N
    return np.meshgrid(*([axis] * n), indexing="ij")


def _shift(u: np.ndarray, steps: dict) -> np.ndarray:
    """u at the node displaced by steps[axis] (periodic)."""
    out = u
    for axis, step in steps.items():
        out = np.roll(out, -step, axis=axis)
    return out


def gradient(u: np.ndarray, h: float) -> np.ndarray:
    return np.stack([(_shift(u, {a: 1}) - _shift(u, {a: -1})) / (2.0 * h)
                     for a in range(u.ndim)], axis=-1)


def hessian(u: np.ndarray, h: float) -> np.ndarray:
    n = u.ndim
    out = np.empty(u.shape + (n, n))
    for a in range(n):
        out[..., a, a] = (_shift(u, {a: 1}) - 2.0 * u
                          + _shift(u, {a: -1})) / h ** 2
        for b in range(a + 1, n):
            cross = (_shift(u, {a: 1, b: 1}) - _shift(u, {a: 1, b: -1})
                     - _shift(u, {a: -1, b: 1})
                     + _shift(u, {a: -1, b: -1})) / (4.0 * h ** 2)
            out[..., a, b] = out[..., b, a] = cross
    return out


def sigmas(mats: np.ndarray) -> np.ndarray:
    """sigma_0..sigma_n of each symmetric matrix, from its eigenvalues:
    the characteristic polynomial prod(x - lam) has coefficient
    (-1)^j sigma_j at x^(n-j)."""
    n = mats.shape[-1]
    eigs = np.linalg.eigvalsh(mats).reshape(-1, n)
    signs = (-1.0) ** np.arange(n + 1)
    out = np.array([np.poly(lam) * signs for lam in eigs])
    return out.reshape(mats.shape[:-2] + (n + 1,))


def _load_json(path: str, problems: list):
    try:
        with open(path, encoding="utf-8") as fp:
            return json.load(fp)
    except (OSError, ValueError) as err:
        problems.append(f"{path}: {err}")
        return None


def _solve_report(out_dir: str, problems: list) -> None:
    doc = _load_json(os.path.join(out_dir, "report.json"), problems)
    if doc is None:
        return
    if doc.get("result") != "pass":
        problems.append(f"{out_dir}: report result is {doc.get('result')!r}")
    if not doc.get("trace", {}).get("reached_target"):
        problems.append(f"{out_dir}: solve did not reach t = 1")


def check_verify(out_dir: str, u_star, n: int, N: int) -> list:
    """Sup errors against u* evaluated here, on both grids, must give an
    observed order in ORDER_RANGE and match what the program reported."""
    problems = []
    errors = []
    for label, size in (("coarse", N), ("fine", 2 * N)):
        fn, fN, u = read_field(os.path.join(out_dir, f"u_{label}.field"))
        if (fn, fN) != (n, size):
            problems.append(f"u_{label}.field is n={fn} N={fN}, "
                            f"expected n={n} N={size}")
            return problems
        errors.append(float(np.abs(u - u_star(nodes(n, size))).max()))
    order = math.log2(errors[0] / errors[1])
    if not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
        problems.append(f"observed order {order:.4f} outside {ORDER_RANGE}")
    doc = _load_json(os.path.join(out_dir, "report.json"), problems)
    if doc is not None:
        if doc.get("passed") is not True or doc.get("status") != "pass":
            problems.append("verify report does not say pass")
        for key, mine in zip(("err_coarse", "err_fine"), errors):
            theirs = doc.get(key)
            if theirs is None or abs(theirs - mine) > 1e-12 + 1e-9 * mine:
                problems.append(f"reported {key} {theirs!r} != {mine!r}")
    return problems


def constant_root(n: int, k: int, alpha: float, f: float):
    """Case A at t = 1 with constant u and ric0 = -I: the tensor is
    I/(n-2), so x = e^{2u} solves g(x) = C(n,k)/(n-2)^k
    + alpha C(n,k-1)/(n-2)^(k-1) x - f x^k = 0. g(0) > 0 and g decreases
    on x > 0 (alpha <= 0 < f), so bisection finds the one positive root.
    Returns (u, |dg/du| at the root)."""
    c = 1.0 / (n - 2)
    sk = math.comb(n, k) * c ** k
    skm1 = math.comb(n, k - 1) * c ** (k - 1)

    def g(x):
        return sk + alpha * skm1 * x - f * x ** k

    lo, hi = 0.0, 1.0
    while g(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    slope = abs(2.0 * x * (alpha * skm1 - k * f * x ** (k - 1)))
    return 0.5 * math.log(x), slope


def check_uniform_caseA(out_dir: str, n: int, k: int, N: int, alpha: float,
                        f: float, newton_tol: float) -> list:
    """Constant data: the solution is uniform and equals the root above.
    A residual at most newton_tol puts every node within newton_tol / |g'|
    of it; twice that is allowed."""
    problems = []
    _solve_report(out_dir, problems)
    fn, fN, u = read_field(os.path.join(out_dir, "u_final.field"))
    if (fn, fN) != (n, N):
        return problems + [f"u_final.field is n={fn} N={fN}"]
    root, slope = constant_root(n, k, alpha, f)
    bound = 2.0 * newton_tol / slope
    spread = float(u.max() - u.min())
    if spread > bound:
        problems.append(f"field not uniform: max - min = {spread:.3e}")
    worst = float(np.abs(u - root).max())
    if worst > bound:
        problems.append(f"field off the root {root!r} by {worst:.3e} "
                        f"> {bound:.3e}")
    return problems


def check_caseC(out_dir: str, n: int, k: int, N: int, alpha, f,
                newton_tol: float) -> list:
    """Rebuild W = Hess u + du x du - |du|^2 I / 2 + schouten0 from the
    dumped field, with the program's default background schouten0 = I.
    The multiplied residual sigma_k(W) + alpha e^{-2u} sigma_{k-1}(W)
    - f e^{-2ku} must be at most newton_tol and W must lie in Gamma_{k-1}
    (sigma_1..sigma_{k-1} > 0) at every node."""
    problems = []
    _solve_report(out_dir, problems)
    fn, fN, u = read_field(os.path.join(out_dir, "u_final.field"))
    if (fn, fN) != (n, N):
        return problems + [f"u_final.field is n={fn} N={fN}"]
    h = 2.0 * math.pi / N
    grad = gradient(u, h)
    eye = np.eye(n)
    w = (hessian(u, h) + grad[..., :, None] * grad[..., None, :]
         - 0.5 * (grad ** 2).sum(-1)[..., None, None] * eye + eye)
    sig = sigmas(w)
    x = nodes(n, N)
    res = (sig[..., k] + alpha(x) * np.exp(-2.0 * u) * sig[..., k - 1]
           - f(x) * np.exp(-2.0 * k * u))
    worst = float(np.abs(res).max())
    if not worst <= newton_tol:
        problems.append(f"discrete residual {worst:.3e} > {newton_tol:.0e}")
    margin = float(sig[..., 1:k].min())
    if not margin > 0.0:
        problems.append(f"state leaves Gamma_{k - 1} (margin {margin:.3e})")
    return problems


def check_certificates(out_dir: str) -> list:
    path = os.path.join(out_dir, "certificates.txt")
    try:
        with open(path, encoding="utf-8") as fp:
            lines = fp.read().splitlines()
    except OSError as err:
        return [f"{path}: {err}"]
    if "summary.passed: true" not in lines:
        return [f"{path}: summary.passed is not true"]
    return []
