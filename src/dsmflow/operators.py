"""Monotone operator problems F(u) = f and a gallery of test instances.

A problem bundles the operator F, its Jacobian F', the right-hand side f,
and whatever solution structure is known by construction (the minimal-norm
solution, a null-space basis for rank-deficient linear operators). The
gallery spans the hypotheses the solver exercises:

    identity            well-posed linear baseline
    diag_cubic          componentwise u^3; Jacobian singular at 0
    psd_rank_deficient  symmetric PSD with a known null space, f in range
    fredholm_first_kind min(x, y) kernel on [0, 1]; badly ill-conditioned
    skew_perturbed      PSD plus skew part; monotone, nonsymmetric Jacobian
    convex_gradient     gradient of a strictly convex quartic potential

A deliberately non-monotone fixture lives in the same registry for
negative tests but is not part of the gallery.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import _QUIET, MAX_DIM, as_count, as_vector

# Monotonicity check: MONO_SAMPLES pairs drawn in the ball of radius
# MONO_RADIUS, each with a slack of EPS_MONO scaled by the pair's magnitude.
EPS_MONO = 1e-9
MONO_SAMPLES = 200
MONO_RADIUS = 5.0

# Finite-difference Jacobian validation. A Jacobian whose error misses
# FD_TOL at FD_STEP still passes if the error falls by FD_SHRINK or more at
# each of FD_LEVELS quarterings of the step: F' need only be continuous,
# and a Hoelder-continuous F' gives no C^2 rate.
FD_STEP = 1e-5
FD_TOL = 1e-4
FD_SHRINK = 0.75
FD_LEVELS = 2


@dataclass(frozen=True, eq=False)
class OperatorProblem:
    """A monotone operator equation F(u) = f in R^dim, where dim is len(rhs).

    fun and jac must be defined on all of R^dim; fun must satisfy
    <F(u) - F(v), u - v> >= 0 (see check_monotone) and jac must match the
    finite differences of fun (see check_jacobian). jac(u) is the matrix
    F'(u) or, where F' is diagonal everywhere, the vector of its diagonal.
    jac_eigh, if not None, maps a Jacobian J = jac(u) to np.linalg.eigh(J)
    or to None; it may take the decomposition when first asked. The shifted
    solve rule: a 1-D jac is divided on, a J whose jac_eigh is not None is
    solved by that eigh in the stages of dp54 flow runs, and every other
    solve is dense LU. Each solve is certified against J itself, so a false
    jac_eigh fails the certificate. Known vectors have rhs's shape.
    """

    name: str
    fun: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    rhs: np.ndarray
    minimal_norm_solution: np.ndarray | None = None
    null_space_basis: list[np.ndarray] | None = None
    jac_eigh: Callable[[np.ndarray], tuple | None] | None = None

    def __post_init__(self):
        for known in (self.minimal_norm_solution, *(self.null_space_basis or ())):
            if known is not None and np.shape(known) != np.shape(self.rhs):
                raise ValueError(f"known vector of shape {np.shape(known)}, rhs {self.rhs.shape}")

    @property
    def dim(self) -> int:
        return self.rhs.shape[0]

    def residual(self, a: float, u: np.ndarray) -> np.ndarray:
        """F(u) + a*u - f, the regularized residual driving the flow."""
        return self.fun(u) + a * u - self.rhs


def _given_rhs(dim: int | None, rhs) -> np.ndarray:
    """A builder's given f, whose length a given dim must equal."""
    f = as_vector(rhs)
    if dim is not None and dim != f.shape[0]:
        raise ValueError(f"dim {dim} disagrees with len(rhs) = {f.shape[0]}")
    return f


def linear_problem(name: str, matrix: np.ndarray, rhs: np.ndarray, **known) -> OperatorProblem:
    """F(u) = matrix @ u, whose jac returns the one matrix, marked read-only.

    For a matrix equal to its transpose (else None), jac_eigh(J) is
    np.linalg.eigh(matrix) when J is matrix itself and None for any other J,
    so a jac swapped by dataclasses.replace solves by LU. The eigh is taken
    at the first call, not here, and kept; it is None if eigh cannot take
    the matrix (all inf). known: minimal_norm_solution, null_space_basis.
    """
    matrix.setflags(write=False)
    symmetric = np.array_equal(matrix, matrix.T)

    @functools.cache
    def eigh():
        with contextlib.suppress(np.linalg.LinAlgError):
            return np.linalg.eigh(matrix)

    return OperatorProblem(
        name=name,
        fun=lambda u: matrix @ u,
        jac=lambda u: matrix,
        rhs=rhs,
        jac_eigh=(lambda J: eigh() if J is matrix else None) if symmetric else None,
        **known,
    )


def _second_difference(dim: int) -> np.ndarray:
    """0.5 * tridiag(-1, 2, -1): symmetric positive definite."""
    return 0.5 * (2.0 * np.eye(dim) - np.eye(dim, k=1) - np.eye(dim, k=-1))


def identity(dim: int | None = None, rhs=None) -> OperatorProblem:
    """F(u) = u; jac returns the diagonal, all ones. Solution is f itself; default f = 0 in R^10."""
    f = np.zeros(10 if dim is None else dim) if rhs is None else _given_rhs(dim, rhs)
    ones = np.ones(f.shape[0])
    ones.setflags(write=False)
    return OperatorProblem(
        name="identity",
        fun=lambda u: u.copy(),
        jac=lambda u: ones,
        rhs=f,
        minimal_norm_solution=f.copy(),
    )


def diag_cubic(dim: int | None = None, rhs=None) -> OperatorProblem:
    """F(u)_i = u_i^3, monotone with F'(0) = 0; jac returns the diagonal 3 u^2.

    The default right-hand side, in R^8, is built from a smooth positive
    profile y so the solution (componentwise cube roots) is known exactly.
    """
    if rhs is None:
        y = np.linspace(0.6, 1.4, 8 if dim is None else dim)
        f = y**3
    else:
        f = _given_rhs(dim, rhs)
        y = np.cbrt(f)
    return OperatorProblem(
        name="diag_cubic",
        fun=lambda u: u**3,
        jac=lambda u: 3.0 * u**2,
        rhs=f,
        minimal_norm_solution=y,
    )


def psd_rank_deficient(dim: int = 20, seed: int = 0) -> OperatorProblem:
    """F(u) = A u with A symmetric PSD of rank ceil(3*dim/4).

    A = Q diag(lambda) Q^T for a seeded random orthogonal Q, with the
    trailing quarter of the spectrum zeroed. f = A u_true lies in range(A);
    the minimal-norm solution is the projection of u_true onto range(A),
    orthogonal to the stored null-space basis.
    """
    if dim < 4:
        raise ValueError("psd_rank_deficient needs dim >= 4")
    rank = (3 * dim + 3) // 4
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lam = np.concatenate([np.linspace(0.5, 2.0, rank), np.zeros(dim - rank)])
    a_mat = (q * lam) @ q.T
    a_mat = 0.5 * (a_mat + a_mat.T)
    u_true = rng.standard_normal(dim)
    q_range = q[:, :rank]
    y = q_range @ (q_range.T @ u_true)
    basis = [q[:, j].copy() for j in range(rank, dim)]
    return linear_problem(
        "psd_rank_deficient", a_mat, a_mat @ u_true, minimal_norm_solution=y, null_space_basis=basis
    )


def fredholm_first_kind(dim: int = 100) -> OperatorProblem:
    """Discretized first-kind integral operator with kernel min(x, y).

    Midpoint rule on [0, 1]: A_ij = (1/n) * min(x_i, x_j). The matrix is
    symmetric positive definite but its spectrum decays like 1/k^2, so the
    discrete problem is badly ill-conditioned. f = A y for the smooth
    profile y(x) = sin(pi x), keeping the equation exactly solvable.
    """
    if dim < 4:
        raise ValueError("fredholm_first_kind needs dim >= 4")
    x = (np.arange(dim) + 0.5) / dim
    a_mat = np.minimum.outer(x, x) / dim
    y = np.sin(np.pi * x)
    return linear_problem("fredholm_first_kind", a_mat, a_mat @ y, minimal_norm_solution=y)


def skew_perturbed(dim: int = 16) -> OperatorProblem:
    """F(u) = (S + K) u with S symmetric positive definite, K skew.

    S is a scaled second-difference matrix, K a skew bidiagonal; the skew
    part contributes nothing to <F(u), u>, so F is monotone while its
    Jacobian is genuinely nonsymmetric. f = (S + K) y for a smooth y.
    """
    if dim < 2:
        raise ValueError("skew_perturbed needs dim >= 2")
    op = _second_difference(dim) + 0.5 * (np.eye(dim, k=1) - np.eye(dim, k=-1))
    y = np.sin(2.0 * np.pi * np.linspace(0.0, 1.0, dim)) + 0.5
    return linear_problem("skew_perturbed", op, op @ y, minimal_norm_solution=y)


def convex_gradient(dim: int = 12) -> OperatorProblem:
    """F = grad phi for phi(u) = sum(u_i^4/4 + u_i^2/2) + u^T B u / 2.

    B is a positive definite second-difference coupling, so phi is strictly
    convex and F strictly monotone. f = F(y) for a smooth y, making y the
    unique solution.
    """
    if dim < 2:
        raise ValueError("convex_gradient needs dim >= 2")
    b_mat = _second_difference(dim)
    y = 0.8 * np.cos(np.pi * np.linspace(0.0, 1.0, dim))

    def fun(u):
        return u**3 + u + b_mat @ u

    def jac(u):
        return np.diag(3.0 * u**2 + 1.0) + b_mat

    return OperatorProblem(
        name="convex_gradient", fun=fun, jac=jac, rhs=fun(y), minimal_norm_solution=y
    )


def non_monotone_fixture(dim: int = 6) -> OperatorProblem:
    """Deliberately non-monotone F(u) = -u; must fail check_monotone."""
    return linear_problem("non_monotone_fixture", -np.eye(dim), np.zeros(dim))


_BUILDERS: dict[str, Callable] = {
    "identity": identity,
    "diag_cubic": diag_cubic,
    "psd_rank_deficient": psd_rank_deficient,
    "fredholm_first_kind": fredholm_first_kind,
    "skew_perturbed": skew_perturbed,
    "convex_gradient": convex_gradient,
    "non_monotone_fixture": non_monotone_fixture,
}

GALLERY_NAMES = tuple(name for name in _BUILDERS if name != "non_monotone_fixture")


def make_problem(name: str, dim: int | None = None, seed: int = 0) -> OperatorProblem:
    """Build a registered problem by name, at an optional dimension.

    Only psd_rank_deficient consumes the seed; the other constructions are
    deterministic. Fixture names outside the gallery are accepted too.
    """
    if name not in _BUILDERS:
        raise ValueError(f"unknown problem {name!r}; known: {sorted(_BUILDERS)}")
    builder = _BUILDERS[name]
    kwargs = {"seed": seed} if name == "psd_rank_deficient" else {}
    if dim is not None:
        as_count("dim", dim, 1)
        if dim > MAX_DIM:
            raise ValueError(f"dim must be in [1, {MAX_DIM}], got {dim}")
        kwargs["dim"] = dim
    return builder(**kwargs)


def gallery() -> list[OperatorProblem]:
    """The six stock problems at their default dimensions."""
    return [make_problem(name) for name in GALLERY_NAMES]


@dataclass(frozen=True)
class MonotonicityReport:
    min_pairing: float
    passed: bool
    samples: int
    seed: int


@dataclass(frozen=True)
class JacobianReport:
    max_entry_error: float
    passed: bool
    finer_errors: tuple[float, ...] = ()


@_QUIET
def check_monotone(p: OperatorProblem, seed: int) -> MonotonicityReport:
    """Sample MONO_SAMPLES pairs (u, v) in the MONO_RADIUS ball; test <F(u) - F(v), u - v> >= 0.

    The points come from one draw of directions and one of radii, F is
    evaluated once a point in pair order, and the pairings are tested as
    arrays. Each is allowed a slack of EPS_MONO * (1 + ||F(u)|| * ||u - v||)
    to absorb rounding; a NaN pairing fails and is the reported minimum.
    The seed is recorded so failing draws can be replayed.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * MONO_SAMPLES, p.dim))
    radii = MONO_RADIUS * rng.random(2 * MONO_SAMPLES) ** (1.0 / p.dim)
    x *= (radii / np.sqrt(np.einsum("ij,ij->i", x, x)))[:, None]
    fx = np.array([p.fun(xi) for xi in x])
    # Pair i is (u, v) = (x[2i], x[2i + 1]); an F(u) whose squares overflow takes hypot's norm.
    fu, step = fx[0::2], x[0::2] - x[1::2]
    pairing = np.einsum("ij,ij->i", fu - fx[1::2], step)
    fu_norms = np.sqrt(np.einsum("ij,ij->i", fu, fu))
    big = ~np.isfinite(fu_norms)
    fu_norms[big] = np.hypot.reduce(fu[big], axis=1)
    norms = fu_norms * np.sqrt(np.einsum("ij,ij->i", step, step))
    passed = bool(np.all(pairing >= -EPS_MONO * (1.0 + norms)))
    return MonotonicityReport(float(pairing.min()), passed, MONO_SAMPLES, seed)


def check_jacobian(p: OperatorProblem, point) -> JacobianReport:
    """Compare jac at a point, a 1-D jac as its diagonal matrix, with central differences.

    The Jacobian passes if the largest entry error at FD_STEP is within
    FD_TOL * (1 + max |J|), the accuracy a C^2 operator reaches there. If it
    is not, the check repeats at FD_STEP / 4, FD_STEP / 16, ... (FD_LEVELS
    times, errors in finer_errors) and passes if each error is at most
    FD_SHRINK times the last: the differences of an operator with a merely
    Hoelder F' converge to the Jacobian slowly but do converge, while those
    of a wrong Jacobian stall at its error. A NaN error fails.
    """
    x = as_vector(point)
    analytic = np.asarray(p.jac(x), dtype=float)
    analytic = np.diag(analytic) if analytic.ndim == 1 else analytic
    error = _fd_error(p, x, analytic, FD_STEP)
    tol = FD_TOL * (1.0 + float(np.max(np.abs(analytic))))
    finer = ()
    passed = error <= tol
    if not passed:
        finer = tuple(_fd_error(p, x, analytic, FD_STEP / 4**k) for k in range(1, FD_LEVELS + 1))
        errors = (error, *finer)
        passed = all(e1 <= FD_SHRINK * e0 for e0, e1 in zip(errors, errors[1:]))
    return JacobianReport(max_entry_error=error, passed=passed, finer_errors=finer)


def _fd_error(p: OperatorProblem, x: np.ndarray, analytic: np.ndarray, step: float) -> float:
    """Largest entry of |central differences of fun at x - analytic|."""
    numeric = np.empty_like(analytic)
    for j in range(p.dim):
        e = np.zeros(p.dim)
        e[j] = step
        numeric[:, j] = (p.fun(x + e) - p.fun(x - e)) / (2.0 * step)
    return float(np.max(np.abs(numeric - analytic)))
