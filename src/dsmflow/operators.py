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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import DENSE, DIAGONAL, MAX_DIM, STRUCTURES, SYMMETRIC_CONSTANT, as_vector

# Working box for sampling-based checks; trajectories stay well inside.
R_BOX = 100.0

# Monotonicity slack per sampled pair, scaled by the pair's magnitude.
EPS_MONO = 1e-9

# Finite-difference Jacobian validation defaults. A Jacobian whose error
# misses FD_TOL still passes if the error falls by FD_SHRINK or more at each
# of FD_LEVELS quarterings of the step: F' need only be continuous, and a
# Hoelder-continuous F' gives no C^2 rate.
FD_STEP = 1e-5
FD_TOL = 1e-4
FD_SHRINK = 0.75
FD_LEVELS = 2


def _read_only(m: np.ndarray) -> np.ndarray:
    """Mark a constant Jacobian read-only, so jac can return the same array every call."""
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class OperatorProblem:
    """A monotone operator equation F(u) = f in R^dim.

    fun and jac must be defined for all ||u|| <= R_BOX; fun must satisfy
    <F(u) - F(v), u - v> >= 0 (see check_monotone) and jac must match the
    finite differences of fun (see check_jacobian). jacobian_structure is
    what more is known of jac(u) for every u: nothing ("dense", the
    default), "diagonal", or "symmetric_constant" (one symmetric matrix
    everywhere); see linalg.STRUCTURES. It routes only the shifted solves
    of dp54 flow runs (see solve_structure), and a false fact fails their
    residual certificate.
    """

    name: str
    dim: int
    fun: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    rhs: np.ndarray
    minimal_norm_solution: np.ndarray | None = None
    null_space_basis: list[np.ndarray] | None = None
    jacobian_structure: str = DENSE

    def __post_init__(self):
        if self.jacobian_structure not in STRUCTURES:
            raise ValueError(
                f"unknown jacobian_structure {self.jacobian_structure!r}; known: {STRUCTURES}"
            )

    @cached_property
    def solve_structure(self):
        """linalg.solve_shifted's structure argument, worked out on first use.

        DIAGONAL for "diagonal"; for "symmetric_constant", one np.linalg.eigh
        of the constant J that serves every shift. Otherwise, and for a J eigh
        cannot take, None: dense LU, whose certificate rejects such a J.
        """
        if self.jacobian_structure == SYMMETRIC_CONSTANT:
            try:
                return np.linalg.eigh(self.jac(np.zeros(self.dim)))
            except np.linalg.LinAlgError:
                return None
        return DIAGONAL if self.jacobian_structure == DIAGONAL else None

    def residual(self, a: float, u: np.ndarray) -> np.ndarray:
        """F(u) + a*u - f, the regularized residual driving the flow."""
        return self.fun(u) + a * u - self.rhs


def identity(dim: int = 10, rhs=None) -> OperatorProblem:
    """F(u) = u. Solution is f itself; default f = 0."""
    f = np.zeros(dim) if rhs is None else as_vector(rhs)
    eye = _read_only(np.eye(dim))
    return OperatorProblem(
        name="identity",
        dim=dim,
        fun=lambda u: u.copy(),
        jac=lambda u: eye,
        rhs=f,
        jacobian_structure=DIAGONAL,
        minimal_norm_solution=f.copy(),
    )


def diag_cubic(dim: int = 8, rhs=None) -> OperatorProblem:
    """F(u)_i = u_i^3, monotone with F'(0) = 0.

    The default right-hand side is built from a smooth positive profile y
    so the solution (componentwise cube roots) is known exactly.
    """
    if rhs is None:
        y = np.linspace(0.6, 1.4, dim)
        f = y**3
    else:
        f = as_vector(rhs)
        y = np.cbrt(f)
    return OperatorProblem(
        name="diag_cubic",
        dim=dim,
        fun=lambda u: u**3,
        jac=lambda u: np.diag(3.0 * u**2),
        rhs=f,
        jacobian_structure=DIAGONAL,
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
    a_mat = _read_only(0.5 * (a_mat + a_mat.T))
    u_true = rng.standard_normal(dim)
    f = a_mat @ u_true
    q_range = q[:, :rank]
    y = q_range @ (q_range.T @ u_true)
    basis = [q[:, j].copy() for j in range(rank, dim)]
    return OperatorProblem(
        name="psd_rank_deficient",
        dim=dim,
        fun=lambda u: a_mat @ u,
        jac=lambda u: a_mat,
        rhs=f,
        jacobian_structure=SYMMETRIC_CONSTANT,
        minimal_norm_solution=y,
        null_space_basis=basis,
    )


def fredholm_first_kind(dim: int = 100) -> OperatorProblem:
    """Discretized first-kind integral operator with kernel min(x, y).

    Midpoint rule on [0, 1]: A_ij = (1/n) * min(x_i, x_j). The matrix is
    symmetric positive definite but its spectrum decays like 1/k^2, so the
    discrete problem is badly ill-conditioned. f = A u_true for the smooth
    profile u_true(x) = sin(pi x), keeping the equation exactly solvable.
    """
    if dim < 4:
        raise ValueError("fredholm_first_kind needs dim >= 4")
    x = (np.arange(dim) + 0.5) / dim
    a_mat = _read_only(np.minimum.outer(x, x) / dim)
    u_true = np.sin(np.pi * x)
    f = a_mat @ u_true
    return OperatorProblem(
        name="fredholm_first_kind",
        dim=dim,
        fun=lambda u: a_mat @ u,
        jac=lambda u: a_mat,
        rhs=f,
        jacobian_structure=SYMMETRIC_CONSTANT,
        minimal_norm_solution=u_true,
    )


def skew_perturbed(dim: int = 16) -> OperatorProblem:
    """F(u) = (S + K) u with S symmetric positive definite, K skew.

    S is a scaled second-difference matrix, K a skew bidiagonal; the skew
    part contributes nothing to <F(u), u>, so F is monotone while its
    Jacobian is genuinely nonsymmetric. f = (S + K) y for a smooth y.
    """
    if dim < 2:
        raise ValueError("skew_perturbed needs dim >= 2")
    s_mat = 0.5 * (2.0 * np.eye(dim) - np.eye(dim, k=1) - np.eye(dim, k=-1))
    k_mat = 0.5 * (np.eye(dim, k=1) - np.eye(dim, k=-1))
    op = _read_only(s_mat + k_mat)
    x = np.linspace(0.0, 1.0, dim)
    y = np.sin(2.0 * np.pi * x) + 0.5
    f = op @ y
    return OperatorProblem(
        name="skew_perturbed",
        dim=dim,
        fun=lambda u: op @ u,
        jac=lambda u: op,
        rhs=f,
        minimal_norm_solution=y,
    )


def convex_gradient(dim: int = 12) -> OperatorProblem:
    """F = grad phi for phi(u) = sum(u_i^4/4 + u_i^2/2) + u^T B u / 2.

    B is a positive definite second-difference coupling, so phi is strictly
    convex and F strictly monotone. f = F(y) for a smooth y, making y the
    unique solution.
    """
    if dim < 2:
        raise ValueError("convex_gradient needs dim >= 2")
    b_mat = 0.5 * (2.0 * np.eye(dim) - np.eye(dim, k=1) - np.eye(dim, k=-1))
    x = np.linspace(0.0, 1.0, dim)
    y = 0.8 * np.cos(np.pi * x)

    def fun(u):
        return u**3 + u + b_mat @ u

    def jac(u):
        return np.diag(3.0 * u**2 + 1.0) + b_mat

    return OperatorProblem(
        name="convex_gradient",
        dim=dim,
        fun=fun,
        jac=jac,
        rhs=fun(y),
        minimal_norm_solution=y,
    )


def non_monotone_fixture(dim: int = 6) -> OperatorProblem:
    """Deliberately non-monotone F(u) = -u; must fail check_monotone."""
    neg_eye = _read_only(-np.eye(dim))
    return OperatorProblem(
        name="non_monotone_fixture",
        dim=dim,
        fun=lambda u: -u,
        jac=lambda u: neg_eye,
        rhs=np.zeros(dim),
    )


_GALLERY_BUILDERS: dict[str, Callable] = {
    "identity": identity,
    "diag_cubic": diag_cubic,
    "psd_rank_deficient": psd_rank_deficient,
    "fredholm_first_kind": fredholm_first_kind,
    "skew_perturbed": skew_perturbed,
    "convex_gradient": convex_gradient,
}

_FIXTURE_BUILDERS: dict[str, Callable] = {
    "non_monotone_fixture": non_monotone_fixture,
}

GALLERY_NAMES = tuple(_GALLERY_BUILDERS)


def make_problem(name: str, dim: int | None = None, seed: int = 0) -> OperatorProblem:
    """Build a registered problem by name, at an optional dimension.

    Only psd_rank_deficient consumes the seed; the other constructions are
    deterministic. Fixture names outside the gallery are accepted too.
    """
    builders = {**_GALLERY_BUILDERS, **_FIXTURE_BUILDERS}
    if name not in builders:
        raise ValueError(f"unknown problem {name!r}; known: {sorted(builders)}")
    builder = builders[name]
    kwargs = {}
    if dim is not None:
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dim must be in [1, {MAX_DIM}], got {dim}")
        kwargs["dim"] = dim
    if name == "psd_rank_deficient":
        kwargs["seed"] = seed
    return builder(**kwargs)


def gallery() -> list[OperatorProblem]:
    """The six stock problems at their default dimensions."""
    return [make_problem(name) for name in GALLERY_NAMES]


@dataclass(frozen=True)
class MonotonicityReport:
    min_pairing: float
    passed: bool
    samples: int
    radius: float
    seed: int


@dataclass(frozen=True)
class JacobianReport:
    max_entry_error: float
    passed: bool
    step: float
    finer_errors: tuple[float, ...] = ()


def _sample_in_ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    direction = rng.standard_normal(dim)
    direction /= math.sqrt(direction.dot(direction))
    return radius * rng.uniform() ** (1.0 / dim) * direction


def check_monotone(
    p: OperatorProblem, samples: int = 200, radius: float = 5.0, seed: int = 0
) -> MonotonicityReport:
    """Sample pairs (u, v) in the ball and test <F(u) - F(v), u - v> >= 0.

    Each pairing is allowed a slack of EPS_MONO * (1 + ||F(u)|| * ||u - v||)
    to absorb rounding; a NaN pairing fails. The seed is recorded so
    failing draws can be replayed.
    """
    if samples < 1:
        raise ValueError("need at least one sample pair")
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    min_pairing = np.inf
    passed = True
    for _ in range(samples):
        u = _sample_in_ball(rng, p.dim, radius)
        v = _sample_in_ball(rng, p.dim, radius)
        fu = p.fun(u)
        step = u - v
        pairing = float(np.dot(fu - p.fun(v), step))
        # A NaN pairing sticks as the reported minimum.
        if pairing < min_pairing or math.isnan(pairing):
            min_pairing = pairing
        slack = EPS_MONO * (1.0 + math.sqrt(fu.dot(fu)) * math.sqrt(step.dot(step)))
        if not pairing >= -slack:
            passed = False
    return MonotonicityReport(
        min_pairing=float(min_pairing), passed=passed, samples=samples, radius=radius, seed=seed
    )


def check_jacobian(p: OperatorProblem, point, step: float = FD_STEP) -> JacobianReport:
    """Compare jac against central finite differences of fun at a point.

    The Jacobian passes if the largest entry error at step is within
    FD_TOL * (1 + max |J|), the accuracy a C^2 operator reaches there. If it
    is not, the check repeats at step / 4, step / 16, ... (FD_LEVELS times,
    errors in finer_errors) and passes if each error is at most FD_SHRINK
    times the last: the differences of an operator with a merely Hoelder
    F' converge to the Jacobian slowly but do converge, while those of a
    wrong Jacobian stall at its error. A NaN error fails.
    """
    if not step > 0.0:
        raise ValueError("step must be positive")
    x = as_vector(point)
    analytic = np.asarray(p.jac(x), dtype=float)
    error = _fd_error(p, x, analytic, step)
    tol = FD_TOL * (1.0 + float(np.max(np.abs(analytic))))
    finer = ()
    passed = error <= tol
    if not passed:
        finer = tuple(_fd_error(p, x, analytic, step / 4**k) for k in range(1, FD_LEVELS + 1))
        errors = (error, *finer)
        passed = all(e1 <= FD_SHRINK * e0 for e0, e1 in zip(errors, errors[1:]))
    return JacobianReport(max_entry_error=error, passed=passed, step=step, finer_errors=finer)


def _fd_error(p: OperatorProblem, x: np.ndarray, analytic: np.ndarray, step: float) -> float:
    """Largest entry of |central differences of fun at x - analytic|."""
    numeric = np.empty_like(analytic)
    for j in range(p.dim):
        e = np.zeros(p.dim)
        e[j] = step
        numeric[:, j] = (p.fun(x + e) - p.fun(x - e)) / (2.0 * step)
    return float(np.max(np.abs(numeric - analytic)))
