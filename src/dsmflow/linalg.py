"""Input checks and the shifted linear solve.

Vectors are 1-D float64 arrays and matrices are square 2-D arrays.
as_vector checks finiteness at the entry points that take vectors from
outside (integrate's u0; solve_regularized's w_init, once its residual
comes out non-finite). solve_shifted, which every flow stage and every
oracle Newton step calls, does not scan its inputs: its residual
certificate is the finiteness check. A NaN or Inf in J, a, the
right-hand side or the solution leaves the residual NaN, or Inf against a
finite bound, and the test `not residual <= bound` fails on both.

A matrix J is solved by dense LU with partial pivoting through NumPy's
LAPACK unless the caller passes its eigendecomposition. That default is
deliberate: fixed-step RK4 runs are reproduced bit for bit, and SciPy's LU
(lu_factor/lu_solve) differs from np.linalg.solve in the last bit on a
large share of gallery-sized systems (273 of 1,000 random monotone ones
with n = 8-20, OpenBLAS 0.3.31 on an x86-64 Xeon), so reusing a SciPy
factorization would change those bits. The dense path calls the gesv
gufunc that np.linalg.solve itself calls for a 1-D right-hand side,
numpy.linalg._umath_linalg.solve1 with signature "dd->d": the same
LAPACK call on the same float64 arrays, so x has the same bytes, without
the wrapper's type checks and error-state set-up (at n = 8-20, 2-8 us a
call against 5-13 us; 2-core Xeon, one BLAS thread). On a
singular matrix the gufunc returns NaN where np.linalg.solve raises
LinAlgError, and the residual certificate rejects it like any other
non-finite solution. A 1-D J, the diagonal of a diagonal J, is solved in
O(n) by the divisions LU's back substitution makes on it, and a constant
symmetric J by one eigendecomposition that serves every shift a, in
O(n^2) a solve (Golub & Van Loan on shifted systems; Hansen's one SVD for
a whole Tikhonov path). Either way the residual is certified against J.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import LinearSolveError

# Relative residual certificate for solve_shifted.
EPS_LIN = 1e-10

# Largest problem dimension the dense path is intended for.
MAX_DIM = 512

# The error state of solve_shifted, flow.integrate and oracle.solve_regularized.
# A non-finite J, a or rhs, a singular J + a*I, or an F or F' that overflows
# at a trial state makes their arithmetic warn; a residual certificate, the
# error test or the line search reports it instead. As a decorator, one
# instance serves every call: since NumPy 2 each call keeps its own token, so
# nested and concurrent calls restore the state too (hence numpy>=2).
_QUIET = np.errstate(divide="ignore", invalid="ignore", over="ignore")


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float array, rejecting NaN/Inf and bad shapes."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector contains non-finite entries")
    return v


def as_number(name: str, value) -> float:
    """A run-config number as a float; a bool, a string or an int beyond a float is a ValueError.

    This and as_count are the one rule for the numbers of Schedule,
    IntegratorConfig, NewtonConfig and RunConfig.
    """
    # bool is an int subclass: a JSON true is no number here.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as err:
        raise ValueError(f"{name}: {err}") from err


def as_count(name: str, value, minimum: int):
    """Check a config count: an integer (no bool) at least minimum, else a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@_QUIET
def solve_shifted(J, a: float, rhs, eigh=None) -> np.ndarray:
    """Solve (J + a*I) x = rhs: divide for a 1-D J, else dense LU unless given J's eigh.

    The shift a must be positive and J is expected to have a positive
    semidefinite symmetric part, which makes J + a*I invertible. J is read,
    never written, so a shared read-only Jacobian is fine. A 1-D J (a
    diagonal J's diagonal) gives rhs / (J + a), LU's numbers on np.diag(J),
    whatever eigh is; for a matrix, eigh None is dense LU, bit for bit
    np.linalg.solve(J + a*np.eye(n), rhs), and an eigendecomposition
    (lam, Q) of J, as np.linalg.eigh returns it, gives x = Q ((Q^T rhs) /
    (lam + a)). Whatever the method, the solution must pass the residual
    certificate ||J x + a x - rhs|| <= EPS_LIN * (||rhs|| + 1) against J
    itself, so the eigh of another matrix fails it. The comparison is
    written so that a NaN residual fails it, which makes it the finiteness
    check of J, a, rhs and x as well; a singular J + a*I, whose dense solve
    is NaN, fails it with no exception and no warning. A failed certificate
    raises LinearSolveError: the precondition was violated; it is never patched.

    The dense path calls np.linalg.solve's own gufunc (see the module
    docstring). It is a private NumPy name, but the bit-for-bit Hypothesis
    test against np.linalg.solve(J + a*np.eye(n), rhs) fails if NumPy ever
    changes what it computes, and an import error shows if it moves.
    """
    J = np.asarray(J, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if J.ndim not in (1, 2) or J.shape[0] != J.shape[-1]:
        raise ValueError(f"expected a square matrix or its diagonal, got shape {J.shape}")
    if b.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {b.shape}")
    n = J.shape[0]
    if n != b.shape[0]:
        raise ValueError(f"dimension mismatch: {n}x{n} vs {b.shape[0]}")
    if not a > 0.0:
        raise ValueError(f"shift must be positive, got {a}")

    if J.ndim == 1:
        x = b / (J + a)
        r = J * x + a * x - b
    elif eigh is None:
        # J + 0.0 flushes -0.0 to +0.0 off the diagonal exactly as J + a*eye does.
        shifted = J + 0.0
        shifted.flat[:: n + 1] += a
        x = _umath_linalg.solve1(shifted, b, signature="dd->d")
        r = shifted @ x - b
    else:
        lam, q = eigh
        x = q @ ((q.T @ b) / (lam + a))
        r = J @ x + a * x - b
    residual = math.sqrt(r.dot(r))
    bound = EPS_LIN * (math.sqrt(b.dot(b)) + 1.0)
    if not residual <= bound:
        raise LinearSolveError(
            f"shifted solve residual {residual:.3e} exceeds certificate {bound:.3e}; "
            "J, a or rhs is not finite, J lacks the structure the solve assumed, "
            "or the symmetric part of J is likely not positive semidefinite"
        )
    return x
