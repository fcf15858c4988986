"""Small independent oracles used to freeze expected values in tests.

These deliberately avoid the library's own solvers: bisection for scalar
roots, the adjugate formula for 2x2 inverses, an eigendecomposition
pseudoinverse for small symmetric matrices, and a one-node-at-a-time
Simpson rule for the certificate envelopes.
"""

import numpy as np
from scipy.integrate import simpson


def bisect_root(g, lo, hi, tol=1e-12):
    """Root of a scalar function by plain bisection; g(lo), g(hi) must bracket."""
    glo, ghi = g(lo), g(hi)
    assert glo * ghi <= 0.0, "bisection bracket does not straddle a root"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if glo * gm <= 0.0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def inverse_2x2(m):
    """Adjugate-formula inverse of a 2x2 matrix."""
    (a, b), (c, dd) = m
    det = a * dd - b * c
    assert det != 0.0
    return np.array([[dd, -b], [-c, a]]) / det


def spectral_pinv_apply(a_mat, rhs, cutoff=1e-10):
    """Minimal-norm least-squares solution via an explicit eigendecomposition.

    Only for symmetric matrices: invert eigenvalues above cutoff, zero the
    rest.
    """
    lam, q = np.linalg.eigh(a_mat)
    inv = np.where(np.abs(lam) > cutoff, 1.0 / np.where(lam == 0.0, 1.0, lam), 0.0)
    return q @ (inv * (q.T @ rhs))


def simpson_integral(f, t, panels=200):
    """Composite Simpson of a scalar f over [0, t], calling f node by node.

    The scalar rule the batched EQ_2_8 and EQ_3_8 envelope integrals must
    reproduce bit for bit; 0 for t <= 0.
    """
    if t <= 0.0:
        return 0.0
    xs = np.linspace(0.0, t, panels + 1)
    ys = np.array([f(x) for x in xs])
    return float(simpson(ys, x=xs))
