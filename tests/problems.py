"""Monotone problems beyond the gallery, for property tests.

F(u) = M u + g(u) with M a PSD matrix plus a skew one and g a nondecreasing
function applied componentwise, so <F(u) - F(v), u - v> >= 0 everywhere.
"""

import numpy as np

from dsmflow.operators import OperatorProblem

# Nondecreasing componentwise terms g and their derivatives. "holder" has a
# derivative 1.5 |u|^(1/2) that is only Hoelder-1/2 continuous at 0.
MONOTONE_TERMS = {
    "cube": (lambda u: u**3, lambda u: 3.0 * u**2),
    "sinh": (np.sinh, np.cosh),
    "holder": (lambda u: np.sign(u) * np.abs(u) ** 1.5, lambda u: 1.5 * np.sqrt(np.abs(u))),
}


def psd_plus_skew(rng, n):
    """B B^T / n + (C - C^T) / 2 for standard normal B and C."""
    b = rng.standard_normal((n, n))
    c = rng.standard_normal((n, n))
    return b @ b.T / n + 0.5 * (c - c.T)


def monotone_problem(m, term, y):
    """F(u) = m u + g(u) with g = MONOTONE_TERMS[term], and f = F(y)."""
    g, dg = MONOTONE_TERMS[term]

    def fun(u):
        return m @ u + g(u)

    return OperatorProblem(
        name=f"psd_skew_{term}",
        dim=m.shape[0],
        fun=fun,
        jac=lambda u: m + np.diag(dg(u)),
        rhs=fun(y),
        symmetric_jacobian=False,
        minimal_norm_solution=y,
    )
