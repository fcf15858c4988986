"""Monotone problems beyond the gallery, for property tests.

F(u) = M u + g(u) with M a PSD matrix plus a skew one and g a nondecreasing
function applied componentwise, so <F(u) - F(v), u - v> >= 0 everywhere.
Two special cases state the structure of their Jacobian: a random PSD
linear F ("symmetric_constant") and a componentwise F ("diagonal").
"""

import numpy as np

from dsmflow.linalg import DIAGONAL, SYMMETRIC_CONSTANT
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
        minimal_norm_solution=y,
    )


def psd_linear_problem(rng, n):
    """F(u) = A u with A = B B^T / n for a standard normal B of random width
    1..n, so A is symmetric PSD and may be singular; f = A y."""
    b = rng.standard_normal((n, int(rng.integers(1, n + 1))))
    a_mat = b @ b.T / n
    a_mat = 0.5 * (a_mat + a_mat.T)
    a_mat.setflags(write=False)
    return OperatorProblem(
        name="random_psd_linear",
        dim=n,
        fun=lambda u: a_mat @ u,
        jac=lambda u: a_mat,
        rhs=a_mat @ rng.uniform(-1.0, 1.0, n),
        jacobian_structure=SYMMETRIC_CONSTANT,
    )


def componentwise_monotone_problem(rng, n):
    """F(u)_i = c_i u_i + g(u_i) with c_i uniform in [0, 2] (about a third of
    them 0) and g a random one of MONOTONE_TERMS; f = F(y)."""
    g, dg = MONOTONE_TERMS[rng.choice(list(MONOTONE_TERMS))]
    c = rng.uniform(0.0, 2.0, n)
    c[rng.uniform(size=n) < 0.3] = 0.0

    def fun(u):
        return c * u + g(u)

    y = rng.uniform(-1.0, 1.0, n)
    return OperatorProblem(
        name="random_componentwise",
        dim=n,
        fun=fun,
        jac=lambda u: np.diag(c + dg(u)),
        rhs=fun(y),
        minimal_norm_solution=y,
        jacobian_structure=DIAGONAL,
    )
