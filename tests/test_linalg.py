import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dsmflow as d
from dsmflow.errors import LinearSolveError
from dsmflow.linalg import as_vector
from oracles import dense_shifted_solve, inverse_2x2


def test_as_vector_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([np.nan, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([1.0, np.inf])


def test_vectors_must_be_one_dimensional():
    with pytest.raises(ValueError, match="1-D"):
        as_vector(np.ones((2, 2)))
    with pytest.raises(ValueError, match="1-D"):
        as_vector(3.0)


def test_solve_shifted_zero_jacobian_is_scalar_shift():
    x = d.solve_shifted(np.zeros((2, 2)), 2.0, [4.0, 6.0])
    np.testing.assert_allclose(x, [2.0, 3.0], rtol=1e-14)


def test_solve_shifted_identity_jacobian():
    x = d.solve_shifted(np.eye(1), 1.0, [4.0])
    np.testing.assert_allclose(x, [2.0], rtol=1e-14)


def test_solve_shifted_skew_case_against_2x2_inverse():
    # Independent oracle: invert I + J by the adjugate formula first.
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rhs = np.array([1.0, 1.0])
    expected = inverse_2x2(np.eye(2) + skew) @ rhs
    np.testing.assert_allclose(expected, [0.0, 1.0], atol=1e-15)
    x = d.solve_shifted(skew, 1.0, rhs)
    np.testing.assert_allclose(x, expected, atol=1e-14)


def test_solve_shifted_rank_deficient_with_moderate_shift():
    x = d.solve_shifted(np.diag([1.0, 0.0]), 0.5, [1.5, 1.0])
    np.testing.assert_allclose(x, [1.0, 2.0], rtol=1e-12)


def test_solve_shifted_requires_positive_shift():
    with pytest.raises(ValueError, match="positive"):
        d.solve_shifted(np.eye(2), 0.0, [1.0, 1.0])


def test_solve_shifted_rejects_bad_shapes():
    with pytest.raises(ValueError, match="square"):
        d.solve_shifted(np.ones((2, 3)), 1.0, [1.0, 1.0])
    with pytest.raises(ValueError, match="1-D"):
        d.solve_shifted(np.eye(2), 1.0, np.ones((2, 1)))
    with pytest.raises(ValueError, match="mismatch"):
        d.solve_shifted(np.eye(2), 1.0, [1.0, 1.0, 1.0])


# The residual certificate is solve_shifted's only finiteness check, and
# each of these must fail it. J = [[inf, 0], [0, 1]] has the finite
# solution x = [0, 0.5] and the residual [nan, 0], which `residual > bound`
# would let through; `not residual <= bound` does not.
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "j, a, rhs",
    [
        ([[np.nan, 0.0], [0.0, 1.0]], 1.0, [1.0, 1.0]),
        (np.full((3, 3), np.nan), 1.0, [1.0, 2.0, 3.0]),
        ([[np.inf, 0.0], [0.0, 1.0]], 1.0, [1.0, 1.0]),
        (np.eye(2), 1.0, [np.inf, 1.0]),
        (np.eye(2), 1.0, [np.nan, 1.0]),
        (np.eye(2), np.inf, [1.0, 1.0]),
    ],
    ids=["nan_entry", "all_nan", "inf_entry", "inf_rhs", "nan_rhs", "inf_shift"],
)
def test_solve_shifted_non_finite_input_fails_certificate(j, a, rhs):
    with pytest.raises(LinearSolveError, match="residual nan"):
        d.solve_shifted(np.array(j), a, rhs)


def test_solve_shifted_exactly_singular_reports_violation():
    # J = -I with a = 1 makes J + aI the zero matrix.
    with pytest.raises(LinearSolveError):
        d.solve_shifted(-np.eye(2), 1.0, [1.0, 1.0])


@given(st.integers(0, 10_000))
def test_solve_shifted_multiply_back(seed):
    # PSD symmetric part (spectrum in [0.05, 4]) plus a skew perturbation.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sym = (q * rng.uniform(0.05, 4.0, n)) @ q.T
    m = rng.standard_normal((n, n))
    j = sym + 0.5 * (m - m.T)
    a = 10.0 ** rng.uniform(-6, 1)
    rhs = rng.standard_normal(n)
    x = d.solve_shifted(j, a, rhs)
    back = (j + a * np.eye(n)) @ x
    assert np.linalg.norm(back - rhs) <= 10.0 * d.EPS_LIN * (np.linalg.norm(rhs) + 1.0)


def test_solve_shifted_flushes_negative_zeros_like_dense_formula():
    # J + a*eye(n) turns the off-diagonal -0.0 into +0.0, and that shows in
    # the sign of x[1]; a plain copy of J would give -0.0 there.
    j = np.array([[1.0, -0.0], [-0.0, 0.5]])
    x = d.solve_shifted(j, 0.5, [-0.0, -0.0])
    assert x.tobytes() == dense_shifted_solve(j, 0.5, [-0.0, -0.0]).tobytes()
    assert not np.signbit(x[1])


def _shifted_solve_case(kind, n, seed):
    """A monotone J of the given kind (PSD plus skew, or diagonal or banded
    with -0.0 off the band) and a right-hand side."""
    rng = np.random.default_rng(seed)
    if kind == "psd_skew":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = rng.standard_normal((n, n))
        j = (q * rng.uniform(0.05, 4.0, n)) @ q.T + 0.5 * (m - m.T)
    elif kind == "diagonal":
        j = np.full((n, n), -0.0)
        diag = rng.uniform(0.0, 4.0, n)
        diag[rng.uniform(size=n) < 0.3] = -0.0
        j[np.arange(n), np.arange(n)] = diag
    else:
        # Scaled second difference (PSD) plus a skew bidiagonal, every entry
        # off the band a negative zero.
        c, k = rng.uniform(0.1, 2.0, 2)
        j = np.full((n, n), -0.0)
        j[np.arange(n), np.arange(n)] = c
        j[np.arange(n - 1), np.arange(1, n)] = -0.5 * c + k
        j[np.arange(1, n), np.arange(n - 1)] = -0.5 * c - k
    # Signed zeros in rhs make the sign of a zero in J + a*I show in x.
    rhs = rng.standard_normal(n)
    zeros = rng.uniform(size=n) < 0.3
    rhs[zeros] = np.where(rng.uniform(size=zeros.sum()) < 0.5, 0.0, -0.0)
    return j, rhs


@given(
    st.sampled_from(["psd_skew", "diagonal", "banded_negative_zero"]),
    st.integers(1, 30),
    st.floats(1e-8, 10.0),
    st.integers(0, 10_000),
)
def test_solve_shifted_matches_dense_formula_bitwise(kind, n, a, seed):
    j, rhs = _shifted_solve_case(kind, n, seed)
    j_bytes = j.tobytes()
    expected = dense_shifted_solve(j, a, rhs)
    x = d.solve_shifted(j, a, rhs)
    # Bit for bit, signs of zeros included; J is left untouched.
    assert x.tobytes() == expected.tobytes()
    assert j.tobytes() == j_bytes
    j.setflags(write=False)
    assert d.solve_shifted(j, a, rhs).tobytes() == expected.tobytes()
