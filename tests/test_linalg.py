import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dsmflow as d
from dsmflow import flow, oracle
from dsmflow.errors import LinearSolveError
from dsmflow.linalg import _solve_shifted, as_vector, norm
from oracles import dense_shifted_solve, inverse_2x2

EPS = np.finfo(float).eps


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


# Entries in [-1, 1]; each test sets the first to 1, so that a scale s puts
# the largest magnitude at s.
_ENTRIES = hnp.arrays(float, st.integers(1, 512), elements=st.floats(-1.0, 1.0))


@given(_ENTRIES, st.floats(1e-130, 1e150))
def test_norm_is_the_dot_product_norm_where_no_square_underflows_to_matter(v, scale):
    v[0] = 1.0
    v *= scale
    assert not v.dot(v) < 2.0**-900
    got = norm(v)
    assert type(got) is float
    assert got.hex() == math.sqrt(v.dot(v)).hex() == float(np.linalg.norm(v)).hex()


@given(_ENTRIES, st.floats(1e-320, 1e-300))
def test_norm_scales_where_the_squares_underflow(v, scale):
    # Every square underflows, so the dot-product norm reads 0.
    v[0] = 1.0
    v *= scale
    assert v.dot(v) == 0.0 < norm(v)
    expected = math.hypot(*v)
    assert abs(norm(v) - expected) <= 2 * math.ulp(expected)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "v, expected",
    [
        ([0.0], 0.0),
        ([-0.0, 0.0, -0.0], 0.0),
        ([0.0] * 512, 0.0),
        ([math.nan], math.nan),
        ([1e-300, math.nan, 2.0], math.nan),
        ([-math.inf], math.inf),
        ([1e-300, math.inf, 2.0], math.inf),
    ],
    ids=["zero", "signed-zeros", "zeros-512", "nan", "tiny-nan", "inf", "tiny-inf"],
)
def test_norm_of_zeros_and_non_finite_vectors(v, expected):
    got = norm(np.array(v))
    assert type(got) is float
    assert got.hex() == expected.hex() or math.isnan(got) and math.isnan(expected)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("v", [[1e200], [-1e200, 1e200, 3.0], [1e160] * 512])
def test_norm_overflows_to_inf_so_dp54_rejects_the_state(v):
    # Finite entries whose squares overflow: with overflow ignored, as integrate
    # runs under linalg._QUIET, the norm is inf, and dp54 rejects the state.
    with np.errstate(over="ignore"):
        assert norm(np.array(v)) == math.inf


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
    for j in (np.ones((2, 3)), np.ones((1, 2)), np.ones((2, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="square matrix or its diagonal"):
            d.solve_shifted(j, 1.0, [1.0, 1.0])
    with pytest.raises(ValueError, match="mismatch"):
        d.solve_shifted(np.ones(3), 1.0, [1.0, 1.0])
    with pytest.raises(ValueError, match="1-D"):
        d.solve_shifted(np.eye(2), 1.0, np.ones((2, 1)))
    with pytest.raises(ValueError, match="mismatch"):
        d.solve_shifted(np.eye(2), 1.0, [1.0, 1.0, 1.0])


# The residual certificate is solve_shifted's only finiteness check, and
# each of these must fail it. J = [[inf, 0], [0, 1]] has the finite
# solution x = [0, 0.5] and the residual [nan, 0], which `residual > bound`
# would let through; `not residual <= bound` does not. Warnings are errors:
# a RuntimeWarning raised as one would replace the LinearSolveError.
@pytest.mark.filterwarnings("error")
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


# The dense solve returns NaN for a singular J + aI and raises no
# LinAlgError; the NaN residual fails the certificate, with no warning.
@pytest.mark.filterwarnings("error")
def test_solve_shifted_exactly_singular_reports_violation():
    # J = -I with a = 1 makes J + aI the zero matrix.
    with pytest.raises(LinearSolveError, match="residual nan"):
        d.solve_shifted(-np.eye(2), 1.0, [1.0, 1.0])
    # A nonsymmetric J whose J + I = [[2, 4], [1, 2]] has an exactly zero
    # second pivot (2 - 0.5 * 4) in partial-pivoting LU.
    with pytest.raises(LinearSolveError, match="residual nan"):
        d.solve_shifted(np.array([[1.0, 4.0], [1.0, 1.0]]), 1.0, [1.0, 1.0])


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


def _layouts(n, seed):
    """One monotone J (PSD plus skew, integer entries) in several memory
    layouts: C order, F order, a transposed view, a strided slice, and
    the integer array itself."""
    rng = np.random.default_rng(seed)
    k = rng.integers(-3, 4, (n, n))
    m = rng.integers(-3, 4, (n, n))
    integer = k @ k.T + (m - m.T)
    base = integer.astype(float)
    strided = np.zeros((2 * n, 3 * n))
    strided[::2, 1::3] = base
    return {
        "c_order": base,
        "f_order": np.asfortranarray(base),
        "transposed_view": np.ascontiguousarray(base.T).T,
        "strided_slice": strided[::2, 1::3],
        "integer": integer,
    }


@pytest.mark.parametrize(
    "layout", ["c_order", "f_order", "transposed_view", "strided_slice", "integer"]
)
@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_dense_solve_any_layout_matches_dense_formula_bitwise(layout, n):
    # The shift goes on the diagonal whatever J's memory layout: a shifted
    # matrix built as a raveled copy would miss it for some layouts, and the
    # certificate, which checks the matrix that was factored, could not tell.
    j = _layouts(n, 10 * n)[layout]
    a = 2.5
    rhs = np.random.default_rng(n).standard_normal(n)
    expected = np.linalg.solve(j + a * np.eye(n), rhs)
    j_bytes = j.tobytes()
    assert d.solve_shifted(j, a, rhs).tobytes() == expected.tobytes()
    assert j.tobytes() == j_bytes


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
    if kind == "diagonal":
        # Its diagonal alone is divided on: LU's numbers, the sign of a zero aside.
        assert np.array_equal(d.solve_shifted(j.diagonal(), a, rhs), expected)


def _structured_case(kind, n, a, seed):
    """A J for one structured path, its eigh argument and a right-hand side
    shaped like the flow's residual.

    psd_* are symmetric PSD with a random eigenbasis: rank-deficient, or with
    a fredholm-like 1/k^2 spectrum. diagonal is a 1-D J, the diagonal of a
    diagonal matrix, with +0.0 and -0.0 entries (its eigh is None: a 1-D
    J is divided on whatever the argument is), and +0.0 and -0.0
    entries in its right-hand side. The
    right-hand side is J y + a z, as psi = F(u) + a u - f is for linear F
    with f in range(J): its null-space part is O(a), so x stays O(1) and
    the certificate can be met as a -> 1e-8.
    """
    rng = np.random.default_rng(seed)
    if kind == "diagonal":
        j = rng.uniform(0.0, 4.0, n)
        j[rng.uniform(size=n) < 0.3] = 0.0
        j[rng.uniform(size=n) < 0.3] = -0.0
        eigh = None
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        if kind == "psd_rank_deficient":
            lam = rng.uniform(0.0, 4.0, n)
            lam[rng.uniform(size=n) < 0.4] = 0.0
        else:
            lam = 1.0 / np.arange(1, n + 1) ** 2
        j = (q * lam) @ q.T
        j = 0.5 * (j + j.T)
        eigh = np.linalg.eigh(j)
    y = rng.standard_normal(n)
    rhs = (j * y if j.ndim == 1 else j @ y) + a * rng.standard_normal(n)
    if kind == "diagonal":
        rhs[rng.uniform(size=n) < 0.2] = 0.0
        rhs[rng.uniform(size=n) < 0.2] = -0.0
    return j, eigh, rhs


STRUCTURED_KINDS = ["psd_rank_deficient", "psd_fredholm", "diagonal"]


@given(
    st.sampled_from(STRUCTURED_KINDS),
    st.integers(1, 60),
    st.floats(1e-8, 10.0),
    st.integers(0, 10_000),
)
def test_structured_solves_match_dense_formula(kind, n, a, seed):
    # A 1-D J is solved by one correctly rounded division per entry, as
    # LU's back substitution on the diagonal matrix np.diag(J) is: the same
    # numbers, and the same bytes wherever they are nonzero. Where the
    # right-hand side holds a zero, the sign of that zero may differ from
    # LU's (in 4,596 of 5,000 draws; no other difference), which
    # np.array_equal does not see. The eigendecomposition and LU are both backward
    # stable, so they may differ by the first-order forward error bound,
    # 16 n eps cond(J + aI) ||x||; over 3,000 draws the largest difference
    # seen was 1.1 n eps cond ||x||.
    j, eigh, rhs = _structured_case(kind, n, a, seed)
    j_bytes = j.tobytes()
    expected = dense_shifted_solve(np.diag(j) if j.ndim == 1 else j, a, rhs)
    x = d.solve_shifted(j, a, rhs, eigh)
    assert j.tobytes() == j_bytes
    if kind == "diagonal":
        assert np.array_equal(x, expected)
        nonzero = expected != 0.0
        assert x[nonzero].tobytes() == expected[nonzero].tobytes()
    else:
        cond = (np.abs(eigh.eigenvalues).max() + a) / a
        tol = 16 * n * EPS * cond * np.linalg.norm(expected)
        assert np.linalg.norm(x - expected) <= tol


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", STRUCTURED_KINDS)
@pytest.mark.parametrize(
    "spoil",
    ["nan_entry", "inf_entry", "inf_diagonal", "nan_rhs", "inf_rhs", "inf_shift"],
)
def test_structured_non_finite_input_fails_certificate(kind, spoil):
    j, eigh, rhs = _structured_case(kind, 5, 0.5, 3)
    a = np.inf if spoil == "inf_shift" else 0.5
    # Every entry of a 1-D J is on the diagonal.
    if spoil in ("nan_entry", "inf_entry"):
        j[(1, 3)[: j.ndim]] = np.nan if spoil == "nan_entry" else np.inf
    elif spoil == "inf_diagonal":
        j[(2, 2)[: j.ndim]] = np.inf
    elif spoil in ("nan_rhs", "inf_rhs"):
        rhs[0] = np.nan if spoil == "nan_rhs" else np.inf
    # An inf entry of J meets a finite x in the product: the residual is inf.
    with pytest.raises(LinearSolveError, match="residual (nan|inf) exceeds"):
        d.solve_shifted(j, a, rhs, eigh)


@pytest.mark.parametrize("kind", STRUCTURED_KINDS)
def test_structured_solves_keep_the_argument_checks(kind):
    j, eigh, rhs = _structured_case(kind, 4, 0.5, 5)
    for a in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="positive"):
            d.solve_shifted(j, a, rhs, eigh)
    with pytest.raises(ValueError, match="square"):
        d.solve_shifted(j[:, :3] if j.ndim == 2 else j[None, :], 0.5, rhs, eigh)
    with pytest.raises(ValueError, match="1-D"):
        d.solve_shifted(j, 0.5, rhs[:, None], eigh)
    with pytest.raises(ValueError, match="mismatch"):
        d.solve_shifted(j, 0.5, rhs[:3], eigh)


def test_structure_the_jacobian_lacks_fails_certificate():
    # The certificate is taken against the J passed in, so an
    # eigendecomposition of another matrix raises instead of solving
    # another system.
    j, eigh, rhs = _structured_case("psd_fredholm", 6, 0.5, 1)
    other, _, _ = _structured_case("psd_fredholm", 6, 0.5, 2)
    with pytest.raises(LinearSolveError, match="structure"):
        d.solve_shifted(j, 0.5, rhs, np.linalg.eigh(other))
    # A nonsymmetric J: eigh reads one triangle only.
    skew = d.make_problem("skew_perturbed", dim=6).jac(None)
    with pytest.raises(LinearSolveError, match="structure"):
        d.solve_shifted(skew, 0.5, rhs, np.linalg.eigh(skew))


def test_a_one_d_jacobian_is_divided_on_whatever_the_structure():
    # A 1-D J is a diagonal: no eigh argument moves its solve off the
    # division, and its certificate is taken against J * x.
    j, _, rhs = _structured_case("diagonal", 7, 0.5, 4)
    expected = rhs / (j + 0.5)
    for eigh in (None, np.linalg.eigh(np.eye(7))):
        assert d.solve_shifted(j, 0.5, rhs, eigh).tobytes() == expected.tobytes()


# flow.rhs and the oracle's Newton step run under their caller's _QUIET, so
# they call the body, which enters no error state; the public solve_shifted
# is that body under _QUIET, entered once a call.
def test_flow_and_oracle_solve_by_the_body_without_an_error_state():
    for module in (flow, oracle):
        assert module.solve_shifted is _solve_shifted
    assert not hasattr(_solve_shifted, "__wrapped__")
    assert d.solve_shifted.__wrapped__ is _solve_shifted
    # Outside any quiet state the body warns where the public solve is silent.
    with pytest.warns(RuntimeWarning, match="solve1"), pytest.raises(LinearSolveError):
        _solve_shifted(-np.eye(2), 1.0, [1.0, 1.0])
    with pytest.warns(RuntimeWarning, match="overflow"):
        _solve_shifted(np.eye(2), 1.0, [1e200, 1e200])


@pytest.mark.filterwarnings("error")
def test_solve_shifted_overflowing_rhs_is_warning_free():
    # ||rhs||^2 overflows to inf, so the certificate retakes both norms by
    # hypot: the bound is 1.4e190, and the exact x, residual 0, passes.
    assert d.solve_shifted(np.eye(2), 1.0, [1e200, 1e200]).tolist() == [5e199, 5e199]


@pytest.mark.filterwarnings("error")
def test_solve_shifted_overflowing_rhs_still_certifies_the_solution():
    # The eigh of diag(5, 7), not of J = diag(1, 2), gives x = [1.67e199,
    # 1.25e199] against the true [5e199, 3.33e199]. Its residual, 9.1e199,
    # and ||rhs|| both square to inf; an inf bound would pass it.
    wrong_eigh = np.linalg.eigh(np.diag([5.0, 7.0]))
    for rhs in ([1e200, 1e200], [1.0, 1.0]):
        with pytest.raises(LinearSolveError, match="exceeds certificate"):
            d.solve_shifted(np.diag([1.0, 2.0]), 1.0, np.array(rhs), wrong_eigh)
    # A bound that stays inf fails whatever the residual: here ||rhs|| itself
    # overflows, and the exact x, residual 0, is not certified.
    with pytest.raises(LinearSolveError, match="residual 0.000e.00 exceeds certificate inf"):
        d.solve_shifted(np.eye(2), 1.0, [1.5e308, 1.5e308])


@given(
    st.sampled_from(["psd_skew", "banded_negative_zero", *STRUCTURED_KINDS]),
    st.integers(1, 30),
    st.floats(1e-8, 10.0),
    st.integers(0, 10_000),
)
def test_the_body_gives_the_public_solves_bytes(kind, n, a, seed):
    if kind in STRUCTURED_KINDS:
        j, eigh, rhs = _structured_case(kind, n, a, seed)
    else:
        (j, rhs), eigh = _shifted_solve_case(kind, n, seed), None
    assert _solve_shifted(j, a, rhs, eigh).tobytes() == d.solve_shifted(j, a, rhs, eigh).tobytes()
