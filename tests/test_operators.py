import dataclasses
import math

import numpy as np
import pytest

import dsmflow as d
from dsmflow.operators import (
    FD_TOL,
    OperatorProblem,
    diag_cubic,
    identity,
    linear_problem,
    non_monotone_fixture,
    psd_rank_deficient,
)

from oracles import reference_check_monotone
from problems import (
    componentwise_monotone_problem,
    monotone_problem,
    psd_linear_problem,
    psd_plus_skew,
)


def test_gallery_has_six_members(stock_problems):
    assert [p.name for p in stock_problems] == list(d.GALLERY_NAMES)
    assert len(stock_problems) == 6


def test_identity_eval():
    p = d.make_problem("identity", dim=2)
    np.testing.assert_array_equal(p.fun(np.array([5.0, -3.0])), [5.0, -3.0])


def test_diag_cubic_eval():
    p = d.make_problem("diag_cubic", dim=1)
    np.testing.assert_allclose(p.fun(np.array([2.0])), [8.0])


def test_diag_cubic_custom_rhs_solution():
    p = diag_cubic(rhs=[8.0])
    np.testing.assert_allclose(p.minimal_norm_solution, [2.0], rtol=1e-15)


def test_manual_rank_deficient_semantics():
    # A = diag(1, 0), f = [1, 0]: solution [1, 0], null direction [0, 1].
    a_mat = np.diag([1.0, 0.0])
    y = np.array([1.0, 0.0])
    np.testing.assert_allclose(a_mat @ y, [1.0, 0.0])
    assert np.dot(y, [0.0, 1.0]) == 0.0


def test_psd_rank_deficient_structure():
    p = psd_rank_deficient(dim=20, seed=0)
    assert len(p.null_space_basis) == 5
    lam = np.linalg.eigvalsh(p.jac(np.zeros(20)))
    assert lam.min() > -1e-12
    assert np.sum(lam > 1e-8) == 15
    # f lies in the range: the stored solution reproduces it exactly.
    np.testing.assert_allclose(p.jac(np.zeros(20)) @ p.minimal_norm_solution, p.rhs, atol=1e-12)
    for z in p.null_space_basis:
        assert abs(np.dot(p.minimal_norm_solution, z)) < 1e-12


def test_fredholm_matrix_is_spd_and_solvable():
    p = d.make_problem("fredholm_first_kind", dim=40)
    a_mat = p.jac(np.zeros(40))
    np.testing.assert_allclose(a_mat, a_mat.T)
    lam = np.linalg.eigvalsh(a_mat)
    assert lam.min() > 0.0
    assert lam.max() / lam.min() > 1e3  # genuinely ill-conditioned
    np.testing.assert_allclose(a_mat @ p.minimal_norm_solution, p.rhs, atol=1e-15)


def test_skew_perturbed_pairing_ignores_skew_part():
    p = d.make_problem("skew_perturbed")
    j = p.jac(np.zeros(p.dim))
    assert not np.allclose(j, j.T)
    sym = 0.5 * (j + j.T)
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = rng.standard_normal(p.dim)
        assert np.dot(p.fun(u), u) == pytest.approx(np.dot(u, sym @ u), rel=1e-12)
        assert np.dot(p.fun(u), u) >= 0.0


def test_convex_gradient_jacobian_symmetric():
    p = d.make_problem("convex_gradient")
    u = np.linspace(-1.0, 1.0, p.dim)
    j = p.jac(u)
    np.testing.assert_allclose(j, j.T)


@pytest.mark.parametrize("name", d.GALLERY_NAMES)
def test_gallery_monotone(name):
    p = d.make_problem(name)
    report = d.check_monotone(p, seed=1)
    assert report.passed, f"min pairing {report.min_pairing}"


def test_identity_monotone_pairing_is_distance_squared():
    report = d.check_monotone(d.make_problem("identity", dim=3), seed=0)
    assert report.passed
    assert report.min_pairing >= 0.0


def test_non_monotone_fixture_fails():
    report = d.check_monotone(non_monotone_fixture(), seed=0)
    assert not report.passed
    assert report.min_pairing < 0.0


_NAN_IDENTITY = dataclasses.replace(identity(dim=3), fun=lambda u: np.full(3, np.nan))


def test_nan_operator_fails_monotonicity():
    report = d.check_monotone(_NAN_IDENTITY, seed=0)
    assert not report.passed
    assert math.isnan(report.min_pairing)


@pytest.mark.parametrize("scale, monotone", [(-1e200, False), (1e200, True)])
def test_monotonicity_slack_stays_finite_where_f_squares_overflow(scale, monotone):
    # ||F(u)||^2 overflows for F = scale * I: an inf slack would pass -1e200 I.
    report = d.check_monotone(linear_problem("scaled", scale * np.eye(3), np.zeros(3)), seed=0)
    assert report.passed is monotone
    assert (report.min_pairing > 0.0) is monotone


@pytest.mark.filterwarnings("error")
def test_check_monotone_is_warning_free_where_f_overflows():
    # exp(200 u) overflows in the radius-5 ball; the gate runs under
    # linalg._QUIET, as integrate and solve_regularized do, so no warning
    # escapes, and componentwise exp is monotone.
    expo = OperatorProblem(
        "expo", fun=lambda u: np.exp(200 * u), jac=lambda u: 200 * np.exp(200 * u), rhs=np.ones(3)
    )
    report = d.check_monotone(expo, seed=0)
    assert report.passed and report.min_pairing >= 0.0


def _draws():
    """(name, problem, monotone) of problems.py draws: each draw, and it
    shifted by -100 I, more than any of them gains in the radius-5 ball (on
    the diagonal of F' there at most 3 * 5^2 = 75, cosh(5) < 75 or 1.5 *
    5^0.5, plus a PSD part of norm about 4), so that every pairing is < 0."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        draws = {f"psd_linear{seed}": psd_linear_problem(rng, n)}
        draws[f"componentwise{seed}"] = componentwise_monotone_problem(rng, n)
        for term in ("cube", "sinh", "holder"):
            m = psd_plus_skew(rng, n)
            draws[f"{term}{seed}"] = monotone_problem(m, term, rng.uniform(-1.0, 1.0, n))
        for name, p in draws.items():
            yield name, p, True
            shifted = dataclasses.replace(p, fun=lambda u, f=p.fun: f(u) - 100.0 * u)
            yield f"{name}-shifted", shifted, False


# name: (problem, monotone)
_MONOTONE_CASES = {
    **{name: (d.make_problem(name), True) for name in d.GALLERY_NAMES},
    "non_monotone_fixture": (non_monotone_fixture(), False),
    "nan": (_NAN_IDENTITY, False),
    **{name: (p, monotone) for name, p, monotone in _draws()},
}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", _MONOTONE_CASES)
def test_check_monotone_agrees_with_the_pair_at_a_time_loop(name, seed):
    # The array check draws its points in another order than the loop, so
    # min_pairing differs; passed, and whether min_pairing is NaN, do not.
    p, monotone = _MONOTONE_CASES[name]
    report, ref = d.check_monotone(p, seed), reference_check_monotone(p, seed)
    assert report.passed == ref.passed == monotone
    assert math.isnan(report.min_pairing) == math.isnan(ref.min_pairing) == (name == "nan")
    assert (report.samples, report.seed) == (ref.samples, ref.seed)


@pytest.mark.parametrize("name", d.GALLERY_NAMES)
def test_gallery_jacobians_match_finite_differences(name):
    p = d.make_problem(name)
    rng = np.random.default_rng(11)
    for _ in range(3):
        report = d.check_jacobian(p, rng.uniform(-2.0, 2.0, p.dim))
        assert report.passed, f"entry error {report.max_entry_error}"


def test_cubic_jacobian_fd_error_is_step_squared():
    # ((1+h)^3 - (1-h)^3) / 2h = 3 + h^2, so the defect at step 1e-5 is 1e-10.
    p = d.make_problem("diag_cubic", dim=1)
    report = d.check_jacobian(p, np.array([1.0]))
    assert report.passed
    assert 5e-11 < report.max_entry_error < 2e-10


def test_identity_jacobian_exact():
    report = d.check_jacobian(d.make_problem("identity", dim=4), np.array([1.0, -2.0, 0.5, 3.0]))
    assert report.passed
    assert report.max_entry_error < 1e-10


def _holder_problem():
    # F(u) = A u + sign(u)|u|^(3/2), A = PSD + skew: F' is only Hoelder-1/2 at 0.
    rng = np.random.default_rng(5)
    return monotone_problem(psd_plus_skew(rng, 6), "holder", rng.standard_normal(6))


def test_holder_jacobian_passes_as_its_error_shrinks():
    # The central difference of sign(u)|u|^(3/2) at 0 is step^(1/2): far
    # above the C^2 tolerance, but halving at each quartering of the step.
    p = _holder_problem()
    u = np.zeros(p.dim)
    report = d.check_jacobian(p, u)
    assert report.passed
    assert report.max_entry_error > FD_TOL * (1.0 + np.max(np.abs(p.jac(u))))
    errors = (report.max_entry_error, *report.finer_errors)
    np.testing.assert_allclose(errors, [1e-5**0.5 / 2**k for k in range(len(errors))], rtol=1e-3)


def test_wrong_jacobian_fails_although_steps_shrink():
    p = _holder_problem()
    scaled = dataclasses.replace(p, jac=lambda u: 1.1 * p.jac(u))
    for u in (np.zeros(p.dim), np.linspace(-1.0, 1.0, p.dim)):
        report = d.check_jacobian(scaled, u)
        assert not report.passed
        assert len(report.finer_errors) == 2


def test_diagonal_of_a_full_jacobian_fails():
    # A jac that returns only the diagonal of convex_gradient's Jacobian
    # passes every shifted solve's certificate, which is taken against the
    # jac it is given, so check_jacobian is where it shows.
    p = d.make_problem("convex_gradient", dim=6)
    diagonal_only = dataclasses.replace(p, jac=lambda u: p.jac(u).diagonal().copy())
    for u in (np.zeros(6), np.linspace(-1.0, 1.0, 6)):
        assert d.check_jacobian(p, u).passed
        report = d.check_jacobian(diagonal_only, u)
        assert not report.passed
        assert report.max_entry_error == pytest.approx(0.5)


def test_nan_jacobian_fails():
    p = dataclasses.replace(identity(dim=3), jac=lambda u: np.full((3, 3), np.nan))
    assert not d.check_jacobian(p, np.zeros(3)).passed


def test_make_problem_unknown_name():
    with pytest.raises(ValueError, match="unknown problem"):
        d.make_problem("does_not_exist")


def test_make_problem_dim_bounds():
    with pytest.raises(ValueError, match="dim"):
        d.make_problem("identity", dim=0)
    with pytest.raises(ValueError, match="dim"):
        d.make_problem("identity", dim=10_000)


@pytest.mark.parametrize("name", ["identity", "fredholm_first_kind"])
@pytest.mark.parametrize("dim", [2.5, 5.0, True, "4"])
def test_make_problem_dim_is_a_count(name, dim):
    # The run config's one count rule: a float, even a whole one, a bool or
    # a string is a ValueError, not a TypeError from numpy, nor a build.
    with pytest.raises(ValueError, match="dim must be an integer >= 1"):
        d.make_problem(name, dim=dim)


def test_dim_is_stated_once():
    # dim is len(rhs): a builder's dim that disagrees with its rhs, or a
    # known vector of another shape, is refused when the problem is built.
    with pytest.raises(ValueError, match="disagrees"):
        diag_cubic(dim=4, rhs=[8.0])
    with pytest.raises(ValueError, match="disagrees"):
        identity(dim=3, rhs=[1.0, 2.0])
    assert identity(rhs=[1.0, 2.0]).dim == 2
    p = identity(dim=3)
    with pytest.raises(ValueError, match="known vector"):
        OperatorProblem("f", p.fun, p.jac, np.zeros(3), minimal_norm_solution=np.zeros(1))
    with pytest.raises(ValueError, match="known vector"):
        dataclasses.replace(p, null_space_basis=[np.ones(3), np.ones(4)])
    assert "dim" not in {f.name for f in dataclasses.fields(OperatorProblem)}


def test_linear_problem_works_out_the_structure():
    # For a matrix equal to its transpose, jac_eigh gives that matrix its
    # eigh, taken once, and any other J, even an equal copy, None. For any
    # other matrix jac_eigh is None, as for a problem built without one.
    sym = np.array([[2.0, 1.0], [1.0, 3.0]])
    p = linear_problem("sym", sym, np.ones(2))
    for got, expected in zip(p.jac_eigh(sym), np.linalg.eigh(sym)):
        assert got.tobytes() == expected.tobytes()
    assert p.jac_eigh(sym) is p.jac_eigh(sym)
    assert p.jac_eigh(sym.copy()) is None and p.jac_eigh(2.0 * sym) is None
    assert p.jac(np.zeros(2)) is sym and not sym.flags.writeable
    np.testing.assert_array_equal(p.fun(np.array([1.0, -1.0])), [1.0, -2.0])
    skew = d.make_problem("skew_perturbed").jac(np.zeros(16)).copy()
    assert linear_problem("skew", skew, np.ones(16)).jac_eigh is None
    nan = np.full((3, 3), np.nan)
    assert linear_problem("nan", nan, np.ones(3)).jac_eigh is None
    assert OperatorProblem("f", p.fun, p.jac, np.zeros(2)).jac_eigh is None


@pytest.mark.filterwarnings("error")
def test_linear_problem_of_an_all_inf_matrix_has_no_jac_eigh():
    # The matrix equals its transpose, but eigh raises LinAlgError on it:
    # jac_eigh gives it None, with no warning.
    m = np.full((3, 3), np.inf)
    p = linear_problem("inf", m, np.ones(3))
    assert p.jac_eigh(m) is None


def test_seed_changes_psd_instance():
    p0 = d.make_problem("psd_rank_deficient", seed=0)
    p1 = d.make_problem("psd_rank_deficient", seed=1)
    assert not np.allclose(p0.rhs, p1.rhs)


def test_identity_custom_rhs():
    p = identity(rhs=[1.0, 2.0])
    np.testing.assert_array_equal(p.minimal_norm_solution, [1.0, 2.0])


LINEAR_PROBLEMS = ("identity", "psd_rank_deficient", "fredholm_first_kind", "skew_perturbed")


@pytest.mark.parametrize("name", LINEAR_PROBLEMS)
def test_linear_problem_jacobian_is_one_shared_read_only_array(name):
    p = d.make_problem(name)
    j = p.jac(np.zeros(p.dim))
    assert p.jac(np.ones(p.dim)) is j
    with pytest.raises(ValueError, match="read-only"):
        j.flat[0] = 1.0
    assert d.check_jacobian(p, np.linspace(-1.0, 1.0, p.dim)).passed


@pytest.mark.parametrize("name", sorted(set(d.GALLERY_NAMES) - set(LINEAR_PROBLEMS)))
def test_state_dependent_jacobian_is_fresh_and_writable(name):
    p = d.make_problem(name)
    u = np.linspace(-1.0, 1.0, p.dim)
    j = p.jac(u)
    expected = j.copy()
    j.flat[0] = 123.0
    np.testing.assert_array_equal(p.jac(u), expected)
    assert d.check_jacobian(p, u).passed


# Whether each problem has a jac_eigh.
JACOBIAN_FACTS = {
    "identity": False,
    "diag_cubic": False,
    "psd_rank_deficient": True,
    "fredholm_first_kind": True,
    "skew_perturbed": False,
    "convex_gradient": False,
    "non_monotone_fixture": True,
}


@pytest.mark.parametrize("name", sorted(JACOBIAN_FACTS))
@pytest.mark.parametrize("dim", [None, 5])
def test_jacobian_facts_hold_at_random_points(name, dim):
    # The dp54 flow solves with jac_eigh(J), so it must be true wherever the
    # flow can go: jac returns the same exactly symmetric matrix object, whose
    # eigh jac_eigh gives it. identity and diag_cubic have none: their jac
    # is the vector of the diagonal, of shape (dim,), everywhere. dim is
    # len(rhs), an int, and a known solution has the shape of rhs.
    p = d.make_problem(name, dim=dim)
    assert (p.jac_eigh is not None) == JACOBIAN_FACTS[name]
    assert type(p.dim) is int and p.dim == p.rhs.shape[0] == (dim or p.dim)
    if p.minimal_norm_solution is not None:
        assert p.minimal_norm_solution.shape == p.rhs.shape
    shape = (p.dim,) if name in ("identity", "diag_cubic") else (p.dim, p.dim)
    rng = np.random.default_rng(len(name))
    for _ in range(10):
        u, v = rng.uniform(-3.0, 3.0, (2, p.dim))
        j = np.asarray(p.jac(u))
        assert j.shape == shape
        if p.jac_eigh is not None:
            assert p.jac(v) is j and np.array_equal(j, j.T)
            lam, q = p.jac_eigh(j)
            np.testing.assert_allclose((q * lam) @ q.T, j, rtol=0.0, atol=1e-12)


