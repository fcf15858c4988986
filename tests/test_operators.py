import dataclasses
import math

import numpy as np
import pytest

import dsmflow as d
from dsmflow.operators import FD_TOL, diag_cubic, identity, non_monotone_fixture, psd_rank_deficient

from problems import monotone_problem, psd_plus_skew


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
    p = diag_cubic(dim=1, rhs=[8.0])
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
    report = d.check_monotone(p, samples=100, radius=5.0, seed=1)
    assert report.passed, f"min pairing {report.min_pairing}"


def test_identity_monotone_pairing_is_distance_squared():
    report = d.check_monotone(d.make_problem("identity", dim=3), samples=50, seed=0)
    assert report.passed
    assert report.min_pairing >= 0.0


def test_non_monotone_fixture_fails():
    report = d.check_monotone(non_monotone_fixture(), samples=50, seed=0)
    assert not report.passed
    assert report.min_pairing < 0.0


def test_nan_operator_fails_monotonicity():
    p = dataclasses.replace(identity(dim=3), fun=lambda u: np.full(3, np.nan))
    report = d.check_monotone(p, samples=5, seed=0)
    assert not report.passed
    assert math.isnan(report.min_pairing)


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
    report = d.check_jacobian(p, np.array([1.0]), step=1e-5)
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


def test_seed_changes_psd_instance():
    p0 = d.make_problem("psd_rank_deficient", seed=0)
    p1 = d.make_problem("psd_rank_deficient", seed=1)
    assert not np.allclose(p0.rhs, p1.rhs)


def test_identity_custom_rhs():
    p = identity(dim=2, rhs=[1.0, 2.0])
    np.testing.assert_array_equal(p.minimal_norm_solution, [1.0, 2.0])


CONSTANT_JACOBIAN = ("identity", "psd_rank_deficient", "fredholm_first_kind", "skew_perturbed")


@pytest.mark.parametrize("name", CONSTANT_JACOBIAN)
def test_constant_jacobian_is_one_shared_read_only_array(name):
    p = d.make_problem(name)
    j = p.jac(np.zeros(p.dim))
    assert p.jac(np.ones(p.dim)) is j
    with pytest.raises(ValueError, match="read-only"):
        j[0, 0] = 1.0
    assert d.check_jacobian(p, np.linspace(-1.0, 1.0, p.dim)).passed


@pytest.mark.parametrize("name", sorted(set(d.GALLERY_NAMES) - set(CONSTANT_JACOBIAN)))
def test_state_dependent_jacobian_is_fresh_and_writable(name):
    p = d.make_problem(name)
    u = np.linspace(-1.0, 1.0, p.dim)
    j = p.jac(u)
    expected = j.copy()
    j[0, 0] = 123.0
    np.testing.assert_array_equal(p.jac(u), expected)
    assert d.check_jacobian(p, u).passed


def test_constant_jacobian_fact_names_the_constant_problems():
    stated = tuple(n for n in d.GALLERY_NAMES if d.make_problem(n).constant_jacobian)
    assert stated == CONSTANT_JACOBIAN


# (constant, diagonal) as each problem states them; symmetric_jacobian is
# older and checked with the rest below.
JACOBIAN_FACTS = {
    "identity": (True, True),
    "diag_cubic": (False, True),
    "psd_rank_deficient": (True, False),
    "fredholm_first_kind": (True, False),
    "skew_perturbed": (True, False),
    "convex_gradient": (False, False),
    "non_monotone_fixture": (False, False),
}


@pytest.mark.parametrize("name", sorted(JACOBIAN_FACTS))
@pytest.mark.parametrize("dim", [None, 5])
def test_jacobian_facts_hold_at_random_points(name, dim):
    # The dp54 flow solves with these facts, so each must be true wherever
    # the flow can go: constant is byte for byte, symmetric is exact, and
    # diagonal means every off-diagonal entry is zero.
    p = d.make_problem(name, dim=dim)
    assert (p.constant_jacobian, p.diagonal_jacobian) == JACOBIAN_FACTS[name]
    assert p.solve_structure is None
    off_diagonal = ~np.eye(p.dim, dtype=bool)
    rng = np.random.default_rng(len(name))
    for _ in range(10):
        u, v = rng.uniform(-3.0, 3.0, (2, p.dim))
        j = np.asarray(p.jac(u))
        if p.constant_jacobian:
            assert j.tobytes() == np.asarray(p.jac(v)).tobytes()
        if p.symmetric_jacobian:
            assert np.array_equal(j, j.T)
        if p.diagonal_jacobian:
            assert not np.any(j[off_diagonal])
