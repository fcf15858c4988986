import numpy as np
import pytest

import dsmflow as d
from dsmflow.errors import ContinuationError, NewtonError
from dsmflow.operators import OperatorProblem, diag_cubic, identity
from oracles import bisect_root, warm_started_solves


def make_diag_linear(entries, rhs):
    """Tiny hand-rolled linear problem F(u) = diag(entries) u."""
    a_mat = np.diag(np.asarray(entries, dtype=float))
    return OperatorProblem(
        name="diag_linear",
        fun=lambda u: a_mat @ u,
        jac=lambda u: a_mat.copy(),
        rhs=np.asarray(rhs, dtype=float),
    )


def test_identity_zero_rhs_solves_to_zero():
    p = d.make_problem("identity", dim=3)
    w = d.solve_regularized(p, 0.7, np.ones(3))
    np.testing.assert_allclose(w, 0.0, atol=1e-12)


def test_cubic_against_bisection_oracle():
    # Independent oracle first: root of w^3 + w - 8 on [0, 2] by bisection.
    w_ref = bisect_root(lambda w: w**3 + w - 8.0, 0.0, 2.0, tol=1e-13)
    p = diag_cubic(rhs=[8.0])
    w = d.solve_regularized(p, 1.0, np.zeros(1))
    assert w[0] == pytest.approx(w_ref, abs=1e-10)
    assert w[0] ** 3 + w[0] == pytest.approx(8.0, abs=1e-12)


def test_rank_deficient_componentwise():
    # (A_ii + a) w_i = f_i with A = diag(1, 0), f = [1, 0], a = 0.5.
    p = make_diag_linear([1.0, 0.0], [1.0, 0.0])
    w = d.solve_regularized(p, 0.5, np.zeros(2))
    np.testing.assert_allclose(w, [1.0 / 1.5, 0.0], rtol=1e-12)


def test_newton_error_names_the_iteration_cap():
    p = diag_cubic(rhs=[8.0])
    with pytest.raises(NewtonError) as exc:
        d.solve_regularized(p, 1e-3, np.zeros(1), d.NewtonConfig(tol=1e-12, max_iters=1))
    assert str(exc.value).startswith("no convergence in 1 iterations at a=0.001; residual ")


def test_line_search_stall_reports_iterations_taken():
    # F(u) = u, f = 1, a = 1. The Jacobian below is 3 (true value 1) for
    # u < 0.3, which still gives descent steps: w = 0.25, then 0.375. There
    # it turns to -3, so the third Newton direction points uphill and the
    # line search stalls in iteration 3.
    p = OperatorProblem(
        name="wrong_jacobian",
        fun=lambda u: u.copy(),
        jac=lambda u: np.array([[3.0 if u[0] < 0.3 else -3.0]]),
        rhs=np.array([1.0]),
    )
    with pytest.raises(NewtonError) as exc:
        d.solve_regularized(p, 1.0, np.zeros(1), d.NewtonConfig(max_iters=50))
    # The residual at w = 0.375 is |0.375 + 0.375 - 1|.
    assert str(exc.value) == "line search stalled at a=1 with residual 2.500e-01"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_w_init_rejected(bad):
    p = diag_cubic(rhs=[1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        d.solve_regularized(p, 0.5, [0.0, bad])


def test_w_init_shape_checked():
    p = diag_cubic(dim=2)
    with pytest.raises(ValueError, match="shape"):
        d.solve_regularized(p, 0.5, np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        d.solve_regularized(p, 0.5, np.zeros((2, 1)))


def test_w_init_neither_copied_nor_written():
    # A w_init that already meets tol comes back as the same array, and a
    # warm start that takes Newton steps leaves its w_init as it was.
    p = diag_cubic(rhs=[1.0, -2.0, 0.5])
    w = d.solve_regularized(p, 0.5, np.zeros(3))
    assert d.solve_regularized(p, 0.5, w) is w
    before = w.copy()
    d.solve_regularized(p, 0.25, w)
    assert np.array_equal(w, before)


def test_w_along_constant_schedule_is_constant():
    p = diag_cubic(dim=2)
    out = d.w_along_schedule(p, d.constant(0.5), [0.0, 1.0, 4.0])
    for _, w in out[1:]:
        np.testing.assert_allclose(w, out[0][1], atol=1e-11)


def test_w_along_schedule_identity_closed_form():
    # For F = I: w(t) = f / (1 + a(t)) componentwise.
    p = identity(rhs=[1.0])
    s = d.power(1.0, 0.25)
    out = d.w_along_schedule(p, s, [0.0, 1.0, 5.0, 15.0])
    for t, w in out:
        assert w[0] == pytest.approx(1.0 / (1.0 + s.value(t)), abs=1e-12)


def test_w_along_schedule_empty_times():
    assert d.w_along_schedule(d.make_problem("identity"), d.constant(1.0), []) == []


def test_w_along_schedule_validates_times():
    p = d.make_problem("identity")
    with pytest.raises(ValueError):
        d.w_along_schedule(p, d.constant(1.0), [-1.0])
    with pytest.raises(ValueError):
        d.w_along_schedule(p, d.constant(1.0), [2.0, 1.0])


def test_sweep_identity_closed_form():
    # a ||w_a|| = a / (1 + a), strictly increasing in a.
    p = identity(rhs=[1.0])
    grid = [2.0, 1.0, 0.5, 0.1]
    report = d.lemma_2_1_sweep(p, grid)
    np.testing.assert_allclose(report.values, [a / (1.0 + a) for a in grid], rtol=1e-12)
    assert report.monotone_nondecreasing_in_a


def test_sweep_two_point_grid():
    report = d.lemma_2_1_sweep(identity(rhs=[1.0]), [2.0, 1.0])
    assert len(report.values) == 2
    assert report.monotone_nondecreasing_in_a


def test_sweep_cubic_wide_grid():
    report = d.lemma_2_1_sweep(diag_cubic(rhs=[8.0]), [4.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.01])
    assert report.monotone_nondecreasing_in_a


def test_sweep_grid_validation():
    p = identity(rhs=[1.0])
    with pytest.raises(ValueError):
        d.lemma_2_1_sweep(p, [1.0])
    with pytest.raises(ValueError):
        d.lemma_2_1_sweep(p, [1.0, 2.0])
    with pytest.raises(ValueError):
        d.lemma_2_1_sweep(p, [1.0, -0.5])


def test_continuation_identity():
    result = d.minimal_norm_limit(identity(rhs=[3.0]))
    np.testing.assert_allclose(result.y_estimate, [3.0], atol=1e-7)
    assert result.converged
    assert all(a1 > a2 for a1, a2 in zip(result.a_values, result.a_values[1:]))


def test_continuation_rank_deficient_minimal_norm():
    result = d.minimal_norm_limit(make_diag_linear([1.0, 0.0], [1.0, 0.0]))
    np.testing.assert_allclose(result.y_estimate, [1.0, 0.0], atol=1e-7)
    assert abs(np.dot(result.y_estimate, [0.0, 1.0])) < 1e-12


def test_continuation_gallery_rank_deficient_orthogonality():
    p = d.make_problem("psd_rank_deficient")
    result = d.minimal_norm_limit(p)
    assert result.converged
    for z in p.null_space_basis:
        assert abs(np.dot(result.y_estimate, z)) < 1e-6
    np.testing.assert_allclose(result.y_estimate, p.minimal_norm_solution, atol=1e-6)


def test_continuation_cubic_reaches_cube_root():
    y_ref = bisect_root(lambda w: w**3 - 8.0, 0.0, 3.0)
    result = d.minimal_norm_limit(diag_cubic(rhs=[8.0]))
    assert result.converged
    assert result.y_estimate[0] == pytest.approx(y_ref, abs=1e-6)


def test_continuation_detects_unsolvable():
    # f has a component outside range(A): w_a = f_1/a blows up.
    p = make_diag_linear([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(ContinuationError, match="likely unsolvable"):
        d.minimal_norm_limit(p)


def test_restart_reaches_same_solution(stock_problems):
    # Uniqueness of w_a: cold start far away lands on the warm-start answer.
    cfg = d.NewtonConfig()
    for p in stock_problems:
        a = 0.3
        w1 = d.solve_regularized(p, a, np.zeros(p.dim), cfg)
        w2 = d.solve_regularized(p, a, 3.0 * np.ones(p.dim), cfg)
        assert np.linalg.norm(w1 - w2) <= 1e3 * cfg.tol / a


@pytest.mark.parametrize("a", [10.0, 0.1, 1e-3])
def test_residual_certificate_holds(stock_problems, a):
    cfg = d.NewtonConfig()
    for p in stock_problems:
        w = d.solve_regularized(p, a, np.zeros(p.dim), cfg)
        assert np.linalg.norm(p.residual(a, w)) <= cfg.tol


def _wrong_jacobian_from(threshold):
    """F(u) = u and f = 1, so w_a = 1 / (1 + a), with a Jacobian that is
    right (1) below threshold and turns to -3 from there on. A solve that
    starts below threshold lands on w_a in one step; the first solve that
    starts at or above it stalls in its line search."""
    return OperatorProblem(
        name="wrong_jacobian",
        fun=lambda u: u.copy(),
        jac=lambda u: np.array([[1.0 if u[0] < threshold else -3.0]]),
        rhs=np.array([1.0]),
    )


# (problem, Newton config) for the warm-started loop: every solve
# converges, the first fails, or one fails partway.
WARM_START_CASES = {
    "converges": lambda: (d.make_problem("diag_cubic", dim=4), d.NewtonConfig()),
    "fails_first": lambda: (d.make_problem("diag_cubic", dim=4), d.NewtonConfig(max_iters=1)),
    "fails_partway": lambda: (_wrong_jacobian_from(0.6), d.NewtonConfig()),
}
_LEVELS = [2.0**-k for k in range(28)]


@pytest.mark.parametrize("case", sorted(WARM_START_CASES))
def test_w_along_schedule_matches_a_plain_loop(case):
    p, cfg = WARM_START_CASES[case]()
    s = d.exponential(1.0, 0.44)
    times = [0.5 * k for k in range(33)]
    ws, err = warm_started_solves(p, [s.value(t) for t in times], cfg)
    if err is None:
        out = d.w_along_schedule(p, s, times, cfg)
        assert [t for t, _ in out] == times
        assert [w.tobytes() for _, w in out] == [w.tobytes() for w in ws]
        return
    assert (len(ws) == 0) == (case == "fails_first")
    with pytest.raises(NewtonError) as exc:
        d.w_along_schedule(p, s, times, cfg)
    assert str(exc.value) == f"oracle failed at t={times[len(ws)]:g}: {err}"


@pytest.mark.parametrize("case", sorted(WARM_START_CASES))
def test_lemma_2_1_sweep_matches_a_plain_loop(case):
    p, cfg = WARM_START_CASES[case]()
    grid = list(d.verify.LEMMA_GRID)
    ws, err = warm_started_solves(p, grid, cfg)
    if err is None:
        report = d.lemma_2_1_sweep(p, grid, cfg)
        assert report.values == [a * np.sqrt(w.dot(w)) for a, w in zip(grid, ws)]
        return
    assert (len(ws) == 0) == (case == "fails_first")
    with pytest.raises(NewtonError) as exc:
        d.lemma_2_1_sweep(p, grid, cfg)
    assert str(exc.value) == str(err)


@pytest.mark.parametrize("case", sorted(WARM_START_CASES))
def test_minimal_norm_limit_matches_a_plain_loop(case):
    p, cfg = WARM_START_CASES[case]()
    ws, err = warm_started_solves(p, _LEVELS, cfg)
    if err is None:
        result = d.minimal_norm_limit(p, cfg)
        assert result.a_values == _LEVELS
        assert [w.tobytes() for w in result.w_values] == [w.tobytes() for w in ws]
        assert result.y_estimate.tobytes() == ws[-1].tobytes()
        assert result.converged
        return
    assert (len(ws) == 0) == (case == "fails_first")
    with pytest.raises(ContinuationError) as exc:
        d.minimal_norm_limit(p, cfg)
    assert str(exc.value) == f"continuation failed at a={_LEVELS[len(ws)]:g}: {err}"
