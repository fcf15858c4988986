import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dsmflow as d
from dsmflow.schedules import Schedule, exp_array


def test_power_value_at_zero():
    assert d.power(1.0, 0.25).value(0.0) == 1.0


def test_power_value_sixteenth_root():
    # (1 + 15)^(-1/4) = 16^(-1/4) = 1/2
    assert d.power(1.0, 0.25).value(15.0) == pytest.approx(0.5, rel=1e-15)


def test_exponential_value_at_zero():
    assert d.exponential(2.0, 0.1).value(0.0) == 2.0


def test_constant_derivative_is_zero():
    s = d.constant(1.0)
    assert s.derivative(0.0) == 0.0
    assert s.derivative(17.3) == 0.0


def test_exponential_derivative_at_zero():
    assert d.exponential(1.0, 0.1).derivative(0.0) == pytest.approx(-0.1, rel=1e-15)


def test_power_derivative_at_zero():
    # d/dt (1+t)^(-1/4) at 0 is -1/4
    assert d.power(1.0, 0.25).derivative(0.0) == pytest.approx(-0.25, rel=1e-15)


def test_negative_time_rejected():
    s = d.power(1.0, 0.25)
    with pytest.raises(ValueError):
        s.value(-0.1)
    with pytest.raises(ValueError):
        s.derivative(-0.1)


def test_bad_schedule_construction():
    with pytest.raises(ValueError):
        Schedule(kind="sqrtish", a0=1.0)
    with pytest.raises(ValueError):
        d.power(-1.0, 0.25)


def test_admissible_power_quarter():
    r = d.check_admissible(d.power(1.0, 0.25), horizon=50.0)
    assert r.max_ratio == pytest.approx(0.25, rel=1e-12)
    assert r.pass_2_2 and r.pass_3_3


def test_inadmissible_power_three_quarters():
    r = d.check_admissible(d.power(1.0, 0.75), horizon=50.0)
    assert r.max_ratio == pytest.approx(0.75, rel=1e-12)
    assert not r.pass_2_2
    assert r.pass_3_3


def test_constant_passes_ratio_but_never_decays():
    r = d.check_admissible(d.constant(1.0), horizon=50.0)
    assert r.max_ratio == 0.0
    assert r.pass_2_2
    assert not r.pass_3_3


def test_growing_schedule_rejected():
    # The cap a0 * (1 + CAP_MARGIN) holds only for a nonincreasing a(t).
    with pytest.raises(ValueError, match="nonnegative"):
        d.power(1.0, -0.25)
    with pytest.raises(ValueError, match="nonnegative"):
        d.exponential(1.0, -0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        d.power(1.0, float("nan"))


def test_warning_near_ratio_limit():
    with pytest.warns(UserWarning, match="close to the 1/2 limit"):
        d.check_admissible(d.exponential(1.0, 0.47), horizon=10.0)


def test_no_warning_at_mild_ratio():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d.check_admissible(d.exponential(1.0, 0.44), horizon=10.0)


def test_dict_round_trip():
    s = d.exponential(0.7, 0.3)
    assert Schedule.from_dict(s.to_dict()) == s


@given(st.floats(0.01, 0.49), st.floats(0.1, 10.0))
def test_power_ratio_nonincreasing(b, a0):
    s = d.power(a0, b)
    grid = np.linspace(0.0, 30.0, 40)
    ratios = [s.ratio(t) for t in grid]
    assert all(r2 <= r1 + 1e-14 for r1, r2 in zip(ratios, ratios[1:]))


@given(st.floats(0.01, 0.49), st.floats(0.1, 10.0))
def test_exponential_ratio_constant(k, a0):
    s = d.exponential(a0, k)
    grid = np.linspace(0.0, 30.0, 25)
    for t in grid:
        assert s.ratio(t) == pytest.approx(k, abs=1e-12)


@pytest.mark.parametrize(
    "s",
    [d.power(1.0, 0.25), d.power(2.0, 0.45), d.exponential(1.0, 0.3), d.constant(0.5)],
    ids=["power25", "power45", "exp30", "const"],
)
def test_derivative_matches_finite_differences(s):
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.05, 40.0, 20):
        step = 1e-6 * (1.0 + t)
        fd = (s.value(t + step) - s.value(t - step)) / (2.0 * step)
        assert s.derivative(t) == pytest.approx(fd, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize(
    "s",
    [d.power(1.0, 0.25), d.power(2.0, 0.45), d.exponential(1.0, 0.3), d.constant(0.5)],
    ids=["power25", "power45", "exp30", "const"],
)
def test_derivative_array_matches_scalar_bitwise(s):
    rng = np.random.default_rng(11)
    x = np.concatenate([[0.0], np.linspace(0.0, 40.0, 801), rng.uniform(0.0, 1e3, 2000)])
    expected = np.array([s.derivative(v) for v in x])
    assert s.derivative_array(x).tobytes() == expected.tobytes()
    block = x[:1000].reshape(25, 40)
    assert s.derivative_array(block).tobytes() == expected[:1000].tobytes()
    with pytest.raises(ValueError, match="negative time"):
        s.derivative_array(np.array([1.0, -0.5]))


LOG_DBL_MAX = math.log(sys.float_info.max)


def _math_array_inputs(values):
    """Inputs of every shape and layout the math arrays must handle, filled
    from values: 0-d, a Python float, empty, 1-D, a 32 x 201 quadrature
    block, that block in F order, and a strided slice."""
    block = np.resize(values, (32, 201))
    wide = np.resize(values, (32, 603))
    return {
        "0d": np.array(values[1]),
        "float": float(values[2]),
        "empty": np.array([]),
        "1d": np.resize(values, 7),
        "block": block,
        "f_order": np.asfortranarray(block),
        "strided": wide[::2, ::3],
    }


LAYOUTS = ["0d", "float", "empty", "1d", "block", "f_order", "strided"]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_exp_array_matches_math_exp_bitwise(layout):
    # Signed zeros, underflow to subnormals and to zero, and log(DBL_MAX).
    values = np.concatenate(
        [
            [0.0, -0.0, -745.2, -708.5, -1e3, LOG_DBL_MAX],
            np.random.default_rng(3).uniform(-40.0, 5.0, 97),
        ]
    )
    x = _math_array_inputs(values)[layout]
    expected = np.array([math.exp(v) for v in np.ravel(x).tolist()], dtype=float)
    out = exp_array(x)
    # A 0-d input gives a 0-d array, not a NumPy scalar.
    assert type(out) is np.ndarray and out.shape == np.shape(x)
    assert out.tobytes() == expected.tobytes()


def test_exp_array_overflow_is_math_range_error():
    assert math.isfinite(exp_array(np.array([LOG_DBL_MAX]))[0])
    above = np.nextafter(LOG_DBL_MAX, np.inf)
    for x in (np.array([0.0, above]), np.array(above), np.array([[1e3]])):
        with pytest.raises(OverflowError, match="math range error"):
            exp_array(x)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize(
    "s",
    [
        d.power(1.0, 0.25),
        d.power(1.0, 0.0),
        d.exponential(1.0, 0.3),
        d.exponential(2.0, 0.0),
        d.constant(0.5),
    ],
    ids=["power25", "power0", "exp30", "exp0", "const"],
)
def test_derivative_array_any_layout_matches_scalar_bitwise(s, layout):
    # A zero param makes every derivative -0.0, which tobytes() tells from
    # +0.0 and np.array_equal does not.
    values = np.concatenate(
        [[0.0, -0.0, 1e-300, 40.0], np.random.default_rng(5).uniform(0.0, 1e3, 99)]
    )
    x = _math_array_inputs(values)[layout]
    expected = np.array([s.derivative(v) for v in np.ravel(x).tolist()], dtype=float)
    out = s.derivative_array(x)
    # A 0-d input gives a 0-d array, not a NumPy scalar.
    assert type(out) is np.ndarray and out.shape == np.shape(x)
    assert out.tobytes() == expected.tobytes()

