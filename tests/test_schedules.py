import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dsmflow as d
from dsmflow.schedules import KINDS, RATIO_LIMIT, Schedule


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


@pytest.mark.parametrize("kind", KINDS)
def test_a0_must_be_finite_and_below_its_cap(kind):
    # 1e309 is how JSON and float() read an a0 too large for a double: inf.
    # At 1e-320, a subnormal, a0 * (1 + CAP_MARGIN) rounds back to a0.
    with pytest.raises(ValueError, match="positive and finite"):
        Schedule(kind=kind, a0=float("1e309"), param=0.25)
    with pytest.raises(ValueError, match="below its cap"):
        Schedule(kind=kind, a0=1e-320, param=0.25)
    s = Schedule(kind=kind, a0=1e-300, param=0.25)
    assert s.a0 < s.cap


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


@pytest.mark.parametrize(
    "a0, param", [(True, 0.25), (1.0, True), (False, 0.25), ("1.0", 0.25), (1.0, "0.25"), (1.0, None)]
)
def test_schedule_numbers_must_be_numbers(a0, param):
    # bool is an int subclass, but a JSON true is no number; nothing is coerced.
    with pytest.raises(ValueError, match="must be a number"):
        Schedule(kind="power", a0=a0, param=param)


def test_schedule_takes_any_real_number():
    assert Schedule(kind="power", a0=1, param=np.float32(0.25)).value(15.0) == pytest.approx(0.5)


def test_warning_near_ratio_limit():
    # The warning depends on the schedule alone: construction emits it once,
    # and check_admissible adds none.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = d.exponential(1.0, 0.47)
        built = len(caught)
        report = d.check_admissible(s, horizon=10.0)
    assert built == 1 and len(caught) == 1
    assert "close to the 1/2 limit" in str(caught[0].message)
    assert issubclass(caught[0].category, UserWarning)
    assert report.pass_2_2


def test_no_warning_at_mild_ratio():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d.check_admissible(d.exponential(1.0, 0.44), horizon=10.0)


def test_max_ratio_is_the_exact_supremum():
    # Not a sampled |a'|/a, which carries the rounding of value and derivative.
    assert d.check_admissible(d.exponential(1.0, 0.44), horizon=32.0).max_ratio == 0.44


@settings(max_examples=200)
@given(
    st.sampled_from(KINDS),
    st.floats(1e-3, 10.0),
    st.floats(0.0, 0.6),
    st.floats(1e-3, 5000.0),
)
def test_closed_form_report_agrees_with_a_sampled_grid(kind, a0, param, horizon):
    # The closed form against a sweep of value and |a'|/a over [0, horizon];
    # a long horizon underflows the exponential, which positivity must catch.
    # The sampled ratio is read where a and a' are normal floats (or a' is
    # zero): a subnormal quotient is off by far more than rounding.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = Schedule(kind=kind, a0=a0, param=param)
    report = d.check_admissible(s, horizon=horizon)
    grid = np.linspace(0.0, horizon, 513)
    values = np.array([s.value(t) for t in grid])
    slopes = np.abs([s.derivative(t) for t in grid])
    tiny = sys.float_info.min
    normal = (values >= tiny) & ((slopes == 0.0) | (slopes >= tiny))
    sampled = np.max(slopes[normal] / values[normal], initial=0.0)
    positive = bool(np.all(values > 0.0))
    assert report.positive == positive
    assert report.max_ratio >= sampled * (1.0 - 4e-16)
    if abs(sampled - RATIO_LIMIT) > 1e-12:
        below_cap = bool(np.all(values < s.cap))
        assert report.pass_2_2 == (positive and below_cap and sampled < RATIO_LIMIT)


@settings(max_examples=200)
@given(
    st.sampled_from(KINDS),
    st.floats(1e-3, 10.0),
    st.floats(0.0, 1.0),
    st.floats(1e-3, 5000.0),
)
@example("exponential", 1.0, RATIO_LIMIT, 10.0)
@example("exponential", 1.0, 0.44, 2000.0)
@example("exponential", 1.0, 0.75, 2000.0)
def test_reason_is_empty_exactly_when_pass_2_2_holds(kind, a0, param, horizon):
    # Each clause of the reason names one failed condition, and no other.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = Schedule(kind=kind, a0=a0, param=param)
    report = d.check_admissible(s, horizon=horizon)
    assert (report.reason == "") == report.pass_2_2
    assert ("sup |a'|/a" in report.reason) == (not s.ratio_supremum() < RATIO_LIMIT)
    assert ("must be positive" in report.reason) == (s.value(horizon) == 0.0)


def test_dict_round_trip():
    s = d.exponential(0.7, 0.3)
    assert Schedule(**asdict(s)) == s


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
