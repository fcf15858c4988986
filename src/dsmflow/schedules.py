"""Regularizer schedules a(t) with closed-form derivatives.

A schedule is admissible for the flow when a(t) stays in (0, cap) and the
ratio |a'(t)|/a(t) stays strictly below 1/2 on [0, infinity); the decay
condition a(t) -> 0 is additionally needed for the limit to solve the
unregularized equation. Both conditions are machine-checkable here: the
three supported families (power, exponential, constant) have closed-form
ratio suprema, and a sample grid cross-checks them. Every schedule is
nonincreasing (param >= 0), so the cap is derived, not set:
C = a0 * (1 + CAP_MARGIN), just above a(0).

Array forms of the closed forms (exp_array, Schedule.derivative_array)
evaluate every transcendental through the scalar math functions, one
element at a time: NumPy's vectorized exp and power may differ from them
in the last bit, and the certificates built on these arrays must match
the scalar rule bit for bit. The elements go through map over a Python
list into np.fromiter, which makes the same scalar calls as
np.frompyfunc without its object array: about 580 us against 820 us for
a 32 x 201 block of exp (2-core Xeon). Any shape works, 0-d included, and a math range error
still raises OverflowError.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

KINDS = ("power", "exponential", "constant")

# Strict admissibility limit on sup |a'|/a, and the soft threshold above
# which the residual decay rate 1 - |a'|/a gets uncomfortably close to 1/2.
RATIO_LIMIT = 0.5
RATIO_WARN = 0.45

# The cap C = a0 * (1 + CAP_MARGIN): every schedule is nonincreasing from a0.
CAP_MARGIN = 1e-6


def _elementwise(fn, x: np.ndarray, *args) -> np.ndarray:
    """fn(element, *args) at every element of x, as a float array of x's shape."""
    x = np.asarray(x, dtype=float)
    values = map(fn, x.ravel().tolist(), *(itertools.repeat(v) for v in args))
    return np.fromiter(values, float, x.size).reshape(x.shape)


def exp_array(x: np.ndarray) -> np.ndarray:
    """Elementwise math.exp, bit for bit equal to the scalar calls."""
    return _elementwise(math.exp, x)


@dataclass(frozen=True, eq=True)
class Schedule:
    """Regularizer a(t) of one of the closed-form families.

    kind "power"       a(t) = a0 * (1 + t)^(-param)
    kind "exponential" a(t) = a0 * exp(-param * t)
    kind "constant"    a(t) = a0            (param unused)

    param must be nonnegative: a growing schedule is rejected here, which
    keeps a(t) <= a(0) below the derived cap.
    """

    kind: str
    a0: float
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}, expected one of {KINDS}")
        if not self.a0 > 0.0:
            raise ValueError(f"a0 must be positive, got {self.a0}")
        if not self.param >= 0.0:
            raise ValueError(f"param must be nonnegative, got {self.param}")

    @property
    def cap(self) -> float:
        """C = a0 * (1 + CAP_MARGIN), the level EQ_2_10's envelope uses."""
        return self.a0 * (1.0 + CAP_MARGIN)

    def value(self, t: float) -> float:
        """a(t); t must be nonnegative."""
        if t < 0.0:
            raise ValueError(f"schedule evaluated at negative time {t}")
        if self.kind == "power":
            return self.a0 * (1.0 + t) ** (-self.param)
        if self.kind == "exponential":
            return self.a0 * math.exp(-self.param * t)
        return self.a0

    def derivative(self, t: float) -> float:
        """Closed-form a'(t), no finite differences."""
        if t < 0.0:
            raise ValueError(f"schedule derivative at negative time {t}")
        if self.kind == "power":
            return -self.a0 * self.param * (1.0 + t) ** (-self.param - 1.0)
        if self.kind == "exponential":
            return -self.param * self.value(t)
        return 0.0

    def derivative_array(self, x: np.ndarray) -> np.ndarray:
        """derivative() at every element of x, bit for bit.

        Keeps the scalar operation order and evaluates exp and pow through
        math (see the module docstring). x must be nonnegative.
        """
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise ValueError("schedule derivative at negative time")
        # In place, so a 0-d x gives a 0-d array, not a NumPy scalar.
        if self.kind == "power":
            out = _elementwise(math.pow, 1.0 + x, -self.param - 1.0)
            out *= -self.a0 * self.param
            return out
        if self.kind == "exponential":
            out = exp_array(-self.param * x)
            out *= self.a0
            out *= -self.param
            return out
        return np.zeros_like(x)

    def ratio(self, t: float) -> float:
        """|a'(t)| / a(t)."""
        return abs(self.derivative(t)) / self.value(t)

    def ratio_supremum(self) -> float:
        """Closed-form sup over t >= 0 of |a'(t)|/a(t).

        Power: the ratio is |b|/(1+t), maximal at t = 0. Exponential: the
        ratio is constant |k|. Constant: zero.
        """
        if self.kind in ("power", "exponential"):
            return abs(self.param)
        return 0.0

    def decays_to_zero(self) -> bool:
        return self.kind in ("power", "exponential") and self.param > 0.0

    def to_dict(self) -> dict:
        """Config-file form {kind, a0, param}; the cap is derived."""
        return {"kind": self.kind, "a0": self.a0, "param": self.param}

    @classmethod
    def from_dict(cls, d: dict) -> "Schedule":
        return cls(kind=d["kind"], a0=float(d["a0"]), param=float(d.get("param", 0.0)))


def power(a0: float, b: float) -> Schedule:
    return Schedule(kind="power", a0=a0, param=b)


def exponential(a0: float, k: float) -> Schedule:
    return Schedule(kind="exponential", a0=a0, param=k)


def constant(a0: float) -> Schedule:
    return Schedule(kind="constant", a0=a0)


@dataclass(frozen=True)
class AdmissibilityReport:
    max_ratio: float
    positive: bool
    decays: bool
    pass_2_2: bool
    pass_3_3: bool
    horizon: float
    grid_points: int

    def to_dict(self) -> dict:
        return asdict(self)


def check_admissible(s: Schedule, horizon: float, grid_points: int = 129) -> AdmissibilityReport:
    """Certify 0 < a(t) < cap and sup |a'|/a < 1/2, plus decay to zero.

    max_ratio combines the closed-form supremum with a sample-grid sweep;
    pass_2_2 requires the strict ratio inequality together with positivity
    and the cap, pass_3_3 requires decay. Emits a warning when the ratio
    supremum exceeds RATIO_WARN, where the certified decay rate degrades.
    """
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if grid_points < 2:
        raise ValueError(f"need at least 2 grid points, got {grid_points}")

    grid = np.linspace(0.0, horizon, grid_points)
    values = np.array([s.value(t) for t in grid])
    ratios = np.array([s.ratio(t) for t in grid])
    max_ratio = max(float(ratios.max()), s.ratio_supremum())
    positive = bool(np.all(values > 0.0))
    below_cap = bool(np.all(values < s.cap))
    decays = s.decays_to_zero()

    pass_2_2 = positive and below_cap and max_ratio < RATIO_LIMIT
    if pass_2_2 and max_ratio > RATIO_WARN + 1e-12:
        warnings.warn(
            f"schedule ratio sup |a'|/a = {max_ratio:.3f} is close to the 1/2 limit; "
            "the certified residual decay rate degrades accordingly",
            stacklevel=2,
        )
    return AdmissibilityReport(
        max_ratio=max_ratio,
        positive=positive,
        decays=decays,
        pass_2_2=pass_2_2,
        pass_3_3=decays,
        horizon=horizon,
        grid_points=grid_points,
    )
