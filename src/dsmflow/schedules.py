"""Regularizer schedules a(t) with closed-form derivatives.

A schedule is admissible for the flow when a(t) stays in (0, cap) and the
ratio |a'(t)|/a(t) stays strictly below 1/2 on [0, infinity); the decay
condition a(t) -> 0 is additionally needed for the limit to solve the
unregularized equation. Both conditions are decided in closed form: the
two families (power, exponential) have exact ratio suprema, and every
schedule is nonincreasing (param >= 0), so a(t) is least at the end of a
horizon and the cap is derived, not set:
C = a0 * (1 + CAP_MARGIN), just above a(0). A schedule whose ratio
supremum lies between RATIO_WARN and the limit warns once, when built.
A constant schedule is the exponential one at rate 0: constant(a0) is
exponential(a0, 0).

value and derivative are scalar closed forms. cell_integral, the cell
term of the EQ_2_8 and EQ_3_8 envelopes in verify, calls them once per
recorded cell: at its right end for the exponential schedule, whose cell
integrals are exact, and at the nodes of an 8-panel Simpson rule for the
power schedule.

check_admissible's report explains its own verdict: reason names each
condition a failed pass_2_2 misses, and is the one text the CLI, integrate
and the EQ_2_10 certificate raise with.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .linalg import as_number

KINDS = ("power", "exponential")

# Strict admissibility limit on sup |a'|/a, and the soft threshold above
# which the residual decay rate 1 - |a'|/a gets uncomfortably close to 1/2.
RATIO_LIMIT = 0.5
RATIO_WARN = 0.45

# The cap C = a0 * (1 + CAP_MARGIN): every schedule is nonincreasing from a0.
CAP_MARGIN = 1e-6

# Simpson panels per recorded cell under a power schedule, whose cell
# integral is an incomplete gamma function.
_CELL_PANELS = 8
_CELL_WEIGHTS = [1.0] + [4.0, 2.0] * (_CELL_PANELS // 2 - 1) + [4.0, 1.0]


@dataclass(frozen=True, eq=True)
class Schedule:
    """Regularizer a(t) of one of the two closed-form families.

    kind "power"       a(t) = a0 * (1 + t)^(-param)
    kind "exponential" a(t) = a0 * exp(-param * t)   (constant at param 0)

    a0 and param must be real numbers in float range (linalg.as_number:
    a bool is none); a0 must be finite and large enough that the derived
    cap lies above it (a subnormal a0 rounds the cap back to a0), and param
    must be nonnegative: a growing schedule is rejected here, which keeps
    a(t) <= a(0) below the derived cap.
    """

    kind: str
    a0: float
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}, expected one of {KINDS}")
        if not 0.0 < as_number("a0", self.a0) < math.inf:
            raise ValueError(f"a0 must be positive and finite, got {self.a0}")
        if not self.a0 < self.cap:
            raise ValueError(
                f"a0 = {self.a0} is too small to lie below its cap a0 * (1 + {CAP_MARGIN:g})"
            )
        if not as_number("param", self.param) >= 0.0:
            raise ValueError(f"param must be nonnegative, got {self.param}")
        if RATIO_WARN + 1e-12 < self.ratio_supremum() < RATIO_LIMIT:
            warnings.warn(
                f"schedule ratio sup |a'|/a = {self.ratio_supremum():.3f} is close to the "
                "1/2 limit; the certified residual decay rate degrades accordingly",
                stacklevel=3,
            )

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
        return self.a0 * math.exp(-self.param * t)

    def derivative(self, t: float) -> float:
        """Closed-form a'(t), no finite differences."""
        if t < 0.0:
            raise ValueError(f"schedule derivative at negative time {t}")
        if self.kind == "power":
            return -self.a0 * self.param * (1.0 + t) ** (-self.param - 1.0)
        return -self.param * self.value(t)

    def cell_integral(self, t0: float, t1: float, rate: float) -> float:
        """int_{t0}^{t1} e^{rate (x - t1)} |a'(x)| dx.

        Exact for the exponential schedule, and so 0 for a constant one;
        composite Simpson with _CELL_PANELS panels for the power schedule.
        """
        dt = t1 - t0
        if self.kind == "exponential":
            # |a'(t1)| int_0^dt e^{-r v} dv with r = rate - k, by x = t1 - v;
            # the integral is dt itself at r = 0.
            r = rate - self.param
            return abs(self.derivative(t1)) * (-math.expm1(-r * dt) / r if r else dt)
        total = 0.0
        for i, weight in enumerate(_CELL_WEIGHTS):
            x = t0 + dt * (i / _CELL_PANELS)
            total += weight * math.exp(rate * (x - t1)) * abs(self.derivative(x))
        return total * dt / (3 * _CELL_PANELS)

    def ratio_supremum(self) -> float:
        """Closed-form sup over t >= 0 of |a'(t)|/a(t).

        Power: the ratio is |b|/(1+t), maximal at t = 0. Exponential: the
        ratio is constant |k|, zero for a constant schedule. abs turns a
        param of -0.0 into 0.0.
        """
        return abs(self.param)

    def decays_to_zero(self) -> bool:
        return self.param > 0.0


def power(a0: float, b: float) -> Schedule:
    return Schedule(kind="power", a0=a0, param=b)


def exponential(a0: float, k: float) -> Schedule:
    return Schedule(kind="exponential", a0=a0, param=k)


def constant(a0: float) -> Schedule:
    return exponential(a0, 0.0)


@dataclass(frozen=True)
class AdmissibilityReport:
    max_ratio: float
    positive: bool
    pass_2_2: bool
    pass_3_3: bool  # a(t) decays to zero
    horizon: float

    @property
    def reason(self) -> str:
        """Why pass_2_2 fails, naming each failed condition; "" when it holds."""
        failed = []
        if not self.max_ratio < RATIO_LIMIT:
            failed.append(f"sup |a'|/a = {self.max_ratio:.4g} must stay below {RATIO_LIMIT:g}")
        if not self.positive:
            # a(t) is nonincreasing and never negative: it underflowed to 0.
            failed.append(f"a(t_max) = a({self.horizon:g}) = 0 must be positive")
        return "schedule is inadmissible: " + "; ".join(failed) if failed else ""


def check_admissible(s: Schedule, horizon: float) -> AdmissibilityReport:
    """Certify 0 < a(t) < cap on [0, horizon] and sup |a'|/a < 1/2, plus decay to zero.

    Every schedule is nonincreasing from a(0) = a0 (param >= 0 is enforced
    at construction), so a(t) is least at the horizon and greatest at 0:
    positivity is a(horizon) > 0, which an underflowing exponential fails,
    and a0 < cap holds by construction. max_ratio is the exact supremum;
    pass_2_2 requires the strict ratio inequality together with
    positivity, pass_3_3 requires decay. The horizon must be finite: a
    constant schedule would read a(inf) = a0 * exp(-0.0 * inf) = NaN.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    max_ratio = s.ratio_supremum()
    positive = s.value(horizon) > 0.0
    return AdmissibilityReport(
        max_ratio=max_ratio,
        positive=positive,
        pass_2_2=positive and max_ratio < RATIO_LIMIT,
        pass_3_3=s.decays_to_zero(),
        horizon=horizon,
    )
