"""Spans and counts around dsmflow's public functions, recorded from outside.

Each function is wrapped where it is looked up: ``solve_shifted`` is
imported by name into ``flow`` and ``oracle``, and ``cli`` imports
``integrate`` and the ``check_*`` functions by name, so those module
attributes are patched, not only the defining module's. ``fun`` and
``jac`` are wrapped on the problem that a patched ``make_problem``
returns. ``Schedule.value`` and ``Schedule.derivative`` run millions of
times, so they are counted, not timed.

Spans (name, parent, start, end, size) stay in memory as flat arrays;
layer totals and self times (a span's duration minus its direct
children's) are computed from them after the run.
"""

from __future__ import annotations

import dataclasses
import statistics
from array import array
from time import perf_counter

import dsmflow.cli
import dsmflow.flow
import dsmflow.operators
import dsmflow.oracle
import dsmflow.schedules
import dsmflow.verify

SOLVE_FLOW = "linalg.solve.flow"
SOLVE_ORACLE = "linalg.solve.oracle"
FUN = "operators.fun"
JAC = "operators.jac"
INTEGRATE = "flow.integrate"
SOLVE_REG = "oracle.solve_regularized"
CLI_VERIFY = "cli.verify"

# (module, attribute, span name) for every lookup site of a timed function.
_SPANS = (
    (dsmflow.flow, "solve_shifted", SOLVE_FLOW),
    (dsmflow.oracle, "solve_shifted", SOLVE_ORACLE),
    (dsmflow.cli, "check_monotone", "operators.check_monotone"),
    (dsmflow.cli, "check_admissible", "schedules.check_admissible"),
    (dsmflow.flow, "check_admissible", "schedules.check_admissible"),
    (dsmflow.verify, "check_admissible", "schedules.check_admissible"),
    (dsmflow.flow, "residual_dynamics_check", "flow.residual_dynamics_check"),
    (dsmflow.oracle, "solve_regularized", SOLVE_REG),
    (dsmflow.verify, "solve_regularized", SOLVE_REG),
    (dsmflow.cli, "solve_regularized", SOLVE_REG),
    (dsmflow.verify, "w_along_schedule", "oracle.w_along_schedule"),
    (dsmflow.cli, "minimal_norm_limit", "oracle.minimal_norm_limit"),
    (dsmflow.oracle, "minimal_norm_limit", "oracle.minimal_norm_limit"),
    (dsmflow.cli, "lemma_2_1_sweep", "oracle.lemma_sweep"),
    (dsmflow.oracle, "lemma_2_1_sweep", "oracle.lemma_sweep"),
    (dsmflow.cli, "check_eq_2_6", "verify.eq_2_6"),
    (dsmflow.verify, "check_eq_2_6", "verify.eq_2_6"),
    (dsmflow.verify, "check_eq_2_8", "verify.eq_2_8"),
    (dsmflow.cli, "check_eq_2_10", "verify.eq_2_10"),
    (dsmflow.verify, "check_eq_2_10", "verify.eq_2_10"),
    (dsmflow.cli, "check_eq_3_8", "verify.eq_3_8"),
    (dsmflow.verify, "check_eq_3_8", "verify.eq_3_8"),
    (dsmflow.cli, "check_thm_3_1", "verify.thm_3_1"),
    (dsmflow.verify, "check_thm_3_1", "verify.thm_3_1"),
)
_INTEGRATE_SITES = (dsmflow.cli, dsmflow.flow)
_MAKE_PROBLEM_SITES = (dsmflow.cli, dsmflow.operators)

_VERIFY = ("verify.eq_2_6", "verify.eq_2_8", "verify.eq_2_10", "verify.eq_3_8", "verify.thm_3_1")


@dataclasses.dataclass
class _Integration:
    """Counts for one integrate call, read from its rhs calls."""

    span: int
    method: str
    stride: int
    rhs_calls: int = 0
    repeats: int = 0  # consecutive rhs calls at the same t
    last_t: float | None = None
    points: int = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("i")  # problem dimension of a shifted solve, else 0
        self._current = -1
        self.value_calls = 0
        self.derivative_calls = 0
        self.integrations: list[_Integration] = []
        self._flow: _Integration | None = None
        self._saved: list[tuple[object, str, object]] = []
        self.problems: list[str] = []  # failed consistency checks

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, size: int = 0) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._current)
        self.size.append(size)
        self.end.append(0.0)
        self._current = idx
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._current = self.parent[idx]

    def spanned(self, name: str, fn):
        nid = self._intern(name)
        sized = name in (SOLVE_FLOW, SOLVE_ORACLE)

        def wrapper(*args, **kwargs):
            idx = self._open(nid, len(args[2]) if sized else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def begin(self, name: str) -> int:
        """Open a span from the benchmark's own code; end it with finish()."""
        return self._open(self._intern(name))

    def finish(self, idx: int):
        self._close(idx)

    def _integrate(self, fn):
        spanned = self.spanned(INTEGRATE, fn)

        def wrapper(p, s, u0, cfg):
            rec = _Integration(span=len(self.start), method=cfg.method, stride=cfg.record_stride)
            self.integrations.append(rec)
            self._flow = rec
            try:
                traj = spanned(p, s, u0, cfg)
            finally:
                self._flow = None
            rec.points = len(traj.points)
            return traj

        return wrapper

    def _rhs(self, fn):
        def wrapper(p, s, t, u):
            rec = self._flow
            rec.rhs_calls += 1
            if t == rec.last_t:
                rec.repeats += 1
            rec.last_t = t
            return fn(p, s, t, u)

        return wrapper

    def _make_problem(self, fn):
        spanned = self.spanned("operators.make_problem", fn)

        def wrapper(*args, **kwargs):
            p = spanned(*args, **kwargs)
            return dataclasses.replace(
                p, fun=self.spanned(FUN, p.fun), jac=self.spanned(JAC, p.jac)
            )

        return wrapper

    def _counted(self, attr: str, fn):
        def wrapper(*args, **kwargs):
            setattr(self, attr, getattr(self, attr) + 1)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, obj, attr: str, new):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self):
        """Patch every lookup site; uninstall() restores the originals."""
        for mod, attr, name in _SPANS:
            self._patch(mod, attr, self.spanned(name, getattr(mod, attr)))
        for mod in _INTEGRATE_SITES:
            self._patch(mod, "integrate", self._integrate(getattr(mod, "integrate")))
        for mod in _MAKE_PROBLEM_SITES:
            self._patch(mod, "make_problem", self._make_problem(getattr(mod, "make_problem")))
        self._patch(dsmflow.flow, "rhs", self._rhs(dsmflow.flow.rhs))
        sched = dsmflow.schedules.Schedule
        self._patch(sched, "value", self._counted("value_calls", sched.value))
        self._patch(sched, "derivative", self._counted("derivative_calls", sched.derivative))

    def uninstall(self):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    # -- analysis --------------------------------------------------------

    def mark(self) -> tuple[int, int, int, int]:
        """Position in the record, to delimit one pass."""
        return len(self.start), len(self.integrations), self.value_calls, self.derivative_calls

    def layer_metrics(self, begin, end, instance_names: dict[int, str]) -> dict[str, float]:
        """Per-layer totals over the spans recorded between two marks.

        instance_names maps the index of a cli.verify span to its instance.
        """
        s0, i0, v0, d0 = begin
        s1, i1, v1, d1 = end
        ids = self._ids
        total = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        child = {}  # span index -> summed duration of its direct children
        reg_fun = {}  # solve_regularized span -> fun calls directly inside
        reg_solve = {}
        integ_solves = {}
        flops = 0
        nbytes = 0
        solve_ids = (ids.get(SOLVE_FLOW), ids.get(SOLVE_ORACLE))
        for i in range(s0, s1):
            nid = self.name[i]
            dur = self.end[i] - self.start[i]
            total[nid] += dur
            calls[nid] += 1
            par = self.parent[i]
            if par >= 0:
                child[par] = child.get(par, 0.0) + dur
                pname = self.names[self.name[par]]
                if pname == SOLVE_REG:
                    if self.names[nid] == FUN:
                        reg_fun[par] = reg_fun.get(par, 0) + 1
                    elif self.names[nid] == SOLVE_ORACLE:
                        reg_solve[par] = reg_solve.get(par, 0) + 1
                elif pname == INTEGRATE and self.names[nid] == SOLVE_FLOW:
                    integ_solves[par] = integ_solves.get(par, 0) + 1
            if nid in solve_ids:
                n = self.size[i]
                # Computed, not measured: LU 2n^3/3, two triangular solves
                # 2n^2, residual check 2n^2; bytes for forming J + aI, the
                # in-place LU and the residual matvec (8 bytes a value).
                flops += 2 * n**3 // 3 + 4 * n * n
                nbytes += 8 * (4 * n * n + 6 * n)

        def tot(name):
            return total[ids[name]] if name in ids else 0.0

        def cnt(name):
            return calls[ids[name]] if name in ids else 0

        def self_time(names):
            want = {ids[n] for n in names if n in ids}
            return sum(
                self.end[i] - self.start[i] - child.get(i, 0.0)
                for i in range(s0, s1)
                if self.name[i] in want
            )

        flows = self.integrations[i0:i1]
        accepted = rejected = 0
        for rec in flows:
            try:
                a, r = integration_steps(rec, integ_solves.get(rec.span, 0))
            except AssertionError as err:
                self.problems.append(str(err))
                continue
            accepted += a
            rejected += r
        regs = [i for i in range(s0, s1) if self.names[self.name[i]] == SOLVE_REG]
        m = {
            "linalg.solve_calls.flow": cnt(SOLVE_FLOW),
            "linalg.solve_calls.oracle": cnt(SOLVE_ORACLE),
            "linalg.solve_s.flow": tot(SOLVE_FLOW),
            "linalg.solve_s.oracle": tot(SOLVE_ORACLE),
            "linalg.flops_computed": flops,
            "linalg.bytes_computed": nbytes,
            "operators.fun_calls": cnt(FUN),
            "operators.fun_s": tot(FUN),
            "operators.jac_calls": cnt(JAC),
            "operators.jac_s": tot(JAC),
            "operators.check_monotone_s": tot("operators.check_monotone"),
            "operators.make_problem_s": tot("operators.make_problem"),
            "schedules.value_calls": v1 - v0,
            "schedules.derivative_calls": d1 - d0,
            "schedules.check_admissible_s": tot("schedules.check_admissible"),
            "flow.integrate_s": tot(INTEGRATE),
            "flow.self_s": self_time((INTEGRATE,)),
            "flow.rhs_calls": sum(r.rhs_calls for r in flows),
            "flow.steps_accepted": accepted,
            "flow.steps_rejected": rejected,
            "flow.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 0.0,
            "flow.points_recorded": sum(r.points for r in flows),
            "flow.residual_dynamics_check_s": tot("flow.residual_dynamics_check"),
            "oracle.solve_regularized_calls": cnt(SOLVE_REG),
            "oracle.solve_regularized_s": tot(SOLVE_REG),
            "oracle.newton_iters": sum(reg_solve.values()),
            # Each solve_regularized evaluates F once up front and once per
            # line-search trial; every Newton iteration ends on an accepted
            # trial, so the remaining F calls are backtracks.
            "oracle.backtracks": sum(reg_fun.get(i, 0) - 1 - reg_solve.get(i, 0) for i in regs),
            "oracle.w_along_schedule_s": tot("oracle.w_along_schedule"),
            "oracle.minimal_norm_limit_s": tot("oracle.minimal_norm_limit"),
            "oracle.lemma_sweep_s": tot("oracle.lemma_sweep"),
            **{f"{n}_s": tot(n) for n in _VERIFY},
            "verify.self_s": self_time(_VERIFY),
            "cli.self_s": self_time((CLI_VERIFY,)),
        }
        cli_id = ids.get(CLI_VERIFY)
        for i in range(s0, s1):
            if self.name[i] == cli_id:
                key = f"cli.verify_s.{instance_names[i]}"
                m[key] = m.get(key, 0.0) + self.end[i] - self.start[i]
        return m

    def write(self, path):
        """Write every span as a tab-separated line."""
        with open(path, "w") as fh:
            fh.write("index\tname\tparent\tstart\tend\tsize\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]!r}\t{self.end[i]!r}\t{self.size[i]}\n"
                )


def integration_steps(rec: _Integration, flow_solves: int) -> tuple[int, int]:
    """(accepted, rejected) steps of one integrate call, checked for consistency.

    With record_stride 1 every accepted step records one point after the
    initial one. In dp54 the last two stages of a step share t + h (c5 =
    c6 = 1) and no other consecutive pair of rhs calls shares a time, so
    the repeats count attempted steps; rk4 rejects none. Raises
    AssertionError when rhs calls, shifted solves and steps disagree:
    dp54 makes 1 + 6 * attempts rhs calls (its first stage reuses the
    previous step's last), rk4 makes 4 per step, and each rhs call makes
    one shifted solve.
    """
    if rec.stride != 1:
        raise AssertionError("step counts need record_stride 1")
    accepted = rec.points - 1
    if rec.method == "rk4":
        expected, rejected = 4 * accepted, 0
    else:
        rejected = rec.repeats - accepted
        expected = 1 + 6 * rec.repeats if rec.rhs_calls else 0
    if rec.rhs_calls != expected or flow_solves != rec.rhs_calls or rejected < 0:
        raise AssertionError(
            f"{rec.method}: rhs_calls={rec.rhs_calls} expected={expected} "
            f"solves={flow_solves} accepted={accepted} rejected={rejected}"
        )
    return accepted, rejected


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    keys = sorted({k for m in per_pass for k in m})
    return {k: statistics.median(m.get(k, 0.0) for m in per_pass) for k in keys}
