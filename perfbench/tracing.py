"""In-memory tracing of saferoute's public functions, installed from outside.

The package carries no instrumentation of its own, so the benchmark
wraps the functions it wants to see.  A wrapper has to sit in the
namespace of the module that *calls* the function: ``solver`` imports
``propagate_schedule`` by name, so replacing ``phase1.propagate_schedule``
would never be seen from the solver.  ``Instrumentation`` swaps the
wrappers in, and ``restore`` puts every original back.

Two kinds of wrapper exist:

* span wrappers record (operation, id, parent, name, start, end, self)
  for calls that happen at most thousands of times per solve;
* leaf wrappers (``model.traverse`` and ``Instance.customers``, called
  hundreds of thousands of times per R101 solve) only add to a count
  and a total time, and charge that time to the enclosing span, so
  memory stays bounded while self times stay exact.

Wrappers record into ``Instrumentation.tracer``; while it is None they
pass straight through, which is how the benchmark's own correctness
checks stay out of the counts.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from saferoute import instances, model, oracle, phase2, queueing, solver

#: Rejection reasons of ``solver.evaluate``: the two structural ones and
#: every ``Violation.constraint`` kind that ``check_feasibility`` emits.
REJECT_REASONS = ("missing-arc", "schedule-infeasible", "visit-count",
                  "route-shape", "fleet-size", "capacity", "window",
                  "non-negative", "horizon-return", "horizon")


class Tracer:
    """Spans and counters of one traced phase, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (op, id, parent, name, start, end, self)
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.routes_seen: set = set()
        self.op = -1
        self._stack: list[list] = []   # [id, name, start, child_seconds]
        self._eval_reason: list[str | None] | None = None

    def begin(self, name: str) -> None:
        self._stack.append([len(self.spans) + len(self._stack), name,
                            time.perf_counter(), 0.0])

    def end(self) -> float:
        span_id, name, start, child = self._stack.pop()
        stop = time.perf_counter()
        duration = stop - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((self.op, span_id, parent, name, start, stop,
                           duration - child))
        self.counts[name + ".calls"] += 1
        self.seconds[name] += duration
        return duration

    def leaf(self, name: str, duration: float) -> None:
        self.counts[name + ".calls"] += 1
        self.seconds[name] += duration
        if self._stack:
            self._stack[-1][3] += duration

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, plus the leaf totals."""
        out: defaultdict = defaultdict(float)
        for span in self.spans:
            out[span[3]] += span[6]
        for name in LEAVES:
            out[name] += self.seconds[name]
        return dict(out)


LEAVES = ("model.traverse", "model.customers")


class Instrumentation:
    """Installs tracing wrappers into saferoute's modules and removes them."""

    def __init__(self) -> None:
        self.tracer: Tracer | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def _swap(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracing wrappers are already installed")
        span = self._span_wrapper
        # model: traverse is reached through model's globals by
        # travel_time, tti_at and crash_at; augment through ensure_augmented.
        self._swap(model, "traverse", self._traverse_wrapper(model.traverse))
        self._swap(model.Instance, "customers",
                   self._leaf_wrapper("model.customers",
                                      model.Instance.customers))
        self._swap(model, "augment_depot",
                   span("model.augment", model.augment_depot))
        # set-up entry points the benchmark itself calls
        for attr in ("load_case_study", "load_solomon", "generate_instance"):
            self._swap(instances, attr,
                       span("instances.load", getattr(instances, attr)))
        self._swap(queueing, "calibrate",
                   span("queueing.calibrate", queueing.calibrate))
        self._swap(queueing, "build_speed_profile",
                   span("queueing.profile", queueing.build_speed_profile))
        # phase1 and phase2 as the solver imports them
        self._swap(solver, "propagate_schedule",
                   self._propagate_wrapper(solver.propagate_schedule))
        self._swap(solver, "check_feasibility",
                   self._audit_wrapper(solver.check_feasibility))
        self._swap(solver, "objective_value",
                   span("phase1.objective", solver.objective_value))
        self._swap(solver, "schedule_solution",
                   span("phase2.schedule_solution", solver.schedule_solution))
        self._swap(phase2, "optimize_schedule",
                   self._schedule_wrapper(phase2.optimize_schedule))
        self._swap(phase2, "build_schedule_graph",
                   self._graph_wrapper(phase2.build_schedule_graph))
        # solver internals reached through the solver's globals
        self._swap(solver, "evaluate", self._evaluate_wrapper(solver.evaluate))
        self._swap(solver, "make_feasible",
                   self._repair_wrapper(solver.make_feasible))
        self._swap(solver, "initial_solution",
                   span("solver.construct", solver.initial_solution))
        self._swap(solver, "acceptance",
                   self._accept_wrapper(solver.acceptance))
        self._swap(oracle, "enumerate_routes",
                   self._enumerate_wrapper(oracle.enumerate_routes))

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            tr = self.tracer
            if tr is None:
                return fn(*args, **kwargs)
            tr.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end()
        return wrapper

    def _leaf_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            tr = self.tracer
            if tr is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tr.leaf(name, time.perf_counter() - start)
        return wrapper

    def _traverse_wrapper(self, fn):
        def wrapper(arc, depart):
            tr = self.tracer
            if tr is None:
                return fn(arc, depart)
            start = time.perf_counter()
            result = fn(arc, depart)
            tr.leaf("model.traverse", time.perf_counter() - start)
            tr.counts["model.traverse.segments"] += len(result.segments)
            return result
        return wrapper

    def _propagate_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            tr = self.tracer
            if tr is None:
                return fn(*args, **kwargs)
            tr.begin("phase1.propagate")
            try:
                return fn(*args, **kwargs)
            except model.MissingArcError:
                if tr._eval_reason is not None:
                    tr._eval_reason[0] = "missing-arc"
                raise
            finally:
                tr.end()
        return wrapper

    def _audit_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            tr = self.tracer
            if tr is None:
                return fn(*args, **kwargs)
            tr.begin("phase1.audit")
            try:
                violations = fn(*args, **kwargs)
            finally:
                tr.end()
            if violations and tr._eval_reason is not None:
                tr._eval_reason[0] = violations[0].constraint
            return violations
        return wrapper

    def _schedule_wrapper(self, fn):
        def wrapper(route, instance, dispatch, m, weights=None,
                    objective="weighted"):
            tr = self.tracer
            if tr is None:
                return fn(route, instance, dispatch, m, weights, objective)
            tr.routes_seen.add((instance.name, tuple(route), dispatch,
                                objective))
            tr.begin("phase2.schedule")
            try:
                return fn(route, instance, dispatch, m, weights, objective)
            except phase2.ScheduleInfeasibleError:
                tr.counts["phase2.schedule.infeasible"] += 1
                if tr._eval_reason is not None:
                    tr._eval_reason[0] = "schedule-infeasible"
                raise
            finally:
                tr.end()
        return wrapper

    def _graph_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            tr = self.tracer
            if tr is None:
                return fn(*args, **kwargs)
            tr.begin("phase2.graph_build")
            try:
                graph = fn(*args, **kwargs)
            finally:
                tr.end()
            tr.counts["phase2.graph_build.edges"] += \
                sum(len(layer) for layer in graph.edges) + len(graph.sink_edges)
            return graph
        return wrapper

    def _evaluate_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            tr = self.tracer
            if tr is None:
                return fn(*args, **kwargs)
            reason: list[str | None] = [None]
            tr._eval_reason = reason
            tr.begin("solver.evaluate")
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end()
                tr._eval_reason = None
            if result.feasible:
                tr.counts["solver.evaluate.feasible"] += 1
            else:
                # an unexplained rejection lands outside REJECT_REASONS
                # and fails the benchmark's self-check
                tr.counts[f"solver.reject.{reason[0] or 'unexplained'}"] += 1
            return result
        return wrapper

    def _repair_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            tr = self.tracer
            if tr is None:
                return fn(*args, **kwargs)
            tr.begin("solver.repair")
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end()
            if result is None:
                tr.counts["solver.repair.failed"] += 1
            return result
        return wrapper

    def _accept_wrapper(self, fn):
        def wrapper(delta_f, temperature, rng):
            accepted = fn(delta_f, temperature, rng)
            tr = self.tracer
            if tr is not None:
                tr.counts["solver.acceptance.calls"] += 1
                tr.counts["solver.acceptance.accepted"] += bool(accepted)
            return accepted
        return wrapper

    def _enumerate_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            tr = self.tracer
            if tr is None:
                return fn(*args, **kwargs)
            tr.begin("oracle.enumerate")
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end()
            tr.counts["oracle.enumerated"] += result.enumerated
            return result
        return wrapper


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(setup: Tracer, reference: Tracer, run: Tracer,
                      overhead_share: float) -> dict[str, float]:
    """The per-layer metric set, from the three traced phases of a run.

    Set-up layers come from one traced set-up, ``oracle.*`` from the
    traced reference computation, and everything else from one traced
    pass over the workload's operations.
    """
    c, s = run.counts, run.seconds
    traverse_calls = c["model.traverse.calls"]
    schedule_calls = c["phase2.schedule.calls"]
    graph_calls = c["phase2.graph_build.calls"]
    evaluate_calls = c["solver.evaluate.calls"]
    accept_calls = c["solver.acceptance.calls"]
    solve_self = sum(span[6] for span in run.spans
                     if span[3] == "solver.solve")
    metrics = {
        "model.traverse_calls": traverse_calls,
        "model.traverse_s": s["model.traverse"],
        "model.traverse_segments_per_call":
            _share(c["model.traverse.segments"], traverse_calls),
        "model.customers_calls": c["model.customers.calls"],
        "model.customers_s": s["model.customers"],
        "model.augment_s": setup.seconds["model.augment"],
        "instances.load_s": setup.seconds["instances.load"],
        "queueing.profile_calls": setup.counts["queueing.profile.calls"],
        "queueing.profile_s": setup.seconds["queueing.calibrate"]
        + setup.seconds["queueing.profile"],
        "phase1.propagate_calls": c["phase1.propagate.calls"],
        "phase1.propagate_s": s["phase1.propagate"],
        "phase1.audit_calls": c["phase1.audit.calls"],
        "phase1.audit_s": s["phase1.audit"],
        "phase1.objective_calls": c["phase1.objective.calls"],
        "phase1.objective_s": s["phase1.objective"],
        "phase2.schedule_calls": schedule_calls,
        "phase2.schedule_s": s["phase2.schedule"],
        "phase2.graph_build_s": s["phase2.graph_build"],
        "phase2.graph_edges_per_call":
            _share(c["phase2.graph_build.edges"], graph_calls),
        "phase2.infeasible_share":
            _share(c["phase2.schedule.infeasible"], schedule_calls),
        "phase2.route_repeat_share":
            1.0 - _share(len(run.routes_seen), schedule_calls)
            if schedule_calls else 0.0,
        "solver.solve_calls": c["solver.solve.calls"],
        "solver.solve_s": s["solver.solve"],
        "solver.evaluate_calls": evaluate_calls,
        "solver.evaluate_s": s["solver.evaluate"],
        "solver.feasible_candidate_share":
            _share(c["solver.evaluate.feasible"], evaluate_calls),
    }
    for reason in REJECT_REASONS:
        metrics[f"solver.reject.{reason}"] = c[f"solver.reject.{reason}"]
    metrics.update({
        "solver.repair_calls": c["solver.repair.calls"],
        "solver.repair_s": s["solver.repair"],
        "solver.repair_failed": c["solver.repair.failed"],
        "solver.construct_s": s["solver.construct"],
        "solver.accept_share":
            _share(c["solver.acceptance.accepted"], accept_calls),
        # solve spans' own time: everything but evaluate, repair and
        # construction (the only traced calls made directly by solve)
        "solver.anneal_self_s": solve_self,
        "oracle.enumerate_s": reference.seconds["oracle.enumerate"],
        "oracle.enumerated": reference.counts["oracle.enumerated"],
        "trace.overhead_share": overhead_share,
    })
    return metrics


def self_checks(run: Tracer, evaluations: int, operations: int) -> list[str]:
    """Consistency of the trace against itself and the solve results."""
    c = run.counts
    problems = []
    calls = c["solver.evaluate.calls"]
    classified = c["solver.evaluate.feasible"] + sum(
        c[f"solver.reject.{r}"] for r in REJECT_REASONS)
    if classified != calls:
        problems.append(f"rejections plus feasible evaluations ({classified}) "
                        f"!= evaluate calls ({calls})")
    # solve() scores without counting only in its final forced retiming
    if not evaluations <= calls <= evaluations + operations:
        problems.append(f"evaluate calls {calls} outside [{evaluations}, "
                        f"{evaluations + operations}] (sum of evaluations)")
    if c["solver.solve.calls"] != operations:
        problems.append(f"{c['solver.solve.calls']} solve spans for "
                        f"{operations} operations")
    return problems
