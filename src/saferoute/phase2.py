"""Retiming phase: optimal service-start schedule for a fixed route.

Once a route's visit order is settled, the only remaining freedom is
when to serve each stop within its window.  Delaying a departure past a
peak hour can lower crash and congestion exposure, so the route is
re-timed on a time-expanded graph: each stop gets up to ``m`` candidate
service-start times spread evenly over its feasible interval, a state
``p`` at the next stop is linked from state ``s`` when leaving right
after service at ``s`` reaches the stop no later than ``p``, and a
shortest path from the fixed dispatch state to the return to the depot
gives the cheapest schedule.  Every leg is driven, and charged, from
the departure right after the upstream service; a vehicle that reaches
a stop before its chosen start spends the slack waiting at that stop.

The retiming phase only picks the service starts.  The times that
follow from them (arrivals, departures, the return) come from the
routing phase's ``time_route``, the same walk that propagation uses;
a route whose given timing already serves those starts keeps it.

Costs are additive per driven arc and come from the routing phase's
``leg_cost``, the same per-leg cost that ``objective_value`` sums, so
each edge's arrival and cost follow from one ``model.leg`` reading.
The graph is built in one pass over the stops that walks no route.
Each arc's memo serves every repeated (arc, departure), so the earliest
starts, return checks and sink edges read their legs afresh and still
drive none twice.  A path's cost is therefore the route's reported
value of every objective, summed in the same order, except crash,
which reports the probability ``-expm1(-sum)`` of its log-survival sum
``sum(-ln(1 - xi))``, a monotone map: on its grid the DP's schedule is
exactly the one the reported objective ranks best.

A route the routing phase's audit passes always has a path: each
stop's grid starts at its immediate start, which the audit accepted
by the same window, return and horizon comparisons on the same floats,
so the path through the immediate starts exists, and it costs
finitely, as the model keeps every crash reading below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Instance, leg
from .phase1 import (
    OBJECTIVES,
    ObjectiveWeights,
    RouteTiming,
    RoutingSolution,
    SolutionError,
    TIME_EPS,
    leg_cost,
    return_leg_time,
    time_route,
)


class ScheduleError(ValueError):
    """Invalid retiming request."""


class ScheduleInfeasibleError(ScheduleError):
    """The route admits no schedule inside its windows and horizon."""


@dataclass(frozen=True)
class ScheduleGraph:
    """Time-expanded graph of one route.

    ``times[p]`` are the sorted candidate service-start instants of
    position ``p`` (position 0 is the depot with the single dispatch
    instant).  ``edges[p]`` links position ``p-1`` states to position
    ``p`` states as (prev_index, cur_index, cost) triples; the return
    to the depot is a single implicit sink reached via ``sink_edges`` =
    (prev_index, cost) pairs.
    """

    times: tuple[tuple[float, ...], ...]
    edges: tuple[tuple[tuple[int, int, float], ...], ...]
    sink_edges: tuple[tuple[int, float], ...]

    def path_count_bound(self) -> int:
        """Upper bound on source-to-sink paths: product of grid sizes."""
        n = 1
        for ts in self.times[1:]:
            n *= len(ts)
        return n


def _grid(lo: float, hi: float, m: int) -> tuple[float, ...]:
    if m == 1 or hi <= lo:
        return (lo,)
    step = (hi - lo) / (m - 1)
    pts = [lo + k * step for k in range(m)]
    pts[-1] = hi
    out: list[float] = []
    for p in pts:
        if not out or p > out[-1]:
            out.append(p)
    return tuple(out)


def build_schedule_graph(route: tuple[int, ...], instance: Instance,
                         dispatch: float, m: int,
                         weights: ObjectiveWeights | None = None,
                         objective: str = "weighted") -> ScheduleGraph:
    """Discretise a route's schedule choices into a layered DAG.

    One pass over the stops builds each layer from the one before and
    walks no route: the leg from the immediate departure gives each
    stop's earliest start, as ``time_route`` serves it.

    Args:
        route: visited vertex ids, the depot at both ends implicit.
        instance: the instance the route visits.
        dispatch: fixed depot departure instant (hour of day).
        m: candidate service starts per stop, >= 1.
        weights: crash/TTI mix used when ``objective='weighted'``;
            ``None`` means the default ``ObjectiveWeights()``.
        objective: cost measure, one of crash/tti/weighted/distance/time.

    Raises:
        ScheduleInfeasibleError: some stop's feasible interval is empty.
        MissingArcError: the route, return leg included, uses an arc
            absent from the graph; raised before any leg is driven.
    """
    if m < 1:
        raise ScheduleError(f"need at least one candidate time per stop, got {m}")
    if not route:
        raise ScheduleError("cannot schedule an empty route")
    if objective not in OBJECTIVES:
        raise ScheduleError(f"unknown objective {objective!r}")
    if objective == "weighted":
        weights = (weights or ObjectiveWeights()).resolved(instance)
    node_ids = (0, *route, 0)
    arcs = [instance.arc(a, b) for a, b in zip(node_ids, node_ids[1:])]
    horizon = dispatch + instance.latest_time

    times: list[tuple[float, ...]] = [(dispatch,)]
    edges: list[tuple[tuple[int, int, float], ...]] = [()]
    immediate = dispatch  # departure before the stop, all served at once
    # The loop ends at the last stop, whose ``leaving`` times and
    # ``kept`` grid points the sink edges read.
    for arc, node_id in zip(arcs, route):
        service = instance.node(arc.tail).service_time
        departs = [start + service for start in times[-1]]
        node = instance.node(node_id)
        lo = max(immediate + leg(arc, immediate)[0],
                 dispatch + node.window_open)
        hi = dispatch + node.window_close
        if lo > hi + TIME_EPS:
            raise ScheduleInfeasibleError(
                f"stop {node_id}: earliest start {lo:.6f} after window close {hi:.6f}")
        grid = _grid(lo, min(hi, horizon), m)
        # Keep only starts from which the depot stays reachable in time,
        # judged as the routing phase's audit judges it.
        leaving = [start + node.service_time for start in grid]
        kept = [k for k, depart in enumerate(leaving)
                if depart + return_leg_time(instance, node_id, depart)
                <= horizon + TIME_EPS]
        if not kept:
            raise ScheduleInfeasibleError(
                f"stop {node_id}: no start allows regaining the depot by "
                f"hour {horizon:.6f}")
        times.append(tuple(grid[k] for k in kept))
        layer = []
        for i, depart in enumerate(departs):
            duration, cost = leg_cost(objective, arc, service,
                                      leg(arc, depart), weights)
            arrive = depart + duration
            for j, nxt in enumerate(times[-1]):
                if nxt >= arrive - TIME_EPS:
                    layer.append((i, j, cost))
        edges.append(tuple(layer))
        immediate = lo + node.service_time

    # Every kept start regains the depot in time, by the very reading
    # its sink edge is charged.
    sink = tuple((i, leg_cost(objective, arcs[-1], node.service_time,
                              leg(arcs[-1], leaving[k]), weights)[1])
                 for i, k in enumerate(kept))
    return ScheduleGraph(tuple(times), tuple(edges), sink)


@dataclass(frozen=True)
class Schedule:
    """Optimal re-timing of one route: the service starts the DP chose.

    ``service_starts[k]`` is when stop ``k`` of the route is served and
    ``total_cost`` the DP's additive cost of that choice.  The times
    that follow are ``time_route(route, instance, dispatch,
    service_starts)``.
    """

    service_starts: tuple[float, ...]
    total_cost: float


def optimize_schedule(route: tuple[int, ...], instance: Instance,
                      dispatch: float, m: int,
                      weights: ObjectiveWeights | None = None,
                      objective: str = "weighted") -> Schedule:
    """Cheapest schedule of a route by shortest path over the state graph.

    Deterministic: ties between equal-cost schedules resolve toward
    earlier service starts, settled from the final stop backwards.
    """
    graph = build_schedule_graph(route, instance, dispatch, m, weights, objective)
    n_pos = len(graph.times)
    best: list[list[float]] = [[math.inf] * len(ts) for ts in graph.times]
    pred: list[list[int]] = [[-1] * len(ts) for ts in graph.times]
    best[0][0] = 0.0
    for pos in range(1, n_pos):
        for i, j, cost in graph.edges[pos]:
            cand = best[pos - 1][i] + cost
            if cand < best[pos][j]:
                best[pos][j] = cand
                pred[pos][j] = i
    sink_cost = math.inf
    sink_pred = -1
    for i, cost in graph.sink_edges:
        cand = best[-1][i] + cost
        if cand < sink_cost:
            sink_cost = cand
            sink_pred = i
    if sink_pred < 0:
        raise ScheduleInfeasibleError("sink unreachable in schedule graph")

    indices = [0] * n_pos
    indices[-1] = sink_pred
    for pos in range(n_pos - 1, 0, -1):
        indices[pos - 1] = pred[pos][indices[pos]]
    starts = tuple(graph.times[pos][indices[pos]] for pos in range(1, n_pos))
    return Schedule(starts, sink_cost)


def schedule_solution(solution: RoutingSolution, instance: Instance, m: int,
                      weights: ObjectiveWeights | None = None,
                      objective: str = "weighted", *,
                      memo: dict[tuple[int, ...], RouteTiming],
                      ) -> RoutingSolution:
    """Re-time every route of a solution and return the re-timed solution.

    The DP picks each route's service starts (an empty route has none),
    and ``time_route`` turns them into the route's timing, the only
    thing kept of the DP's answer: its starts are the timing's
    ``service_start``s and its cost the ``leg_cost`` sum over the
    timing's legs.  A timed solution's own timing of a route is kept
    when its service starts equal the DP's, as then it is the very
    timing that walk would give; so each timing in ``solution.timings``
    must come from ``time_route`` at ``solution.dispatch``.

    ``memo`` maps each route retimed so far to its timing, shared only
    by calls with the same instance, dispatch, ``m``, weights and
    objective.  A route found there reuses its timing; any other is
    retimed here and stored, unless it admits no schedule: that raises
    ``ScheduleInfeasibleError`` every time.
    """
    if solution.dispatch is None:
        raise SolutionError("schedule needs a dispatched solution")
    given = solution.timings or (None,) * len(solution.routes)
    timings = []
    for route, held in zip(solution.routes, given):
        timing = memo.get(route)
        if timing is None:
            starts = optimize_schedule(route, instance, solution.dispatch, m,
                                       weights, objective).service_starts \
                if route else ()
            if held is not None and starts == tuple(
                    stop.service_start for stop in held.stops):
                timing = memo[route] = held
            else:
                timing = memo[route] = time_route(
                    route, instance, solution.dispatch, starts)
        timings.append(timing)
    return RoutingSolution(solution.routes, solution.dispatch, tuple(timings))
