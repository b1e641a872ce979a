"""Retiming phase: optimal service-start schedule for a fixed route.

Once a route's visit order is settled, the only remaining freedom is
when to serve each stop within its window.  Delaying a departure past a
peak hour can lower crash and congestion exposure, so the route is
re-timed on a time-expanded graph: each stop gets up to ``m`` candidate
service-start times spread evenly over its feasible interval, a state
``p`` at the next stop is linked from state ``s`` when leaving right
after service at ``s`` reaches the stop no later than ``p``, and a
shortest path from the fixed dispatch state to the terminal gives the
cheapest schedule.  Every leg is driven, and charged, from the
departure right after the upstream service; a vehicle that reaches a
stop before its chosen start spends the slack waiting at that stop.

The retiming phase only picks the service starts.  The times that
follow from them (arrivals, departures, the return) come from the
routing phase's ``time_route``, the same walk that propagation uses.

Costs are additive per driven arc and come from the routing phase's
``leg_cost``, the same per-leg cost that ``objective_value`` sums, so
each edge's arrival and cost follow from one ``model.leg`` reading.
The edges out of each stop's earliest start reuse the readings that
the immediate-departure walk recorded; every other edge drives its leg
once.
A path's cost is therefore the route's reported value of every
objective, summed in the same order, except crash, which reports the
probability ``-expm1(-sum)`` of its log-survival sum ``sum(-ln(1 -
xi))``, a monotone map: on its grid the DP's schedule is exactly the
one the reported objective ranks best.
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
    ``p`` states as (prev_index, cur_index, cost) triples; the terminal
    is a single implicit sink reached via ``sink_edges`` =
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

    Args:
        route: visited vertex ids, depot and terminal implicit.
        instance: augmented instance.
        dispatch: fixed depot departure instant (hour of day).
        m: candidate service starts per stop, >= 1.
        weights: crash/TTI mix used when ``objective='weighted'``;
            ``None`` means the default ``ObjectiveWeights()``.
        objective: cost measure, one of crash/tti/weighted/distance/time.

    Raises:
        ScheduleInfeasibleError: some stop's feasible interval is empty.
        MissingArcError: the route, return leg included, uses an arc
            absent from the graph.
    """
    if m < 1:
        raise ScheduleError(f"need at least one candidate time per stop, got {m}")
    if instance.terminal_id is None:
        raise SolutionError("instance must be augmented before scheduling")
    if not route:
        raise ScheduleError("cannot schedule an empty route")
    if objective not in OBJECTIVES:
        raise ScheduleError(f"unknown objective {objective!r}")
    if objective == "weighted":
        weights = (weights or ObjectiveWeights()).resolved(instance)
    node_ids = (0, *route, instance.terminal_id)
    horizon = dispatch + instance.latest_time

    # Immediate-departure propagation pins each stop's earliest start,
    # and its recorded legs serve the edges leaving those starts.
    immediate = time_route(route, instance, dispatch)
    earliest = [stop.service_start for stop in immediate.stops]
    driven_at = [dispatch, *(stop.departure for stop in immediate.stops)]

    times: list[tuple[float, ...]] = [(dispatch,)]
    for node_id, lo in zip(route, earliest):
        node = instance.node(node_id)
        hi = dispatch + node.window_close
        if lo > hi + TIME_EPS:
            raise ScheduleInfeasibleError(
                f"stop {node_id}: earliest start {lo:.6f} after window close {hi:.6f}")
        grid = _grid(lo, min(hi, horizon), m)
        # Keep only starts from which the depot stays reachable in time,
        # judged as the routing phase's audit judges it.
        kept = []
        for start in grid:
            depart = start + node.service_time
            back = return_leg_time(instance, node_id, depart)
            if depart + back <= horizon + TIME_EPS:
                kept.append(start)
        if not kept:
            raise ScheduleInfeasibleError(
                f"stop {node_id}: no start allows regaining the depot by "
                f"hour {horizon:.6f}")
        times.append(tuple(kept))

    edges: list[tuple[tuple[int, int, float], ...]] = [()]
    for pos in range(1, len(route) + 1):
        arc = instance.arc(node_ids[pos - 1], node_ids[pos])
        service = instance.node(arc.tail).service_time
        layer = []
        for i, start in enumerate(times[pos - 1]):
            depart = start + service
            driven = immediate.legs[pos - 1] if depart == driven_at[pos - 1] \
                else leg(arc, depart)
            duration, cost = leg_cost(objective, arc, service, driven, weights)
            arrive = depart + duration
            for j, nxt in enumerate(times[pos]):
                if nxt >= arrive - TIME_EPS:
                    layer.append((i, j, cost))
        edges.append(tuple(layer))

    sink = []
    arc = instance.arc(route[-1], instance.terminal_id)
    service = instance.node(arc.tail).service_time
    for i, start in enumerate(times[-1]):
        depart = start + service
        driven = immediate.legs[-1] if depart == driven_at[-1] \
            else leg(arc, depart)
        duration, cost = leg_cost(objective, arc, service, driven, weights)
        if depart + duration <= horizon + TIME_EPS:
            sink.append((i, cost))
    if not sink:
        raise ScheduleInfeasibleError(
            f"no schedule returns to the depot by hour {horizon:.6f}")

    return ScheduleGraph(tuple(times), tuple(edges), tuple(sink))


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
        raise ScheduleInfeasibleError("terminal unreachable in schedule graph")

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
    """Re-time every route of a solution (empty routes keep their
    trivial timing) and return the re-timed solution.

    The DP picks each route's service starts, and ``time_route`` turns
    them into the route's timing, the only thing kept of the DP's
    answer: its starts are the timing's ``service_start``s and its cost
    the ``leg_cost`` sum over the timing's legs.

    ``memo`` maps each route retimed so far to its timing, shared only
    by calls with the same instance, dispatch, ``m``, weights and
    objective.  A route found there reuses its timing; any other is
    retimed here and stored, unless it admits no schedule: that raises
    ``ScheduleInfeasibleError`` every time.
    """
    if solution.dispatch is None:
        raise SolutionError("schedule needs a dispatched solution")
    timings = []
    for route in solution.routes:
        if not route:
            timings.append(time_route(route, instance, solution.dispatch))
            continue
        timing = memo.get(route)
        if timing is None:
            sched = optimize_schedule(route, instance, solution.dispatch, m,
                                      weights, objective)
            timing = memo[route] = time_route(
                route, instance, solution.dispatch, sched.service_starts)
        timings.append(timing)
    return RoutingSolution(solution.routes, solution.dispatch, tuple(timings))
