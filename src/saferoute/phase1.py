"""Routing phase: solutions, schedule propagation, feasibility, objectives.

A solution assigns every customer to exactly one vehicle route.  Routes
are stored as the visited vertex ids between leaving the depot and
returning to it (both implicit), so ``(3, 1, 5)`` means depot -> 3 ->
1 -> 5 -> depot.  The depot may not appear inside a route.

Propagation turns a bare assignment into a timed solution by walking
each route from the dispatch instant with immediate departures: arrive,
wait out the window's soft lower bound if early, serve, leave.  The
retiming phase may later choose later service starts; ``time_route``
times a route either way, so both produce the same timed-solution
shape from the same walk.  It is the only walk: it records each leg's
``model.leg`` reading and audits the route, so the feasibility audit and
the objectives read a timing and never walk its route again.

Five objectives are read off a timed solution.  ``leg_cost`` turns
one driven leg (``model.leg``: its duration, TTI and crash probability
at the hour it is driven) into each objective's additive cost.  Each
objective is the sum of those costs over every driven leg, so the
retiming phase, which minimises each route's sum, minimises exactly
what ``objective_value`` reports:

* crash: probability that at least one traversal crashes,
  ``1 - prod(1 - xi)``, reported from the summed log-survival costs
  ``-ln(1 - xi)`` (a monotone map of the sum),
* tti: sum of the travel time indices charged per traversal,
* distance: classical total length,
* time: total service plus driving time, waiting excluded,
* weighted: ``w_crash * scale * sum(-ln(1 - xi)) + w_tti * sum(tti)``,
  the log-survival crash cost rescaled to TTI magnitude and mixed with
  tti.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain
from typing import NamedTuple

from .model import Arc, Instance, leg, travel_time

#: Small slack used when comparing times that should be exactly equal
#: but may differ by floating point rounding.
TIME_EPS = 1e-9

OBJECTIVES = ("crash", "tti", "weighted", "distance", "time")


class SolutionError(ValueError):
    """Malformed solution for the given instance."""


@dataclass(frozen=True)
class Violation:
    """One broken requirement, reported per vehicle and node."""

    constraint: str
    vehicle: int
    node: int | None
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f"vehicle {self.vehicle}"
        if self.node is not None:
            where += f", node {self.node}"
        return f"[{self.constraint}] {where}: {self.message}"


class NodeTiming(NamedTuple):
    """Times and load recorded at one visited vertex.

    A named tuple, not a frozen dataclass: one is built per stop of
    every walk, and a tuple costs less than half as much to build.
    """

    node: int
    arrival: float
    service_start: float
    departure: float
    load_after: float


@dataclass(frozen=True)
class RouteTiming:
    """Full timing of one vehicle's trip, with what its walk recorded.

    ``legs[k]`` is the ``model.leg`` reading (duration, TTI, crash
    probability) of the ``k``-th driven arc, the return leg last, and
    ``violations`` the route's audit verdict, reported under vehicle 0.
    """

    depot_departure: float
    initial_load: float
    stops: tuple[NodeTiming, ...]
    return_arrival: float
    legs: tuple[tuple[float, float, float], ...]
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class RoutingSolution:
    """Visit orders per vehicle, optionally with propagated timings."""

    routes: tuple[tuple[int, ...], ...]
    dispatch: float | None = None
    timings: tuple[RouteTiming, ...] | None = None

    def __post_init__(self) -> None:
        # routes that are already a tuple of tuples are kept as they are
        routes = self.routes
        if type(routes) is not tuple \
                or not all(type(r) is tuple for r in routes):
            object.__setattr__(self, "routes", tuple(tuple(r) for r in routes))

    @property
    def timed(self) -> bool:
        return self.timings is not None


def _route_arcs(instance: Instance, route: tuple[int, ...]) -> list[Arc]:
    """Arcs driven along a route, from the depot back to it."""
    if not route:
        return []
    path = [0, *route, 0]
    return [instance.arc(path[i], path[i + 1]) for i in range(len(path) - 1)]


def time_route(route: tuple[int, ...], instance: Instance, dispatch: float,
               starts: tuple[float, ...] | None = None) -> RouteTiming:
    """Time and audit one route from the dispatch instant.

    Each leg is driven by one recorded ``model.leg`` call from the
    departure right after the upstream service.  With ``starts=None``
    every stop is served as soon as the vehicle is there and the
    window's soft lower bound has passed (immediate departures);
    otherwise stop ``k`` is served at ``starts[k]``, and a vehicle that
    arrives earlier waits at the stop.  The only code that walks a
    route: propagation and the retiming phase call it, and the audit
    and the objective read what it records.

    The audit, reported under vehicle 0, checks capacity; then per stop
    the hard upper and soft lower windows, and that the depot stays
    reachable within the horizon (a stop with no arc back fails it).
    The last stop's return check compares the very floats of the return
    leg the walk drives, so a late return is named once, as that stop's
    ``horizon-return``.  Times need no sign check: every arrival
    follows the dispatch, and a start before it lies before its window
    opens.

    Raises:
        MissingArcError: the route uses an arc absent from the graph.
    """
    arcs = _route_arcs(instance, route)
    if not route:
        return RouteTiming(dispatch, 0.0, (), dispatch, (), ())
    # every id on the route now has an arc, so it is a node of ``nodes``
    nodes = instance.nodes
    horizon = dispatch + instance.latest_time
    initial_load = sum(nodes[n].demand for n in route)
    violations: list[Violation] = []
    if initial_load > instance.fleet.capacity + TIME_EPS:
        violations.append(Violation(
            "capacity", 0, None,
            f"load {initial_load} exceeds capacity {instance.fleet.capacity}"))
    load = initial_load
    t = dispatch
    stops = []
    legs = []
    for k, (arc, node_id) in enumerate(zip(arcs, route)):
        node = nodes[node_id]
        reading = leg(arc, t)
        legs.append(reading)
        arrival = t + reading[0]
        start = max(arrival, dispatch + node.window_open) if starts is None \
            else starts[k]
        depart = start + node.service_time
        load -= node.demand
        stops.append(NodeTiming(node_id, arrival, start, depart, load))
        if start > dispatch + node.window_close + TIME_EPS:
            violations.append(Violation(
                "window", 0, node_id,
                f"service at {start:.6f} after window close "
                f"{dispatch + node.window_close:.6f}"))
        if start < dispatch + node.window_open - TIME_EPS:
            violations.append(Violation(
                "window", 0, node_id, "service before window opens"))
        back = return_leg_time(instance, node_id, depart)
        if depart + back > horizon + TIME_EPS:
            violations.append(Violation(
                "horizon-return", 0, node_id,
                "no arc leads back to the depot" if back == math.inf
                else f"cannot regain depot by hour {horizon:.6f}"))
        t = depart
    reading = leg(arcs[-1], t)
    legs.append(reading)
    return RouteTiming(dispatch, initial_load, tuple(stops), t + reading[0],
                       tuple(legs), tuple(violations))


def propagate_schedule(solution: RoutingSolution | tuple[tuple[int, ...], ...],
                       instance: Instance, dispatch: float) -> RoutingSolution:
    """Time a solution by walking every route with immediate departures.

    Args:
        solution: bare routes (or a solution whose routes are reused).
        instance: the instance the routes visit.
        dispatch: hour-of-day at which all vehicles leave the depot;
            node windows are interpreted relative to this instant.

    Returns:
        The same routes with ``time_route`` timings attached.

    Raises:
        MissingArcError: a route uses an arc absent from the graph.
        SolutionError: dispatch negative.
    """
    routes = solution.routes if isinstance(solution, RoutingSolution) \
        else tuple(tuple(r) for r in solution)
    if dispatch < 0 or not math.isfinite(dispatch):
        raise SolutionError(f"dispatch must be a non-negative hour, got {dispatch!r}")
    return RoutingSolution(routes, dispatch, tuple(
        time_route(route, instance, dispatch) for route in routes))


def return_leg_time(instance: Instance, node_id: int, depart: float) -> float:
    """Hours to regain the depot from ``node_id`` leaving at ``depart``.

    Zero from the depot itself.  Infinite when no arc leads back to the
    depot, since then no return is guaranteed.
    """
    if node_id == 0:
        return 0.0
    arc = instance.arcs.get((node_id, 0))
    return math.inf if arc is None else travel_time(arc, depart)


def check_feasibility(solution: RoutingSolution,
                      instance: Instance) -> tuple[Violation, ...]:
    """All requirement violations of a timed solution (empty = feasible).

    Whole-solution checks: every customer served exactly once, no
    depot inside a route, and fleet size.  Routes that visit
    exactly the customers, each once, trip neither of the first two,
    so only other routes have their visits counted, in one pass; each
    customer's count is checked and taken out, and only what is left,
    the depot and unknown ids, is walked in id order for the other
    check, as a customer id trips neither.  Each route's own
    audit (capacity, windows, the return to the depot within the
    horizon) is the verdict its ``time_route`` walk recorded,
    relabelled with the vehicle index, and a clean verdict adds
    nothing; no route is walked again here.
    """
    if not solution.timed:
        raise SolutionError("feasibility needs a timed solution, propagate first")
    violations: list[Violation] = []

    routes = solution.routes
    customers = instance.customers()
    if sum(map(len, routes)) != len(customers) \
            or frozenset(chain.from_iterable(routes)) != instance.customer_set:
        counts = Counter(chain.from_iterable(routes))
        for c in customers:
            seen = counts.pop(c, 0)
            if seen != 1:
                violations.append(Violation(
                    "visit-count", -1, c, f"customer visited {seen} times"))
        for n in sorted(counts):
            if n == 0:
                violations.append(Violation(
                    "route-shape", -1, n,
                    "the depot may not appear inside a route"))
            else:
                violations.append(Violation(
                    "visit-count", -1, n, "unknown vertex in route"))

    used = sum(1 for r in routes if r)
    if used > instance.fleet.count:
        violations.append(Violation(
            "fleet-size", -1, None,
            f"{used} loaded vehicles exceed fleet of {instance.fleet.count}"))

    for k, timing in enumerate(solution.timings):
        if timing.violations:
            violations.extend(Violation(v.constraint, k, v.node, v.message)
                              for v in timing.violations)
    return tuple(violations)


# -- objectives ----------------------------------------------------------


def leg_cost(objective: str, arc: Arc, service: float,
             driven: tuple[float, float, float],
             weights: ObjectiveWeights | None = None) -> tuple[float, float]:
    """Duration and additive ``objective`` cost of one driven leg.

    ``driven`` is ``model.leg(arc, depart)`` and ``service`` the
    service time at the arc's tail.  crash costs the log-survival term
    ``-ln(1 - xi)``; weighted costs ``w_crash * crash_scale * (-ln(1 -
    xi)) + w_tti * tti`` from the resolved ``weights``; time charges the
    tail's service plus the driving hours; distance is
    schedule-independent.  Every objective is the sum of these costs.
    """
    duration, tti, xi = driven
    if objective == "distance":
        return duration, arc.distance
    if objective == "time":
        return duration, service + duration
    if objective == "tti":
        return duration, tti
    surrogate = -math.log1p(-xi)
    if objective == "crash":
        return duration, surrogate
    if objective == "weighted":
        return duration, (weights.w_crash * weights.crash_scale * surrogate
                          + weights.w_tti * tti)
    raise SolutionError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")


def default_crash_scale(instance: Instance) -> float:
    """Rescaling that brings crash terms to TTI magnitude.

    Mean hourly TTI divided by mean hourly crash probability, both over
    every arc, so a unit of rescaled crash weighs about as much as a
    unit of TTI in the weighted objective.
    """
    tti_sum = 0.0
    crash_sum = 0.0
    cells = 0
    for arc in instance.arcs.values():
        tti_sum += sum(arc.tti.values)
        crash_sum += sum(arc.crash.values)
        cells += len(arc.tti.values)
    if cells == 0 or crash_sum == 0:
        return 1.0
    return (tti_sum / cells) / (crash_sum / cells)


@dataclass(frozen=True)
class ObjectiveWeights:
    """Convex weights of the crash/TTI mix plus the crash rescale factor.

    ``crash_scale=None`` means "calibrate from the instance" via
    ``default_crash_scale``.
    """

    w_crash: float = 0.5
    w_tti: float = 0.5
    crash_scale: float | None = None

    def __post_init__(self) -> None:
        if not (0 <= self.w_crash < math.inf and 0 <= self.w_tti < math.inf):
            raise SolutionError("objective weights must be finite and "
                                "non-negative")
        if abs(self.w_crash + self.w_tti - 1.0) > 1e-9:
            raise SolutionError("objective weights must sum to 1")
        if self.crash_scale is not None \
                and not 0 < self.crash_scale < math.inf:
            raise SolutionError("crash scale must be positive and finite")

    def resolved(self, instance: Instance) -> "ObjectiveWeights":
        if self.crash_scale is not None:
            return self
        return replace(self, crash_scale=default_crash_scale(instance))


def objective_value(name: str, solution: RoutingSolution, instance: Instance,
                    weights: ObjectiveWeights | None = None) -> float:
    """Evaluate one of the five named objectives on a timed solution.

    The sum of ``leg_cost`` over every driven leg, route by route in
    driving order, from the ``model.leg`` readings each route's
    ``time_route`` walk recorded; no arc is driven again.  crash reports
    the probability ``-expm1(-sum)`` of that log-survival sum; every
    other objective reports the sum itself, the same sum the retiming
    phase minimises.
    """
    if name not in OBJECTIVES:
        raise SolutionError(f"unknown objective {name!r}, expected one of {OBJECTIVES}")
    if not solution.timed:
        raise SolutionError("objective needs a timed solution, propagate first")
    if name == "weighted":
        weights = (weights or ObjectiveWeights()).resolved(instance)
    total = 0.0
    for route, timing in zip(solution.routes, solution.timings):
        services = [0.0]
        services += [instance.node(n).service_time for n in route]
        for arc, driven, service in zip(_route_arcs(instance, route),
                                        timing.legs, services):
            total += leg_cost(name, arc, service, driven, weights)[1]
    return -math.expm1(-total) if name == "crash" else total
