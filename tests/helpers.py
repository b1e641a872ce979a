"""Shared instance builders for the test suite."""

from __future__ import annotations

import math
import random
from dataclasses import replace

from saferoute.instances import (
    ASSIGNMENT,
    INTERVALS,
    MAX_CRASH,
    MIN_CRASH,
    MIN_SPEED,
)
from saferoute.model import (
    Arc,
    Fleet,
    Instance,
    MissingArcError,
    Node,
    TimeProfile,
    leg,
    travel_time,
)
from saferoute.phase1 import (
    OBJECTIVES,
    TIME_EPS,
    ObjectiveWeights,
    RoutingSolution,
    Violation,
    leg_cost,
    return_leg_time,
    time_route,
)
from saferoute.phase2 import (
    ScheduleError,
    ScheduleGraph,
    ScheduleInfeasibleError,
    _grid,
)
from saferoute.queueing import QueueModel, max_flow
from saferoute.solver import (
    _SHORTER,
    _cheapest_insertion,
    _insertion_delta,
    _record,
    _two_opt_pass,
)


#: The three largest crash values an arc admits, the highest first.
TOP_CRASHES = (MAX_CRASH, math.nextafter(MAX_CRASH, 0.0),
               math.nextafter(math.nextafter(MAX_CRASH, 0.0), 0.0))


def reference_profile_check(tail: int, head: int, speed: TimeProfile,
                            tti: TimeProfile, crash: TimeProfile) -> str | None:
    """The arc's range check as a scan of every hour of every profile.

    Speed in (0, inf), then TTI in [1, inf), then crash in (0, 1]:
    returns the ``InvalidProfileError`` message for the first value out
    of range, or None when all 72 values are in range.
    """
    for kind, profile, lo, hi, strict in (
            ("speed", speed, 0.0, math.inf, True),
            ("tti", tti, 1.0, math.inf, False),
            ("crash", crash, 0.0, 1.0, True)):
        for h, v in enumerate(profile.values):
            if not ((lo < v < hi) if strict else (lo <= v <= hi)):
                bound = f"({lo}, {hi})" if strict else f"[{lo}, {hi}]"
                return (f"arc ({tail}, {head}) {kind} value {v} at hour {h} "
                        f"outside {bound}")
    return None


def reference_profile(levels: tuple[float, float, float], kind: str,
                      amplitude: float, seed: int) -> tuple[float, ...]:
    """A generated profile's values, one clipped uniform draw per hour.

    The level of hour h is the one ``ASSIGNMENT`` gives h's interval of
    ``INTERVALS``, and each value is
    ``_clip(kind, level * (1.0 + rng.uniform(-a, a)))`` with a =
    ``amplitude``, drawn from ``random.Random(seed)``, with ``_clip``
    holding crash in [``MIN_CRASH``, ``MAX_CRASH``], TTI at 1 or above
    and speed at ``MIN_SPEED`` or above.
    """
    def clip(value: float) -> float:
        if kind == "crash":
            return min(MAX_CRASH, max(value, MIN_CRASH))
        if kind == "tti":
            return max(value, 1.0)
        return max(value, MIN_SPEED)

    rng = random.Random(seed)
    a = amplitude
    return tuple(clip(levels[idx] * (1.0 + rng.uniform(-a, a)))
                 for (lo, hi), idx in zip(INTERVALS, ASSIGNMENT)
                 for _ in range(lo, hi))


def reference_speed_profile(q: QueueModel, flows: tuple[float, ...],
                            quantile: float) -> tuple[float, ...]:
    """A built speed profile's values, one quadratic solved per hour.

    Each hour's count, clamped to ``max_flow(q)``, is solved from
    scratch for both roots of 2 kj s^2 + (f (beta^2 - 1) - 2 kj s0) s
    + 2 f s0 = 0; the hour takes the lower root when its count strictly
    exceeds the day's linear-interpolation ``quantile``, the higher one
    otherwise.
    """
    ordered = sorted(flows)
    pos = quantile * (len(ordered) - 1)
    lo_i, hi_i = math.floor(pos), math.ceil(pos)
    threshold = ordered[lo_i] + (ordered[hi_i] - ordered[lo_i]) * (pos - lo_i)
    cap = max_flow(q)
    speeds = []
    for f in flows:
        flow = min(f, cap)
        beta2 = q.cv_service ** 2
        a = 2.0 * q.jam_density
        b = flow * (beta2 - 1.0) - 2.0 * q.jam_density * q.nominal_speed
        c = 2.0 * flow * q.nominal_speed
        disc = b * b - 4.0 * a * c
        if disc < 0:
            disc = 0.0
        root = math.sqrt(disc)
        lo = (-b - root) / (2.0 * a)
        hi = (-b + root) / (2.0 * a)
        speeds.append(min(lo, hi) if f > threshold else max(lo, hi))
    return tuple(speeds)


def build_instance(
    customers: list[dict],
    *,
    name: str = "test",
    fleet: tuple[int, float] = (2, 100.0),
    latest: float = 24.0,
    depot_window: tuple[float, float] = (0.0, 24.0),
    speed: float | TimeProfile = 30.0,
    tti: float | TimeProfile = 1.0,
    crash: float | TimeProfile = 0.01,
    arc_overrides: dict | None = None,
) -> Instance:
    """Dense Euclidean instance from terse customer dicts.

    Each customer dict may set x, y, demand, service, open, close.
    ``arc_overrides`` maps (tail, head) to a dict overriding distance,
    speed, tti or crash for that one arc.
    """
    def as_profile(v):
        return v if isinstance(v, TimeProfile) else TimeProfile.constant(float(v))

    nodes = [Node(0, 0.0, 0.0, 0.0, 0.0, depot_window[0], depot_window[1])]
    for i, spec in enumerate(customers, start=1):
        nodes.append(Node(
            i,
            float(spec.get("x", i)),
            float(spec.get("y", 0.0)),
            float(spec.get("demand", 10.0)),
            float(spec.get("service", 0.1)),
            float(spec.get("open", 0.0)),
            float(spec.get("close", latest)),
        ))
    overrides = arc_overrides or {}
    arcs = {}
    for a in nodes:
        for b in nodes:
            if a.id == b.id:
                continue
            spec = overrides.get((a.id, b.id), {})
            dist = spec.get("distance",
                            math.hypot(a.x - b.x, a.y - b.y) or 1.0)
            arcs[(a.id, b.id)] = Arc(
                a.id, b.id, dist,
                as_profile(spec.get("speed", speed)),
                as_profile(spec.get("tti", tti)),
                as_profile(spec.get("crash", crash)),
            )
    return Instance(name, tuple(nodes), arcs, Fleet(*fleet), latest)


def with_first_arc_repeated(text: str) -> tuple[str, int]:
    """Native instance text whose first arc row is written twice.

    The copy, with its distance changed to 99.0, takes the place of the
    second arc row.  Returns the text and the copy's line number.
    """
    lines = text.splitlines()
    first = next(k for k, line in enumerate(lines)
                 if line.startswith("arcs ")) + 1
    fields = lines[first].split()
    fields[2] = "99.0"
    lines[first + 1] = " ".join(fields)
    return "\n".join(lines) + "\n", first + 2


def two_on_a_line_without(missing: tuple[int, int]) -> Instance:
    """Two customers on a line, one vehicle, and no arc ``missing``."""
    base = build_instance([{"x": 1}, {"x": 2}], fleet=(1, 100.0))
    arcs = {key: arc for key, arc in base.arcs.items() if key != missing}
    return replace(base, arcs=arcs)


def no_return_from_first() -> Instance:
    """Two customers on a line, one vehicle, and no arc from 1 to the depot."""
    return two_on_a_line_without((1, 0))


def reference_audit(route: tuple[int, ...], timing, instance: Instance,
                    dispatch: float) -> tuple[Violation, ...]:
    """Per-route audit of a timed route, re-derived from its stops alone.

    Capacity, then per stop the window close, window open and the
    return-to-depot guarantee (none needed from the depot itself), all
    under vehicle 0: the verdict ``time_route`` records, computed here
    by a separate pass over the timing.
    """
    if not route:
        return ()
    horizon = dispatch + instance.latest_time
    violations: list[Violation] = []
    if timing.initial_load > instance.fleet.capacity + TIME_EPS:
        violations.append(Violation(
            "capacity", 0, None,
            f"load {timing.initial_load} exceeds capacity "
            f"{instance.fleet.capacity}"))
    for stop in timing.stops:
        node = instance.node(stop.node)
        if stop.service_start > dispatch + node.window_close + TIME_EPS:
            violations.append(Violation(
                "window", 0, stop.node,
                f"service at {stop.service_start:.6f} after window close "
                f"{dispatch + node.window_close:.6f}"))
        if stop.service_start < dispatch + node.window_open - TIME_EPS:
            violations.append(Violation(
                "window", 0, stop.node, "service before window opens"))
        arc = instance.arcs.get((stop.node, 0))
        back = 0.0 if stop.node == 0 else math.inf if arc is None \
            else travel_time(arc, stop.departure)
        if stop.departure + back > horizon + TIME_EPS:
            violations.append(Violation(
                "horizon-return", 0, stop.node,
                "no arc leads back to the depot" if back == math.inf
                else f"cannot regain depot by hour {horizon:.6f}"))
    return tuple(violations)


def reference_route_audit(route: tuple[int, ...], instance: Instance,
                          dispatch: float) -> tuple[Violation, ...]:
    """``reference_audit`` of the route's immediate timing, or one
    route-shape violation when it drives a missing arc, which gets no
    record and so fails every audit repair makes."""
    try:
        timing = time_route(route, instance, dispatch)
    except MissingArcError:
        return (Violation("route-shape", 0, None, "no arc joins the visits"),)
    return reference_audit(route, timing, instance, dispatch)


def reference_insertion(routes: list[list[int]], c: int, instance: Instance,
                        dispatch: float, skip: frozenset[int] = frozenset(),
                        below: float = math.inf) -> tuple | None:
    """Cheapest feasible insertion of c by a scan that audits every trial.

    Each position of each route whose index is not in ``skip`` and that
    has room for c is audited first and compared after, by the rule of
    ``solver._cheapest_insertion``: a feasible trial wins when its
    distance growth undercuts ``below``, then the best so far, by more
    than ``_SHORTER``.  Returns ``(index, trial route)`` or None.
    """
    demand = instance.node(c).demand
    best, least = None, below
    for ri, r in enumerate(routes):
        load = sum(instance.node(n).demand for n in r)
        if ri in skip or load + demand > instance.fleet.capacity + TIME_EPS:
            continue
        for pos in range(len(r) + 1):
            trial = (*r[:pos], c, *r[pos:])
            if reference_route_audit(trial, instance, dispatch):
                continue
            delta = _insertion_delta(instance, r, pos, c)
            if delta < least - _SHORTER:
                best, least = (ri, trial), delta
    return best


def reference_polish(held: list, instance: Instance, dispatch: float,
                     records: dict) -> None:
    """``solver._polish`` as a full rescan: every round scans every
    customer against every other route and passes every route to 2-opt.

    The routes are plain lists, read from ``held`` once at the start;
    the records each scan reads are rebuilt from them before the scan,
    so none can be stale, and ``held`` is set to the final routes'
    records at the end.  A relocation needs a winning position and a
    donor route that passes its audit, the rule of ``solver._polish``;
    rounds repeat until neither step shortens the total, at most 50.
    A route that drives a missing arc has no record and fails its audit.
    """
    def passes(route) -> bool:
        record = _record(route, instance, dispatch, records)
        return record is not None and not record.timing.violations

    routes = [list(record.route) for record in held]
    customers = sorted(c for r in routes for c in r)
    for _ in range(50):
        improved = False
        for c in customers:
            ri = next(k for k, r in enumerate(routes) if c in r)
            r = routes[ri]
            i = r.index(c)
            donor = r[:i] + r[i + 1:]
            saving = _insertion_delta(instance, donor, i, c)
            scanned = [_record(route, instance, dispatch, records)
                       for route in routes]
            best = _cheapest_insertion(scanned, c, instance, dispatch,
                                       records, skip={ri}, below=saving)
            if best is not None and passes(donor):
                k, trial = best
                routes[ri], routes[k] = donor, list(trial.route)
                improved = True
        for r in routes:
            shorter = _two_opt_pass(instance, r, passes)
            if shorter != r:
                r[:] = shorter
                improved = True
        if not improved:
            break
    held[:] = [_record(r, instance, dispatch, records) for r in routes]


def reference_feasibility(solution: RoutingSolution,
                          instance: Instance) -> tuple[Violation, ...]:
    """``phase1.check_feasibility`` of a timed solution by a counting
    loop that walks every visited id, customers included.

    Customers' visit counts in id order, then every visited id in id
    order (the depot, unknown ids),
    then the fleet size, then each timing's violations relabelled with
    its vehicle index.
    """
    violations: list[Violation] = []
    counts: dict[int, int] = {}
    for route in solution.routes:
        for n in route:
            counts[n] = counts.get(n, 0) + 1
    for c in instance.customers():
        seen = counts.get(c, 0)
        if seen != 1:
            violations.append(Violation(
                "visit-count", -1, c, f"customer visited {seen} times"))
    for n in sorted(counts):
        if n == 0:
            violations.append(Violation(
                "route-shape", -1, n,
                "the depot may not appear inside a route"))
        elif not instance.is_customer(n):
            violations.append(Violation(
                "visit-count", -1, n, "unknown vertex in route"))
    used = sum(1 for r in solution.routes if r)
    if used > instance.fleet.count:
        violations.append(Violation(
            "fleet-size", -1, None,
            f"{used} loaded vehicles exceed fleet of {instance.fleet.count}"))
    for k, timing in enumerate(solution.timings):
        violations.extend(replace(v, vehicle=k) for v in timing.violations)
    return tuple(violations)


def reference_schedule_graph(route: tuple[int, ...], instance: Instance,
                             dispatch: float, m: int,
                             weights: ObjectiveWeights | None = None,
                             objective: str = "weighted") -> ScheduleGraph:
    """``phase2.build_schedule_graph`` as it was before the layer pass
    took over the immediate walk: the route is first walked by
    ``time_route`` with immediate departures, whose stops pin the
    earliest starts and whose recorded legs serve the edges leaving
    them; the return check drives each grid point's homeward leg by
    ``return_leg_time`` and the sink edges drive it again.

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
            absent from the graph.
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
    arc = instance.arc(route[-1], 0)
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


def reference_fastest(instance: Instance, tail: int, head: int) -> float:
    """The arc's length over the largest of its hourly speeds, inf if
    the arc is missing."""
    arc = instance.arcs.get((tail, head))
    return math.inf if arc is None else arc.distance / max(arc.speed.values)


def reference_summary(route: tuple[int, ...], instance: Instance,
                      dispatch: float, timing) -> dict:
    """Every ``solver.RouteRecord`` field, by name, as records were
    filled when each was built whole: the load as the walk sums it, edge
    lengths and a backward latest-start pass around the route's
    immediate ``timing``."""
    load = sum((instance.node(n).demand for n in route), 0.0)
    length = instance.length_matrix
    before, after = (0, *route), (*route, 0)
    edges = tuple(map(lambda a, b: length[a][b], before, after)) \
        if route else (0.0,)
    horizon = dispatch + instance.latest_time
    latest = [0.0] * len(route)
    leave_by = math.inf  # latest departure that reaches the next stop in time
    for k in reversed(range(len(route))):
        node = instance.node(route[k])
        home = reference_fastest(instance, node.id, 0)
        latest[k] = min(dispatch + node.window_close,
                        min(horizon - home, leave_by) - node.service_time)
        if k:
            leave_by = latest[k] - reference_fastest(
                instance, route[k - 1], node.id)
    departures = (dispatch, *(s.departure for s in timing.stops))
    return dict(timing=timing, load=load, before=before, after=after,
                edges=edges, departures=departures, latest=tuple(latest))
