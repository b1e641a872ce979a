"""Two-phase metaheuristic: route search wrapped around schedule retiming.

The search is simulated annealing over visit orders.  A candidate is
evaluated by timing it with immediate departures, rejecting it outright
if any constraint breaks, re-timing the surviving routes on the
discretized schedule graph, and scoring the re-timed solution; the
routing and scheduling phases therefore run together on every accepted
step rather than as separate passes.  Retiming hands back timings
only; a ``distance`` candidate, which it cannot improve, keeps its
immediate one.

A route's immediate-departure timing and its optimal retiming depend
only on that route once a solve has fixed the dispatch, grid size,
weights and objective.  Each ``solve`` call therefore keeps three plain
dicts local to the call.  Its ``RouteRecord`` per distinct route holds
the route's one immediate-departure walk, with the audit verdict and
driven legs that the audit and the objective read, and fills what
repair's insertion search reads on repair's first read of it; repair
and ``evaluate`` share these records, and the retiming phase walks no
route with immediate departures, so no route is walked twice that way
in one solve.
Its retimed timings hold each route ``schedule_solution`` has retimed.
Its candidate memo maps a candidate's routes to its feasible
``Evaluation``: the annealer revisits the same few candidates over and
over, and a repeat is served whole, with no audit or objective.
Infeasible candidates are left out of the memo and evaluated afresh,
so every rejection comes from the check that finds the fault, where a
profiler can see its reason.

Construction divides the plane around the depot into one slice per
vehicle, halves each slice, serves the first half outward and the
second half inward, polishes each route with 2-opt and spills capacity
overflow to the next vehicle.  When time windows break the geometric
order, a deterministic repair ejects, route by route, the visits each
route's own audit names into a bank, re-inserts each banked customer
at its cheapest feasible position, and polishes the result with
cross-route relocations and feasible 2-opt; polish is incremental,
Bentley's don't-look bits (1992) made exact.  Construction, repair and
polish share one insertion search and one 2-opt, and read every
distance from one table, the instance's ``length_matrix``, or its
transpose ``length_columns``.

Repair holds its routes as their records and nothing else, each one
past its audit, so with a timing.  The insertion search reads those
records and hands back the winning trial's record, which its caller
stores as the edited route, so it looks up a record only for a trial
route it audits.  It prices each open position with one plain sum and
audits a trial route only when it would become the new best and an
O(1) pre-check lets it fit.
The pre-check reads the target route's record: its immediate
departures, its load, and each stop's latest service start, computed
backward from the window close, the horizon less the service and the
fastest return, and the next stop's latest start less the service and
the fastest drive there (Savelsbergh 1992, in the time-dependent form
of Donati et al. 2008).
"Fastest" is the arc's length over its highest hourly speed; under FIFO
no departure drives the arc faster, so for time-dependent profiles the
latest starts are a relaxation, and for constant ones they are exact.
Every pre-check reads it from the instance's ``fastest_matrix`` or
that table's column and row minima, ``fastest_ends``.
Both series never decrease along the route, so the positions where a
customer can pass the pre-check form one slice, found by bisection
(Campbell & Savelsbergh 2004), and only that slice is priced.  Polish's
2-opt audits only the shorter reversals that a forward pass at fastest
times cannot already show late.  Every pre-check carries a margin far
above the audit's ``TIME_EPS``, so none turns down a trial that the
audit would accept: the audit stays the only judge of feasibility, and
the search finds exactly what auditing every would-be best finds.

Annealing uses six neighborhood families (relocation, swaps, 2-opt,
3-opt, segment reversal, route splits), Boltzmann acceptance,
geometric cooling from ``INITIAL_TEMPERATURE`` to ``FINAL_TEMPERATURE``
over the configured number of temperatures, and a small elitist pool:
each temperature runs ``MOVES_PER_SEED`` moves from each of the
``POOL_SIZE`` best distinct feasible solutions seen so far.  The 2-opt
and segment-reversal families share their branches in ``sample_move``
and ``apply_move``, so a segment reversal is drawn with probability
1/3; merging the two would change the random stream.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence, Set as AbstractSet
from dataclasses import dataclass, field
from functools import cached_property

from .model import Instance, MissingArcError, travel_time
from .phase1 import (
    OBJECTIVES,
    TIME_EPS,
    ObjectiveWeights,
    RouteTiming,
    RoutingSolution,
    Violation,
    check_feasibility,
    objective_value,
    propagate_schedule,
    time_route,
)
from .phase2 import schedule_solution

MOVE_KINDS = ("insertion", "swap", "two_opt", "three_opt", "reversion", "split")


class SolverError(ValueError):
    """Invalid solver configuration or input."""


INITIAL_TEMPERATURE = 10.0
FINAL_TEMPERATURE = 0.01
MOVES_PER_SEED = 5
POOL_SIZE = 4


@dataclass(frozen=True)
class SolverConfig:
    """Budget, seed, objective, weights and schedule grid of a solve."""

    max_outer_iterations: int = 10
    seed: int = 0
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    m: int = 3
    objective: str = "weighted"

    def __post_init__(self) -> None:
        for name in ("max_outer_iterations", "m", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise SolverError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.weights, ObjectiveWeights):
            raise SolverError(
                f"weights must be ObjectiveWeights, got {self.weights!r}")
        if self.max_outer_iterations < 0:
            raise SolverError("outer iteration budget cannot be negative")
        if self.m < 1:
            raise SolverError("schedule grid needs at least one point per stop")
        if self.objective not in OBJECTIVES:
            raise SolverError(
                f"unknown objective {self.objective!r}, expected one of {OBJECTIVES}")


def cooling_factor(t0: float, tf: float, max_iterations: int) -> float:
    """Geometric rate alpha with t0 * alpha**max_iterations == tf."""
    if not t0 >= tf > 0:
        raise SolverError("temperatures must satisfy T0 >= Tf > 0")
    if max_iterations < 1:
        raise SolverError("need at least one iteration to cool over")
    return (tf / t0) ** (1.0 / max_iterations)


def acceptance(delta_f: float, temperature: float, rng: random.Random) -> bool:
    """Boltzmann criterion: downhill always, uphill with exp(-delta/t)."""
    if temperature <= 0:
        raise SolverError(f"temperature must be positive, got {temperature!r}")
    if delta_f < 0:
        return True
    return rng.random() < math.exp(-delta_f / temperature)


# --------------------------------------------------------------------------
# Construction, repair and polish

#: A local-search step counts only when it shortens the distance by
#: more than this, so rounding noise never makes it cycle.
_SHORTER = 1e-9


def _route_distance(instance: Instance, route: list[int]) -> float:
    if not route:
        return 0.0
    length = instance.length_matrix
    path = [0, *route, 0]
    return sum(length[a][b] for a, b in zip(path, path[1:]))


def _route_load(instance: Instance, route: list[int]) -> float:
    return sum(instance.node(n).demand for n in route)


def _two_opt_pass(instance: Instance, route: Sequence[int],
                  keep: Callable[[list[int]], bool]) -> list[int]:
    """First-improvement 2-opt until no reversal shortens the path.

    A reversal counts when it shortens the path by more than
    ``_SHORTER`` and ``keep`` accepts the reversed route.
    """
    best = list(route)
    while True:
        base = _route_distance(instance, best)
        n = len(best)
        trials = (best[:i] + best[i:j + 1][::-1] + best[j + 1:]
                  for i in range(n - 1) for j in range(i + 1, n))
        shorter = next((t for t in trials
                        if _route_distance(instance, t) < base - _SHORTER
                        and keep(t)), None)
        if shorter is None:
            return best
        best = shorter


def initial_solution(instance: Instance) -> RoutingSolution:
    """Geometric sweep construction around the depot.

    The plane is cut into one slice per vehicle and each slice into two
    half-slices; a vehicle serves its first half-slice outward (rising
    depot distance) and the second inward, which joins the far ends of
    the two halves.  Each route then gets a 2-opt polish, and nodes
    that would break capacity spill over to the following vehicle.
    """
    k = instance.fleet.count
    if k < 1:
        raise SolverError("need at least one vehicle")
    customers = instance.customers()
    if not customers:
        return RoutingSolution(tuple(() for _ in range(k)))

    depot = instance.depot
    width = math.pi / k
    buckets: list[list[tuple[float, int]]] = [[] for _ in range(2 * k)]
    for c in customers:
        node = instance.node(c)
        angle = math.atan2(node.y - depot.y, node.x - depot.x) % (2 * math.pi)
        radius = math.hypot(node.x - depot.x, node.y - depot.y)
        buckets[min(int(angle / width), 2 * k - 1)].append((radius, c))

    ordered: list[list[int]] = []
    for v in range(k):
        outward = sorted(buckets[2 * v])
        inward = sorted(buckets[2 * v + 1], reverse=True)
        ordered.append([c for _, c in outward] + [c for _, c in inward])

    routes: list[list[int]] = []
    carry: list[int] = []
    capacity = instance.fleet.capacity
    for v in range(k):
        mine = carry + ordered[v]
        carry = []
        load = 0.0
        kept = []
        for c in mine:
            demand = instance.node(c).demand
            if load + demand <= capacity:
                kept.append(c)
                load += demand
            else:
                carry.append(c)
        routes.append(_two_opt_pass(instance, kept, lambda _: True))
    for c in carry:
        # full sweep done and still homeless: squeeze into the least
        # loaded route (repair or search will sort out any overflow)
        loads = [_route_load(instance, r) for r in routes]
        routes[loads.index(min(loads))].append(c)
    return RoutingSolution(routes)


def _insertion_delta(instance: Instance, route: Sequence[int], pos: int,
                     c: int) -> float:
    """Distance growth from inserting c at pos of the depot-closed path."""
    length = instance.length_matrix
    prev = route[pos - 1] if pos > 0 else 0
    nxt = route[pos] if pos < len(route) else 0
    added = length[prev][c] + length[c][nxt]
    if route:
        added -= length[prev][nxt]
    return added


#: Margin on every time comparison of the insertion pre-check, far above
#: the audit's ``TIME_EPS`` and the rounding of the backward pass.
_FIT_MARGIN = 1e-6


@dataclass(frozen=True)
class RouteRecord:
    """One solve's record of one route, read by repair and ``evaluate``.

    ``timing`` is the route's immediate-departure ``time_route`` walk at
    ``dispatch``, None for a missing arc, and ``violations`` the audit
    verdict it recorded (a route-shape violation for a missing arc):
    all that ``evaluate`` reads.  The rest is repair's, each computed on
    its first read, and repair reads it only on the records it holds,
    which passed the audit and so have a timing.  Position ``pos`` lies
    between ``before[pos]`` and ``after[pos]`` on the depot-closed
    path, ``edges[pos]`` apart (an empty route: 0.0).  ``departures[k]``
    is the immediate departure just before stop ``k`` (the depot's
    first) and ``latest[k]`` the latest service start at stop ``k``
    that leaves the rest of the route a chance to pass the audit
    (``_latest_starts``).
    """

    route: tuple[int, ...]
    instance: Instance = field(repr=False, compare=False)
    dispatch: float
    timing: RouteTiming | None
    violations: tuple[Violation, ...]

    @cached_property
    def load(self) -> float:
        return _route_load(self.instance, self.route)

    @cached_property
    def before(self) -> tuple[int, ...]:
        return (0, *self.route)

    @cached_property
    def after(self) -> tuple[int, ...]:
        return (*self.route, 0)

    @cached_property
    def edges(self) -> tuple[float, ...]:
        length = self.instance.length_matrix
        return tuple(map(lambda a, b: length[a][b], self.before, self.after)) \
            if self.route else (0.0,)

    @cached_property
    def departures(self) -> tuple[float, ...]:
        return (self.dispatch, *(s.departure for s in self.timing.stops))

    @cached_property
    def latest(self) -> tuple[float, ...]:
        return _latest_starts(self.route, self.instance, self.dispatch)


#: One solve's records, by route.
Records = dict[tuple[int, ...], RouteRecord]


def _latest_starts(route: tuple[int, ...], instance: Instance,
                   dispatch: float) -> tuple[float, ...]:
    """Each stop's latest service start, by a backward pass at the
    fastest times of ``instance.fastest_matrix`` from the window close
    and the horizon less the service and the fastest return."""
    fastest = instance.fastest_matrix
    horizon = dispatch + instance.latest_time
    latest = [0.0] * len(route)
    leave_by = math.inf  # latest departure that reaches the next stop in time
    for k in reversed(range(len(route))):
        node = instance.node(route[k])
        home = fastest[node.id][0]
        latest[k] = min(dispatch + node.window_close,
                        min(horizon - home, leave_by) - node.service_time)
        if k:
            leave_by = latest[k] - fastest[route[k - 1]][node.id]
    return tuple(latest)


def _record(route: Sequence[int], instance: Instance, dispatch: float,
            records: Records) -> RouteRecord:
    """``route``'s record, walked and stored on first use."""
    key = tuple(route)
    record = records.get(key)
    if record is None:
        try:
            timing = time_route(key, instance, dispatch)
        except MissingArcError:
            record = RouteRecord(key, instance, dispatch, None, (Violation(
                "route-shape", 0, None, "no arc joins the visits"),))
        else:
            record = RouteRecord(key, instance, dispatch, timing,
                                 timing.violations)
        records[key] = record
    return record


def _may_fit(record: RouteRecord, pos: int, c: int, instance: Instance,
             dispatch: float) -> bool:
    """O(1) necessary condition for c at ``pos`` to pass the audit.

    Serving c right after the departure before ``pos`` of the held
    ``record`` must start within c's window, leave time to regain the
    depot within the horizon, and reach the old stop ``pos`` by its
    latest start.  A missing arc into, out of or home from c defers to
    the audit.
    """
    prev, nxt = record.before[pos], record.after[pos]
    into = instance.arcs.get((prev, c))
    onward = instance.arcs.get((c, nxt))
    home = instance.arcs.get((c, 0))
    if into is None or onward is None or home is None:
        return True
    node = instance.node(c)
    depart = record.departures[pos]
    start = max(depart + travel_time(into, depart),
                dispatch + node.window_open)
    leave = start + node.service_time
    return (start <= dispatch + node.window_close + _FIT_MARGIN
            and leave + travel_time(home, leave)
            <= dispatch + instance.latest_time + _FIT_MARGIN
            and (pos == len(record.latest)
                 or leave + travel_time(onward, leave)
                 <= record.latest[pos] + _FIT_MARGIN))


def _window_bounds(c: int, instance: Instance,
                   dispatch: float) -> tuple[float, float]:
    """``(ready, close_by)``: the bounds of c's window slice of a route.

    A position whose latest start ``latest[pos]`` lies below ``ready``
    cannot be reached in time after serving c, and one whose departure
    ``departures[pos]`` lies above ``close_by`` cannot reach c by its
    window close, even at the fastest time of any arc out of or into c
    (``instance.fastest_ends``); each bound carries twice
    ``_FIT_MARGIN``, so ``_may_fit`` turns down every position it cuts.
    """
    into, out_of = instance.fastest_ends
    node = instance.node(c)
    return (dispatch + node.window_open + node.service_time + out_of[c]
            - 2 * _FIT_MARGIN,
            dispatch + node.window_close + 2 * _FIT_MARGIN - into[c])


def _cheapest_insertion(held: list[RouteRecord], c: int, instance: Instance,
                        dispatch: float, records: Records,
                        skip: AbstractSet[int] = frozenset(),
                        below: float = math.inf
                        ) -> tuple[int, RouteRecord] | None:
    """Cheapest feasible insertion of customer c into ``held``, or None.

    ``held`` is the caller's routes, one record each, each past its
    audit.  Returns ``(index, record)``: the index of the route c joins
    and the winning trial route's record, the very entry of ``records``
    its audit made, so the caller stores it with ``k, held[k] = best``.
    Scans the window slice of every route whose index is not in the set ``skip``
    and that has room for c; polish skips c's own route and the routes
    that offered c nothing and have not changed since.  A position
    becomes the best when its distance growth ``delta`` undercuts
    ``below`` (or, once there is a best, the best's growth) by more
    than ``_SHORTER`` and its trial route passes the one-route audit.

    A route's window slice is the range ``[lo, hi)`` of positions
    whose latest start is at least ``ready`` and whose departure is at
    most ``close_by`` (``_window_bounds``), found by bisection, as both
    series never decrease; a route with an empty slice is skipped.  A
    position outside the slice fails ``_may_fit``, or drives a missing
    arc into or out of c that the audit rejects, so the slice changes
    what is priced, never what is found.  A NaN bound cuts nothing:
    bisection compares false against it.

    One plain loop prices the slice: length into c plus length out of c
    less the record's edge, the sum ``_insertion_delta`` makes (an empty
    route's edge 0.0 subtracts nothing, bit for bit), compared with a
    running ``limit``, ``below`` then the best's growth, less
    ``_SHORTER``; a NaN delta (inf - inf on a sparse graph) compares
    false and never wins.

    Only a would-be best is audited, and only when ``_may_fit`` lets
    it: c's own start within its window close and its return within
    the horizon, then the arrival at the stop after it within that
    stop's latest start.  Each test adds ``_FIT_MARGIN`` to its bound.
    Under FIFO a feasible trial meets them all: c's start and return
    are the very values the audit compares, and no drive beats the
    fastest time the latest starts subtract.  So the pre-check changes
    what is audited, never what is found.  ``records`` holds every
    trial route's ``RouteRecord`` (its audit), by route, for reuse
    across calls on the same instance and dispatch; the scan reads
    ``records`` for trial audits only.
    """
    demand = instance.node(c).demand
    room = instance.fleet.capacity + TIME_EPS
    into_c = instance.length_columns[c]
    out_of_c = instance.length_matrix[c]
    ready, close_by = _window_bounds(c, instance, dispatch)
    best = None
    limit = below - _SHORTER
    for ri, record in enumerate(held):
        if ri in skip or record.load + demand > room:
            continue
        lo = bisect_left(record.latest, ready)
        hi = bisect_right(record.departures, close_by)
        if lo >= hi:
            continue
        before, after, edges = record.before, record.after, record.edges
        for pos in range(lo, hi):
            delta = into_c[before[pos]] + out_of_c[after[pos]] - edges[pos]
            if delta < limit \
                    and _may_fit(record, pos, c, instance, dispatch) \
                    and not (trial := _record(
                        record.route[:pos] + (c,) + record.route[pos:],
                        instance, dispatch, records)).violations:
                best = ri, trial
                limit = delta - _SHORTER
    return best


def make_feasible(solution: RoutingSolution, instance: Instance,
                  dispatch: float, records: Records | None = None
                  ) -> RoutingSolution | None:
    """Deterministic repair: eject into a bank, re-insert cheapest.

    Each route keeps its customers at their first visit (the depot,
    unknown ids and surplus copies go), then sheds in rounds
    every stop its own audit names (on a capacity overflow the heaviest
    customer) until it passes.  A late return, named once as the last
    stop's ``horizon-return``, also sheds the stop before it in the
    same round, by a rule of its own.  The bank, every customer no
    route serves, is re-added earliest window first at the feasible
    position that adds least distance, and the
    routes are polished, all reading route audits from ``records``, the
    route records ``solve`` shares with ``evaluate`` (a new dict when
    None).  More routes than vehicles are cut to the loaded ones, in
    order, padded with empty routes to the fleet size.  Returns None
    when a route drives a missing arc or a customer fits nowhere;
    raises SolverError for more loaded routes than vehicles, the
    audit's ``fleet-size`` fault, which no route's audit sees.

    Once a route's ejection ends, its last record, which passed the
    audit, is the route: ``held`` keeps one record per route and
    nothing beside it.  Each bank insertion stores the insertion
    search's winning record in the receiving route's slot, and
    ``_polish`` edits ``held`` the same way.
    """
    routes = solution.routes
    if len(routes) > instance.fleet.count:
        routes = [route for route in routes if route]
        if len(routes) > instance.fleet.count:
            raise SolverError("more loaded routes than vehicles")
        routes += [()] * (instance.fleet.count - len(routes))
    records = {} if records is None else records
    served: set[int] = set()
    held: list[RouteRecord] = []
    for route in routes:
        r = []
        for n in route:
            if instance.is_customer(n) and n not in served:
                served.add(n)
                r.append(n)
        while (record := _record(r, instance, dispatch, records)).violations:
            for v in record.violations:
                if v.node is not None:
                    if v.node in r:  # else ejected earlier this round
                        r.remove(v.node)
                elif v.constraint == "capacity":
                    r.remove(max(r, key=lambda c: instance.node(c).demand))
                else:  # no arc joins the visits
                    return None
            late = record.violations[-1]  # the last stop's checks come last
            if (late.constraint, late.node) == ("horizon-return",
                                                record.route[-1]):
                del r[-1:]  # the stop before it; a no-op if r is now empty
        held.append(record)
    bank = set(instance.customers()).difference(*(h.route for h in held))
    for c in sorted(bank, key=lambda c: (instance.node(c).window_open, c)):
        best = _cheapest_insertion(held, c, instance, dispatch, records)
        if best is None:
            return None
        k, held[k] = best
    _polish(held, instance, dispatch, records)
    return RoutingSolution(tuple(record.route for record in held))


def _may_keep_order(route: list[int], instance: Instance,
                    dispatch: float) -> bool:
    """Necessary condition for ``route`` to keep every window close.

    One forward pass serves each stop at the earliest start the fastest
    times allow, ``max(previous start + service + fastest, open)``, and
    fails only when a start passes its close by more than
    ``_FIT_MARGIN``.  Under FIFO no drive beats its fastest time, so no
    timing starts a stop earlier, and the audit would find it late too.
    A missing arc defers to the audit.
    """
    fastest = instance.fastest_matrix
    depart, prev = dispatch, 0
    for n in route:
        hours = fastest[prev][n]
        if hours == math.inf:
            return True
        node = instance.node(n)
        start = max(depart + hours, dispatch + node.window_open)
        if start > dispatch + node.window_close + _FIT_MARGIN:
            return False
        depart, prev = start + node.service_time, n
    return True


def _polish(held: list[RouteRecord], instance: Instance, dispatch: float,
            records: Records) -> None:
    """Deterministic mileage cleanup of a feasible set of routes.

    Alternates single-customer relocations with within-route feasible
    reversals until neither shortens the total, editing ``held``, one
    record per route, in place.  A relocation needs both routes to pass
    their audit: the insertion search audits the receiving route, and
    the donor is audited once a scan has found a position, since
    dropping a visit can make a later stop late when the direct arc is
    slower than the two legs through the dropped one.

    Each route carries an edit stamp, the clock at its last relocation
    or 2-opt change, and each customer the clock at its last fruitless
    scan.  While a customer's route stands, its next scan prices only
    the routes edited since.  This is exact: whether a position can win
    depends only on its route, on c and on the saving, and the saving
    only on c's route, so a route that offered nothing then offers
    nothing under any bound as low.  A refused relocation counts as
    fruitless, as the donor stays infeasible while its route stands.
    A route that last came out of the 2-opt pass is a fixed point of
    it, so it is not passed again while it stands.  The pass audits a
    shorter reversal only when ``_may_keep_order`` cannot show a stop
    late at fastest times, which leaves the audit's verdict unchanged.

    Every edit stores records just audited: a relocation the donor's
    and the insertion search's winner, a 2-opt change the record of the
    reversal ``keep`` accepted, a dict hit, so no edit walks a route.
    """
    customers = sorted(c for record in held for c in record.route)
    clock = 0
    edited = [0] * len(held)  # clock at each route's last edit
    passed = [-1] * len(held)  # its stamp when 2-opt last left it
    fruitless: dict[int, int] = {}  # clock at a customer's last vain scan
    for _ in range(50):
        improved = False
        for c in customers:
            ri = next(k for k, record in enumerate(held) if c in record.route)
            r = held[ri].route
            i = r.index(c)
            donor = r[:i] + r[i + 1:]
            saving = _insertion_delta(instance, donor, i, c)
            since = fruitless.get(c, -1)
            skip = {k for k, stamp in enumerate(edited) if stamp <= since} \
                if edited[ri] <= since else {ri}
            best = _cheapest_insertion(held, c, instance, dispatch,
                                       records, skip=skip, below=saving)
            if best is None or (left := _record(donor, instance, dispatch,
                                                records)).violations:
                fruitless[c] = clock
                continue
            held[ri] = left
            k, held[k] = best
            clock += 1
            edited[ri] = edited[k] = clock
            improved = True
        for k, record in enumerate(held):
            if passed[k] == edited[k]:
                continue
            shorter = tuple(_two_opt_pass(
                instance, record.route,
                lambda t: _may_keep_order(t, instance, dispatch)
                and not _record(t, instance, dispatch, records).violations))
            if shorter != record.route:
                held[k] = records[shorter]  # the accepted reversal's audit
                clock += 1
                edited[k] = clock
                improved = True
            passed[k] = edited[k]
        if not improved:
            break


# --------------------------------------------------------------------------
# Neighborhood moves


@dataclass(frozen=True)
class Move:
    """One neighborhood step; params are kind-specific indices."""

    kind: str
    params: tuple

    def __post_init__(self) -> None:
        if self.kind not in MOVE_KINDS:
            raise SolverError(f"unknown move kind {self.kind!r}")


def _customer_positions(routes) -> list[tuple[int, int]]:
    return [(ri, i) for ri, r in enumerate(routes) for i in range(len(r))]


def sample_move(solution: RoutingSolution, rng: random.Random) -> Move:
    """Draw a random move valid for the solution's current shape.

    The kind is uniform over the six families; segment sizes of 1 or 2
    are uniform where the family supports both.
    """
    routes = solution.routes
    positions = _customer_positions(routes)
    if not positions:
        raise SolverError("cannot move on an empty solution")

    for _ in range(64):
        kind = MOVE_KINDS[rng.randrange(len(MOVE_KINDS))]
        if kind == "insertion":
            ri, i = positions[rng.randrange(len(positions))]
            seg = 1 if rng.random() < 0.5 else 2
            if i + seg > len(routes[ri]):
                seg = 1
            rj = rng.randrange(len(routes))
            slots = len(routes[rj]) + 1 - (seg if rj == ri else 0)
            if slots < 1:
                continue
            j = rng.randrange(slots)
            return Move("insertion", (ri, i, seg, rj, j))
        if kind == "swap":
            if len(positions) < 2:
                continue
            seg = 1 if rng.random() < 0.5 else 2
            (ra, ia), (rb, ib) = rng.sample(positions, 2)
            if ra == rb:
                ia, ib = min(ia, ib), max(ia, ib)
                if ia + seg > ib:  # overlapping segments degenerate
                    seg = 1
                    if ia + seg > ib:
                        continue
            if ia + seg > len(routes[ra]) or ib + seg > len(routes[rb]):
                continue
            return Move("swap", (ra, ia, rb, ib, seg))
        if kind in ("two_opt", "reversion"):
            candidates = [ri for ri, r in enumerate(routes) if len(r) >= 2]
            if not candidates:
                continue
            ri = candidates[rng.randrange(len(candidates))]
            i, j = sorted(rng.sample(range(len(routes[ri])), 2))
            return Move(kind, (ri, i, j))
        if kind == "three_opt":
            candidates = [ri for ri, r in enumerate(routes) if len(r) >= 3]
            if not candidates:
                continue
            ri = candidates[rng.randrange(len(candidates))]
            i, j, k2 = sorted(rng.sample(range(len(routes[ri]) + 1), 3))
            if i == j or j == k2:
                continue
            return Move("three_opt", (ri, i, j, k2, rng.randrange(2)))
        if kind == "split":
            donors = [ri for ri, r in enumerate(routes) if len(r) >= 2]
            if not donors or len(routes) < 2:
                continue
            ri = donors[rng.randrange(len(donors))]
            cut = rng.randrange(1, len(routes[ri]))
            others = [r for r in range(len(routes)) if r != ri]
            rj = others[rng.randrange(len(others))]
            return Move("split", (ri, cut, rj))
    # everything else degenerate: relocate one customer onto its own spot
    ri, i = positions[rng.randrange(len(positions))]
    return Move("insertion", (ri, i, 1, ri, i))


def apply_move(solution: RoutingSolution, move: Move) -> RoutingSolution:
    """Pure rewrite of the visit orders; timings are dropped."""
    routes = [list(r) for r in solution.routes]
    p = move.params
    if move.kind == "insertion":
        ri, i, seg, rj, j = p
        chunk = routes[ri][i:i + seg]
        del routes[ri][i:i + seg]
        routes[rj][j:j] = chunk
    elif move.kind == "swap":
        ra, ia, rb, ib, seg = p
        if ra == rb:
            r = routes[ra]
            r[ia:ia + seg], r[ib:ib + seg] = r[ib:ib + seg], r[ia:ia + seg]
        else:
            a = routes[ra][ia:ia + seg]
            b = routes[rb][ib:ib + seg]
            routes[ra][ia:ia + seg] = b
            routes[rb][ib:ib + seg] = a
    elif move.kind in ("two_opt", "reversion"):
        ri, i, j = p
        routes[ri][i:j + 1] = routes[ri][i:j + 1][::-1]
    elif move.kind == "three_opt":
        ri, i, j, k2, variant = p
        r = routes[ri]
        middle, tail = r[i:j], r[j:k2]
        if variant == 0:  # exchange the two segments
            r[i:k2] = tail + middle
        else:  # reconnect with the middle reversed
            r[i:k2] = tail + middle[::-1]
    elif move.kind == "split":
        ri, cut, rj = p
        chunk = routes[ri][cut:]
        del routes[ri][cut:]
        routes[rj].extend(chunk)
    return RoutingSolution(routes)


# --------------------------------------------------------------------------
# Annealing loop


@dataclass(frozen=True)
class Evaluation:
    """Scored candidate: routes plus the value that ranks it."""

    solution: RoutingSolution
    value: float
    feasible: bool


@dataclass(frozen=True)
class SolveResult:
    """Best solution, timed as ``evaluate`` scored it, and telemetry."""

    solution: RoutingSolution
    value: float
    objective: str
    feasible: bool
    evaluations: int
    history: tuple[float, ...]
    elapsed: float


def evaluate(routes: RoutingSolution | tuple, instance: Instance,
             config: SolverConfig, dispatch: float,
             weights: ObjectiveWeights, records: Records | None = None,
             retimed: dict[tuple[int, ...], RouteTiming] | None = None,
             scored: dict[tuple[tuple[int, ...], ...], Evaluation]
             | None = None) -> Evaluation:
    """Time, filter and score one candidate.

    Infeasible candidates come back with an infinite value.  The
    schedule phase runs on every feasible candidate, except under the
    distance objective: re-timing cannot change distance, and the DP
    breaks ties toward the earliest start, so a distance candidate
    keeps its immediate-departure timing.

    ``records`` is the calling solve's route records, which its repair
    shares, and ``retimed`` its ``schedule_solution`` memo; both serve
    only calls with the same instance and dispatch, ``retimed`` also
    only the same config and weights.  A route whose record holds a
    timing reuses it; any other is timed by ``propagate_schedule``,
    where a profiler sees a missing arc raise, and recorded unless it
    drives one.  The record holds only the walk and its verdict; the
    fields repair reads are computed if repair reads them.  A candidate
    not in ``scored`` is audited and scored whole from its routes'
    recorded verdicts and legs, so a recorded route re-walks nothing,
    and its immediate timings go to ``schedule_solution``, which keeps
    each one the DP leaves unchanged.

    ``scored`` is the calling solve's candidate memo, under the same
    sharing rule: a candidate found there is returned as stored, and a
    feasible result is stored.  An infeasible one never is, so each
    rejection is made afresh by the check that finds the fault.  No
    dict changes the result.
    """
    sol = routes if isinstance(routes, RoutingSolution) \
        else RoutingSolution(routes)
    if scored is not None and (hit := scored.get(sol.routes)) is not None:
        return hit
    records = {} if records is None else records
    timings = []
    try:
        for route in sol.routes:
            record = records.get(route)
            if record is None or record.timing is None:
                timing = propagate_schedule((route,), instance,
                                            dispatch).timings[0]
                record = records[route] = RouteRecord(
                    route, instance, dispatch, timing, timing.violations)
            timings.append(record.timing)
    except MissingArcError:
        return Evaluation(sol, math.inf, False)
    timed = RoutingSolution(sol.routes, dispatch, tuple(timings))
    if check_feasibility(timed, instance):
        return Evaluation(timed, math.inf, False)
    if config.objective != "distance":
        timed = schedule_solution(
            timed, instance, config.m, weights, config.objective,
            memo={} if retimed is None else retimed)
    value = objective_value(config.objective, timed, instance, weights)
    result = Evaluation(timed, value, True)
    if scored is not None:
        scored[sol.routes] = result
    return result


def _admit(pool: list[Evaluation], candidate: Evaluation) -> None:
    """Keep the pool as the best ``POOL_SIZE`` distinct feasible solutions."""
    if not candidate.feasible:
        return
    key = candidate.solution.routes
    for i, member in enumerate(pool):
        if member.solution.routes == key:
            if candidate.value < member.value:
                pool[i] = candidate
                pool.sort(key=lambda e: e.value)
            return
    pool.append(candidate)
    pool.sort(key=lambda e: e.value)
    del pool[POOL_SIZE:]


def solve(instance: Instance, config: SolverConfig | None = None,
          dispatch: float = 0.0) -> SolveResult:
    """Run the full two-phase search for one dispatch hour.

    Deterministic for a given (instance, config, dispatch): a single
    seeded generator drives construction fallbacks, move sampling and
    acceptance, and the route records, the retimed timings and the
    candidate memo live only for this call, so a repeated feasible
    candidate is scored once.  The result
    carries the best solution exactly as ``evaluate`` scored it; when no
    feasible solution is ever seen the best-effort candidate is returned
    flagged infeasible with an infinite value.
    """
    started = time.perf_counter()
    config = config or SolverConfig()
    if dispatch < 0 or not math.isfinite(dispatch):
        raise SolverError(f"dispatch must be a non-negative hour, got {dispatch!r}")
    rng = random.Random(config.seed)
    # only weighted reads the crash scale, a pass over every arc
    weights = config.weights.resolved(instance) \
        if config.objective == "weighted" else config.weights

    start = initial_solution(instance)

    evaluations = 0
    records: Records = {}
    retimed: dict[tuple[int, ...], RouteTiming] = {}
    scored: dict[tuple[tuple[int, ...], ...], Evaluation] = {}

    def score(candidate) -> Evaluation:
        nonlocal evaluations
        evaluations += 1
        return evaluate(candidate, instance, config, dispatch, weights,
                        records, retimed, scored)

    first = score(start)
    if not first.feasible:
        repaired = make_feasible(first.solution, instance, dispatch, records)
        if repaired is not None:
            first = score(repaired)

    pool = [first] if first.feasible else []
    history: list[float] = []

    # with no customer there is no move to make
    if config.max_outer_iterations > 0 and any(start.routes):
        alpha = cooling_factor(INITIAL_TEMPERATURE, FINAL_TEMPERATURE,
                               config.max_outer_iterations)
        temperature = INITIAL_TEMPERATURE
        for _ in range(config.max_outer_iterations):
            temperature *= alpha
            # nothing feasible yet: keep searching from the best effort
            for member in list(pool) or [first]:
                current = member
                for _ in range(MOVES_PER_SEED):
                    move = sample_move(current.solution, rng)
                    candidate = score(apply_move(current.solution, move))
                    if not candidate.feasible:
                        continue
                    delta = candidate.value - current.value \
                        if current.feasible else -math.inf
                    if acceptance(delta, temperature, rng):
                        current = candidate
                    _admit(pool, candidate)
            history.append((pool[0] if pool else first).value)

    best = pool[0] if pool else first
    return SolveResult(best.solution, best.value, config.objective,
                       best.feasible, evaluations, tuple(history),
                       time.perf_counter() - started)
