"""Core network model for time-dependent routing.

The road network is a directed graph.  Vertex 0 is the depot, vertices
1..n are customer sites.  Every route leaves the depot and ends there,
over an arc into vertex 0.

Every arc carries three hourly profiles:

* driving speed (mph),
* travel time index (TTI, actual travel time divided by free-flow
  travel time, so always >= 1),
* crash probability for one traversal during that hour, in (0, 1).

All times are expressed in hours.  Profile lookups wrap modulo 24, so
a departure at t = 25.5 reads the 01:00-02:00 entry.  Within one hour
the speed is constant; a traversal that spans an hour boundary
continues at the next hour's speed from the boundary onward.  Because
speed depends on the clock only, never on position, an earlier
departure can never arrive later (first-in-first-out), and none
crosses an arc faster than its length over its highest hourly speed:
the fastest time an instance's lazy ``fastest_matrix`` holds.

A reading depends only on the arc's profiles and the departure, and a
solve drives the same arcs at the same departures many times over (the
immediate walk, the retiming graph, the return checks, the insertion
pre-checks), so each ``Arc`` keeps a private memo of its time-varying
readings keyed by departure, in a slot that construction leaves empty
and the first such reading fills; ``leg``, which ``travel_time`` reads,
looks there before integrating.  The memo holds at most ``_MEMO_CAP``
readings per arc and is emptied when full, so an arc holds at most
about 0.2 MB of readings (about 200 bytes each), and an instance at
most that times its count of arcs with a varying profile.  Arcs whose
three profiles are all constant are read in closed form and keep no
memo.

``Arc(...)`` builds one arc through the dataclass's own ``__init__``.
Every batch of arcs (the Solomon parser and the generator) is built
by ``_build_arcs`` from ``(tail, head, distance, profiles)`` rows: it
fills each arc's slots without an ``__init__`` call and range-checks a
profile triple once for each run of rows sharing it.  Both apply the
same length and range rules, and a row that breaks one is built by
``Arc`` itself, so its error is ``Arc``'s.  ``Instance`` checks each
arc against its key and the node ids without building a tuple per arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

HOURS_PER_DAY = 24

#: Hard cap on integration steps per traversal; only reachable with
#: absurd distance/speed ratios, guards against runaway loops.
_MAX_TRAVERSAL_STEPS = 2_000_000

#: Readings one arc's memo holds before it is emptied: above the most
#: distinct departures any arc reads on the bundled case study (527
#: over ten sweeps of all 24 hours) and on generated instances (572 at
#: most, 31 for nine arcs in ten), so no hot arc is cleared mid-run.
_MEMO_CAP = 1024


class ModelError(ValueError):
    """Invalid model data or an operation on data that cannot satisfy it."""


class InvalidProfileError(ModelError):
    """Hourly profile violates its value constraints."""

    def __init__(self, message: str, kind: str | None = None) -> None:
        super().__init__(message)
        self.kind = kind  # the arc's profile out of range, if one is


class MissingArcError(ModelError):
    """Requested arc is not present in the instance."""


def hour_index(t: float) -> int:
    """Hour-of-day slot containing time ``t`` (hours, wraps modulo 24)."""
    if t < 0 or not math.isfinite(t):
        raise ModelError(f"time must be finite and non-negative, got {t!r}")
    return int(t) % HOURS_PER_DAY


@dataclass(frozen=True)
class TimeProfile:
    """24 hourly values; entry ``h`` applies on [h, h+1) o'clock.

    Construction sets ``bounds``, ``(min(values), max(values))``, and
    ``is_constant``, whether the two are equal; neither is compared.
    """

    values: tuple[float, ...]
    bounds: tuple[float, float] = field(init=False, repr=False, compare=False)
    is_constant: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.values) != HOURS_PER_DAY:
            raise InvalidProfileError(
                f"profile needs {HOURS_PER_DAY} values, got {len(self.values)}"
            )
        if not all(map(math.isfinite, self.values)):
            raise InvalidProfileError("profile values must be finite")
        values = tuple(map(float, self.values))
        bounds = min(values), max(values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "is_constant", bounds[0] == bounds[1])

    @classmethod
    def constant(cls, value: float) -> "TimeProfile":
        return cls((float(value),) * HOURS_PER_DAY)


def _profiles_fit(speed: TimeProfile, tti: TimeProfile,
                  crash: TimeProfile) -> bool:
    """Whether speed lies in (0, inf), TTI in [1, inf) and crash in
    (0, 1): four comparisons against the profiles' ``bounds``."""
    return (speed.bounds[0] > 0 and tti.bounds[0] >= 1
            and 0 < crash.bounds[0] and crash.bounds[1] < 1)


def _length_fits(distance: float) -> bool:
    """Whether an arc length is positive and finite."""
    return math.isfinite(distance) and distance > 0


def _check_profile(arc: "Arc", kind: str, lo: float, hi: float,
                   strict: bool) -> None:
    """Raise unless each value of the arc's ``kind`` profile is in range.

    The range is (lo, hi) when ``strict``, else [lo, hi].  A valid
    profile costs two comparisons against its ``bounds``; only a
    failing one is scanned hour by hour, to name its first offending
    value in the error.
    """
    profile = getattr(arc, kind)
    least, most = profile.bounds
    if (lo < least and most < hi) if strict else (lo <= least and most <= hi):
        return
    for h, v in enumerate(profile.values):
        if not ((lo < v < hi) if strict else (lo <= v <= hi)):
            bound = f"({lo}, {hi})" if strict else f"[{lo}, {hi}]"
            raise InvalidProfileError(
                f"arc ({arc.tail}, {arc.head}) {kind} value {v} at hour {h} "
                f"outside {bound}", kind)


@dataclass(frozen=True)
class Node:
    """A network vertex with demand, service duration and a time window.

    Windows are relative to the dispatch instant of the scenario being
    evaluated: service at the node may start no later than
    ``window_close`` hours after dispatch.  The lower bound is soft, a
    vehicle arriving early simply waits.
    """

    id: int
    x: float
    y: float
    demand: float = 0.0
    service_time: float = 0.0
    window_open: float = 0.0
    window_close: float = math.inf

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ModelError(f"node id must be non-negative, got {self.id}")
        for name in ("x", "y", "demand", "service_time", "window_open"):
            if not math.isfinite(getattr(self, name)):
                raise ModelError(f"node {self.id}: {name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.demand < 0:
            raise ModelError(f"node {self.id}: negative demand")
        if self.service_time < 0:
            raise ModelError(f"node {self.id}: negative service time")
        if not 0 <= self.window_open <= self.window_close:
            raise ModelError(
                f"node {self.id}: bad window [{self.window_open}, {self.window_close}]"
            )


@dataclass(frozen=True)
class Arc:
    """Directed road segment with its three hourly profiles.

    Construction, one arc by ``__post_init__`` or a batch by
    ``_build_arcs``, refuses a self-loop and a length that is not
    positive and finite (``_length_fits``), then checks speed in
    (0, inf), TTI in [1, inf) and crash in (0, 1) on the profiles'
    ``bounds`` (``_profiles_fit``), so a valid arc costs four
    comparisons.  Only when those fail are the profiles scanned, in
    that order, and the first one out of range raises
    ``InvalidProfileError`` naming the arc, the kind, the first
    offending value and its hour.

    Its own slots hold the six fields and ``_readings``, the memo of
    ``_read_arc`` by departure, None until the first reading (see
    ``leg``).  The memo is no field, so ``replace``, a pickle or
    a copy builds a re-validated arc with an empty memo.
    """

    __slots__ = ("tail", "head", "distance", "speed", "tti", "crash",
                 "_readings")

    tail: int
    head: int
    distance: float
    speed: TimeProfile
    tti: TimeProfile
    crash: TimeProfile

    def __post_init__(self) -> None:
        _set_readings(self, None)
        if self.tail == self.head:
            raise ModelError(f"self-loop arc at node {self.tail}")
        if not _length_fits(self.distance):
            raise ModelError(f"arc ({self.tail}, {self.head}): "
                             "distance must be positive and finite")
        if not _profiles_fit(self.speed, self.tti, self.crash):
            _check_profile(self, "speed", 0.0, math.inf, strict=True)
            _check_profile(self, "tti", 1.0, math.inf, strict=False)
            _check_profile(self, "crash", 0.0, 1.0, strict=True)

    # The default restores the slots one ``setattr`` at a time, which
    # the frozen class refuses.
    def __reduce__(self):
        return Arc, (self.tail, self.head, self.distance, self.speed,
                     self.tti, self.crash)


# The memo slot's descriptor, which a frozen arc's construction and
# ``leg`` write through.
_set_readings = Arc._readings.__set__


class _OpenArc:
    """``Arc``'s slots without its frozen ``__setattr__``.

    ``_build_arcs`` fills one with plain stores and then sets its
    ``__class__`` to ``Arc``, which Python allows between classes with
    the same slots.  ``Arc(...)`` instead stores each field through
    ``object.__setattr__`` and then calls ``__post_init__``: on CPython
    3.11 (x86-64), 10,100 R101 arcs build in about 7.6 ms this way and
    16 ms through ``Arc(...)``.
    """

    __slots__ = Arc.__slots__


_set_class = object.__setattr__  # ``Arc``'s own refuses every name


def _build_arcs(rows) -> dict[tuple[int, int], Arc]:
    """Arcs from ``(tail, head, distance, (speed, tti, crash))`` rows.

    Returns them keyed ``(tail, head)`` in row order, each equal to
    ``Arc(tail, head, distance, speed, tti, crash)`` with an empty memo.
    A valid row is stored straight into a new arc's slots (see
    ``_OpenArc``), without the call of ``Arc.__init__``, and a profile
    triple is range-checked once for each run of rows that share it
    (the same tuple), so a loader whose rows share one triple checks it
    once; each row's self-loop and length are still checked.  A row
    that breaks a rule is built by ``Arc(...)``, which raises its own
    error.
    """
    arcs = {}
    fitted = None  # the triple of the rows before, if it is in range
    for tail, head, distance, profiles in rows:
        if profiles is not fitted:  # else speed, tti, crash are its own
            speed, tti, crash = profiles
            fitted = profiles if _profiles_fit(speed, tti, crash) else None
        if fitted is not None and tail != head and _length_fits(distance):
            arc = _OpenArc()
            arc.tail, arc.head, arc.distance = tail, head, distance
            arc.speed, arc.tti, arc.crash = speed, tti, crash
            arc._readings = None
            _set_class(arc, "__class__", Arc)
        else:
            arc = Arc(tail, head, distance, *profiles)
        arcs[tail, head] = arc
    return arcs


@dataclass(frozen=True)
class Fleet:
    """Homogeneous vehicle fleet."""

    count: int
    capacity: float

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ModelError("fleet needs at least one vehicle")
        if not (math.isfinite(self.capacity) and self.capacity > 0):
            raise ModelError("vehicle capacity must be positive")


@dataclass(frozen=True)
class Instance:
    """A routing problem: nodes, arcs, fleet and planning horizon.

    ``nodes[i].id == i`` always holds; the depot is node 0 and every
    other node is a customer.
    """

    name: str
    nodes: tuple[Node, ...]
    arcs: dict[tuple[int, int], Arc]
    fleet: Fleet
    latest_time: float

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ModelError("instance has no nodes")
        for pos, node in enumerate(self.nodes):
            if node.id != pos:
                raise ModelError(
                    f"node ids must be consecutive from 0, found {node.id} at {pos}"
                )
        depot = self.nodes[0]
        if depot.demand != 0 or depot.service_time != 0:
            raise ModelError("depot must have zero demand and service time")
        if not (math.isfinite(self.latest_time) and self.latest_time > 0):
            raise ModelError("latest planning time must be positive")
        ids = {n.id for n in self.nodes}
        for (i, j), arc in self.arcs.items():
            if arc.tail != i or arc.head != j:  # no tuple built per arc
                raise ModelError(f"arc key ({i}, {j}) mismatches arc endpoints")
            if i not in ids or j not in ids:
                raise ModelError(f"arc ({i}, {j}) references unknown node")

    # -- lookups ---------------------------------------------------------

    @property
    def depot(self) -> Node:
        return self.nodes[0]

    def node(self, node_id: int) -> Node:
        if node_id >= 0:  # else ``nodes`` would count from the end
            try:
                return self.nodes[node_id]
            except IndexError:
                pass
        raise ModelError(f"no node with id {node_id}")

    # Built on first use: set-up paths that never ask for customers
    # should not pay for them.
    @cached_property
    def _customer_ids(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.nodes)))

    @cached_property
    def customer_set(self) -> frozenset[int]:
        """The ids ``customers`` returns, as a set; lazy."""
        return frozenset(self._customer_ids)

    @cached_property
    def length_matrix(self) -> list[list[float]]:
        """``[tail][head]``: the arc's length, inf if missing; lazy."""
        table = [[math.inf] * len(self.nodes) for _ in self.nodes]
        for (tail, head), arc in self.arcs.items():
            table[tail][head] = arc.distance
        return table

    @cached_property
    def length_columns(self) -> list[list[float]]:
        """``[head][tail]``: ``length_matrix`` transposed; lazy."""
        return [list(column) for column in zip(*self.length_matrix)]

    @cached_property
    def fastest_matrix(self) -> list[list[float]]:
        """``[tail][head]``: the arc's length over its highest hourly
        speed, a lower bound on its travel time, inf if missing; lazy."""
        table = [[math.inf] * len(self.nodes) for _ in self.nodes]
        for (tail, head), arc in self.arcs.items():
            table[tail][head] = arc.distance / arc.speed.bounds[1]
        return table

    @cached_property
    def fastest_ends(self) -> tuple[list[float], list[float]]:
        """``(into, out_of)``: ``fastest_matrix``'s column and row
        minima, inf where no arc enters or leaves a node; lazy."""
        table = self.fastest_matrix
        return ([min(column) for column in zip(*table)],
                [min(row) for row in table])

    def customers(self) -> tuple[int, ...]:
        """Ids of demand vertices: every node but the depot."""
        return self._customer_ids

    def is_customer(self, node_id: int) -> bool:
        return node_id in self.customer_set

    def arc(self, tail: int, head: int) -> Arc:
        try:
            return self.arcs[(tail, head)]
        except KeyError:
            raise MissingArcError(f"no arc from {tail} to {head}") from None

    def total_demand(self) -> float:
        return sum(self.nodes[c].demand for c in self.customers())


@dataclass(frozen=True)
class Traversal:
    """Breakdown of one arc traversal across hour-of-day slots.

    ``segments`` holds (hour-of-day, miles driven, hours spent) per
    slot crossed, in driving order.  Miles always sum to the arc
    length; hours sum to ``duration``.
    """

    duration: float
    segments: tuple[tuple[int, float, float], ...]


def _bad_departure(depart: float) -> ModelError:
    return ModelError(
        f"departure time must be finite and non-negative, got {depart!r}")


def traverse(arc: Arc, depart: float) -> Traversal:
    """Integrate the arc's speed profile starting at time ``depart``.

    Distance is consumed at the current hour's speed until either the
    arc ends or the clock reaches the next hour boundary, whichever
    comes first; at a boundary the next hour's speed takes over.

    This is the segment-recording reference for ``leg``: no solve
    calls it.  ``leg`` reads an arc through ``_read_arc``, which does
    the same float operations in the same order without recording
    segments, so each of its readings equals the one computed from
    this breakdown bit for bit.

    Args:
        arc: arc to traverse.
        depart: departure time in hours since dispatch day midnight,
            must be non-negative (wraps modulo 24 for lookups).

    Returns:
        Traversal with total duration and per-hour segments.
    """
    if depart < 0 or not math.isfinite(depart):
        raise _bad_departure(depart)
    remaining = arc.distance
    t = depart
    segments: list[tuple[int, float, float]] = []
    # Constant profiles never cross a speed change, so the duration is
    # exactly distance/speed; the segments are still split at hour
    # boundaries because risk and congestion profiles may vary there.
    # The last segment carries the miles left, so the miles sum to the
    # arc length exactly rather than to speed * duration.
    if arc.speed.is_constant:
        speed = arc.speed.values[0]
        duration = remaining / speed
        end = depart + duration
        while t < end:
            seg_end = min(math.floor(t) + 1.0, end)
            dt = seg_end - t
            miles = remaining if seg_end == end else speed * dt
            segments.append((hour_index(t), miles, dt))
            remaining -= miles
            t = seg_end
        return Traversal(duration, tuple(segments))
    for _ in range(_MAX_TRAVERSAL_STEPS):
        slot = hour_index(t)
        speed = arc.speed.values[slot]
        boundary = math.floor(t) + 1.0
        window = boundary - t
        reachable = speed * window
        if reachable >= remaining:
            spent = remaining / speed
            segments.append((slot, remaining, spent))
            t += spent
            return Traversal(t - depart, tuple(segments))
        segments.append((slot, reachable, window))
        remaining -= reachable
        t = boundary
    raise ModelError(
        f"arc ({arc.tail}, {arc.head}): traversal from t={depart} did not converge"
    )


def _read_arc(arc: Arc, depart: float) -> tuple[float, float, float]:
    """Duration, TTI and crash of one traversal from a checked ``depart``.

    The loop of ``traverse`` without its segments: each hour's miles go
    straight into running sums of miles * TTI and miles * crash, in
    driving order, and each sum is divided by the arc length once at
    the end.  A one-segment reading is that hour's values and a
    constant TTI or crash profile its one value.  A crash blend is
    capped at the profile's highest value: the quotient's rounding can
    lift a blend of values just below 1 to 1 or past it.  The clock
    never falls below ``depart >= 0``, so ``int(t)`` is its floor and
    ``int(t) % HOURS_PER_DAY`` its hour, with no check per step.
    """
    remaining = distance = arc.distance
    tti, crash = arc.tti, arc.crash
    ttis, crashes = tti.values, crash.values
    t = depart
    tti_sum = crash_sum = 0.0
    slot = count = 0
    if arc.speed.is_constant:
        speed = arc.speed.values[0]
        duration = remaining / speed
        end = depart + duration
        while t < end:
            whole = int(t)
            seg_end = whole + 1.0
            if end < seg_end:
                seg_end = end
            miles = remaining if seg_end == end else speed * (seg_end - t)
            slot = whole % HOURS_PER_DAY
            tti_sum += miles * ttis[slot]
            crash_sum += miles * crashes[slot]
            remaining -= miles
            t = seg_end
            count += 1
    else:
        speeds = arc.speed.values
        for count in range(1, _MAX_TRAVERSAL_STEPS + 1):
            whole = int(t)
            slot = whole % HOURS_PER_DAY
            speed = speeds[slot]
            boundary = whole + 1.0
            reachable = speed * (boundary - t)
            if reachable >= remaining:
                tti_sum += remaining * ttis[slot]
                crash_sum += remaining * crashes[slot]
                duration = (t + remaining / speed) - depart
                break
            tti_sum += reachable * ttis[slot]
            crash_sum += reachable * crashes[slot]
            remaining -= reachable
            t = boundary
        else:
            raise ModelError(f"arc ({arc.tail}, {arc.head}): traversal "
                             f"from t={depart} did not converge")
    if count == 1:
        return duration, ttis[slot], crashes[slot]
    if crash.is_constant:
        xi = crashes[0]
    else:  # a blend is at most the highest value, which is below 1
        xi = crash_sum / distance
        if xi > crash.bounds[1]:  # lifted there by rounding
            xi = crash.bounds[1]
    return duration, ttis[0] if tti.is_constant else tti_sum / distance, xi


def travel_time(arc: Arc, depart: float) -> float:
    """Hours needed to traverse ``arc`` when departing at ``depart``:
    the duration ``leg`` reads."""
    return leg(arc, depart)[0]


def leg(arc: Arc, depart: float) -> tuple[float, float, float]:
    """Duration, travel time index and crash probability of one traversal.

    A traversal spanning several hours is charged the distance-weighted
    average of the hourly TTI and crash values it touches, summed in
    driving order, the crash average capped at the profile's highest
    value; one hour's traversal is charged that hour's values.
    All three come from one pass of ``_read_arc``, through the arc's
    memo, or in closed form when all three profiles are constant; each
    equals the reading computed from ``traverse``'s segments bit for
    bit.

    Departures that compare equal (``-0.0`` and ``0.0``, ``3`` and
    ``3.0``) share one memo entry, and ``_read_arc`` returns the same
    floats for them, so a memo hit is the reading bit for bit.  A memo
    that has reached ``_MEMO_CAP`` readings is emptied before the next
    one is stored.
    """
    if depart < 0 or not math.isfinite(depart):
        raise _bad_departure(depart)
    tti, crash = arc.tti, arc.crash
    if arc.speed.is_constant and tti.is_constant and crash.is_constant:
        return (arc.distance / arc.speed.values[0], tti.values[0],
                crash.values[0])
    memo = arc._readings
    if memo is None:  # the arc's first time-varying reading
        memo = {}
        _set_readings(arc, memo)
    reading = memo.get(depart)
    if reading is None:
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        reading = memo[depart] = _read_arc(arc, depart)
    return reading


def augment_depot(instance: Instance) -> Instance:
    """Return ``instance``; kept only for the benchmark harness."""
    return instance


def ensure_augmented(instance: Instance) -> Instance:
    """Return ``instance``; kept only for the benchmark harness."""
    return instance
