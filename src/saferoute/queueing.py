"""Hourly speed estimation from traffic counts.

A road segment is treated as a single server whose queue is the
traffic stream itself: vehicles "arrive" at the rate of the observed
flow and are "served" at the rate the pavement can discharge them,
which is the free-flow speed times the jam density.  The
Pollaczek-Khinchine mean wait of that M/G/1 queue, interpreted as the
time a vehicle needs to advance by one jam spacing, yields a speed
density relation; eliminating density gives a quadratic linking speed
to flow.  Every flow below capacity is met at two speeds, a congested
one (dense, slow) and an uncongested one (light, fast); picking the
branch per hour from how that hour's count ranks within the day turns
a 24-hour count series into a 24-hour speed profile.  Each arc's 24
roots are solved in one pass (``_roots``), with the coefficients that
depend only on the arc built once.

Symbols used in the formulas below: ``s0`` free-flow speed (mph),
``kj`` jam density (veh/mile), ``beta`` coefficient of variation of
the service time, ``k`` density, ``f`` hourly flow (veh/h).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .instances import _add_once, _csv_rows
from .model import HOURS_PER_DAY, TimeProfile

#: Share of the day's hourly counts treated as uncongested; hours whose
#: count exceeds this quantile get the congested (low-speed) root.
DEFAULT_CONGESTION_QUANTILE = 0.854


class QueueingError(ValueError):
    """Invalid queueing parameter or query."""


class SaturationError(QueueingError):
    """Density at or beyond jam density, the queue has no steady state."""


class NoRealRootError(QueueingError):
    """Requested flow exceeds the segment's capacity."""


class CalibrationError(QueueingError):
    """Observed counts cannot support calibration."""


@dataclass(frozen=True)
class QueueModel:
    """M/G/1 view of one road segment.

    Args:
        nominal_speed: free-flow speed ``s0`` in mph, > 0.
        jam_density: stand-still density ``kj`` in veh/mile, > 0.
        cv_service: coefficient of variation ``beta`` of the service
            time; 1 recovers exponential service (M/M/1).
    """

    nominal_speed: float
    jam_density: float
    cv_service: float = 1.0

    def __post_init__(self) -> None:
        for label, v in (("nominal_speed", self.nominal_speed),
                         ("jam_density", self.jam_density)):
            if not (math.isfinite(v) and v > 0):
                raise QueueingError(f"{label} must be positive, got {v!r}")
        if not (math.isfinite(self.cv_service) and self.cv_service >= 0):
            raise QueueingError(
                f"cv_service must be non-negative, got {self.cv_service!r}")

    @property
    def service_rate(self) -> float:
        """Discharge rate mu = s0 * kj in vehicles per hour."""
        return self.nominal_speed * self.jam_density

    @property
    def service_sigma(self) -> float:
        """Standard deviation of the service time, beta / mu."""
        return self.cv_service / self.service_rate


@dataclass(frozen=True)
class FlowSeries:
    """24 mean hourly counts for one arc direction, veh/h."""

    flows: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.flows) != HOURS_PER_DAY:
            raise QueueingError(
                f"flow series needs {HOURS_PER_DAY} values, got {len(self.flows)}")
        if not all(math.isfinite(f) and f >= 0 for f in self.flows):
            raise QueueingError("flows must be finite and non-negative")
        object.__setattr__(self, "flows", tuple(float(f) for f in self.flows))


def waiting_time(q: QueueModel, density: float) -> float:
    """Mean time for one vehicle to advance one jam spacing, in hours.

    Pollaczek-Khinchine: service time 1/mu plus queueing delay
    (rho^2 + k^2 sigma^2 (s0 kj)^2 ... ) / (2 s0 k (1 - rho)) with
    utilisation rho = k / kj.  An empty road (k = 0) leaves only the
    service time.
    """
    if not (math.isfinite(density) and density >= 0):
        raise QueueingError(f"density must be non-negative, got {density!r}")
    if density >= q.jam_density:
        raise SaturationError(
            f"density {density} at or beyond jam density {q.jam_density}")
    base = 1.0 / q.service_rate
    if density == 0:
        return base
    rho = density / q.jam_density
    s0 = q.nominal_speed
    var_term = s0 * s0 * density * density * q.service_sigma ** 2
    return base + (rho * rho + var_term) / (2.0 * s0 * density * (1.0 - rho))


def speed_from_density(q: QueueModel, density: float) -> float:
    """Traffic speed in mph at the given density, closed form.

    Derived from ``1 / (kj * W)``: s = 2 s0 (kj - k) / (2 kj + k (beta^2 - 1)).
    Falls to 0 at jam density and equals the free-flow speed on an
    empty road.
    """
    if not (math.isfinite(density) and 0 <= density <= q.jam_density):
        raise QueueingError(
            f"density must lie in [0, {q.jam_density}], got {density!r}")
    beta2 = q.cv_service ** 2
    return (2.0 * q.nominal_speed * (q.jam_density - density)
            / (2.0 * q.jam_density + density * (beta2 - 1.0)))


def density_from_speed(q: QueueModel, speed: float) -> float:
    """Inverse of ``speed_from_density`` on [0, nominal_speed]."""
    if not (math.isfinite(speed) and 0 <= speed <= q.nominal_speed):
        raise QueueingError(
            f"speed must lie in [0, {q.nominal_speed}], got {speed!r}")
    beta2 = q.cv_service ** 2
    return (2.0 * q.jam_density * (q.nominal_speed - speed)
            / (2.0 * q.nominal_speed + speed * (beta2 - 1.0)))


def flow_at_speed(q: QueueModel, speed: float) -> float:
    """Flow sustained when traffic moves at ``speed``: k(s) * s."""
    return density_from_speed(q, speed) * speed


def max_flow(q: QueueModel) -> float:
    """Capacity of the segment in veh/h: the peak of the flow-speed curve.

    Setting the derivative of f(s) = 2 kj s (s0 - s) / (2 s0 + s (beta^2 - 1))
    to zero gives the peak speed s* = 2 s0 / (sqrt(2 beta^2 + 2) + 2),
    the cancellation-free form of s0 (sqrt(2 beta^2 + 2) - 2) / (beta^2 - 1).
    With beta = 1 that is half the free-flow speed, and the capacity is
    exactly s0 kj / 4.
    """
    if q.cv_service == 1.0:
        return q.nominal_speed * q.jam_density / 4.0
    peak = 2.0 * q.nominal_speed / (
        math.sqrt(2.0 * q.cv_service ** 2 + 2.0) + 2.0)
    return flow_at_speed(q, peak)


def speeds_from_flow(q: QueueModel, flow: float) -> tuple[float, float]:
    """Both speeds sustaining ``flow``, as (congested, uncongested).

    Roots of 2 kj s^2 + (f (beta^2 - 1) - 2 kj s0) s + 2 f s0 = 0.
    Zero flow yields (0, s0); at capacity the two roots coincide.

    Raises:
        NoRealRootError: flow exceeds the segment capacity.
    """
    if not (math.isfinite(flow) and flow >= 0):
        raise QueueingError(f"flow must be non-negative, got {flow!r}")
    cap = max_flow(q)
    if flow > cap:
        raise NoRealRootError(f"flow {flow} exceeds capacity {cap}")
    return _roots(q, (flow,))[0]


def _roots(q: QueueModel, flows) -> list[tuple[float, float]]:
    """(congested, uncongested) speeds for each of ``flows``, unchecked.

    The one place the quadratic of ``speeds_from_flow`` is solved: the
    coefficients that depend only on ``q`` are built once, then each
    flow, which must lie in [0, ``max_flow(q)``], costs one square root.
    """
    s0 = q.nominal_speed
    a = 2.0 * q.jam_density
    slope = q.cv_service ** 2 - 1.0      # b = f (beta^2 - 1) - 2 kj s0
    offset = 2.0 * q.jam_density * s0
    four_a = 4.0 * a
    two_a = 2.0 * a
    sqrt = math.sqrt
    pairs = []
    for flow in flows:
        b = flow * slope - offset
        c = 2.0 * flow * s0
        disc = b * b - four_a * c
        if disc < 0:
            disc = 0.0  # flow <= capacity holds, so this is rounding noise
        root = sqrt(disc)
        lo = (-b - root) / two_a
        hi = (-b + root) / two_a
        # min(lo, hi) and max(lo, hi), spelled as the builtins compare
        pairs.append((hi if hi < lo else lo, hi if hi > lo else lo))
    return pairs


def calibrate(flows: FlowSeries, nominal_speed: float) -> QueueModel:
    """Fit the jam density so the observed peak count is the capacity.

    kj = 4 max(flows) / s0, the beta = 1 capacity relation inverted.

    Raises:
        CalibrationError: no positive count to anchor the fit.
    """
    peak = max(flows.flows)
    if peak <= 0:
        raise CalibrationError("all hourly counts are zero, nothing to calibrate")
    if not (math.isfinite(nominal_speed) and nominal_speed > 0):
        raise CalibrationError(
            f"nominal speed must be positive, got {nominal_speed!r}")
    jam = 4.0 * peak / nominal_speed
    return QueueModel(nominal_speed, jam)


def build_speed_profile(q: QueueModel, flows: FlowSeries,
                        congestion_quantile: float = DEFAULT_CONGESTION_QUANTILE,
                        ) -> TimeProfile:
    """Turn 24 hourly counts into a 24-hour speed profile.

    Each hour's count is solved for its two sustaining speeds; hours
    whose count strictly exceeds the chosen quantile of the day's
    counts are deemed congested and get the low root, all others the
    high root.  Counts above capacity are clamped to capacity first
    (with a warning), which makes the two roots coincide.

    Args:
        q: calibrated queue model for the arc direction.
        flows: 24 mean hourly counts.
        congestion_quantile: rank threshold in [0, 1] separating the
            congested regime.

    Returns:
        TimeProfile of speeds, every value positive.
    """
    if not 0 <= congestion_quantile <= 1:
        raise QueueingError(
            f"congestion quantile must lie in [0, 1], got {congestion_quantile!r}")
    # Linear-interpolation quantile of the 24 counts, kept local so the
    # threshold definition is pinned down in one place.
    ordered = sorted(flows.flows)
    pos = congestion_quantile * (len(ordered) - 1)
    lo_i = math.floor(pos)
    hi_i = math.ceil(pos)
    threshold = ordered[lo_i] + (ordered[hi_i] - ordered[lo_i]) * (pos - lo_i)
    cap = max_flow(q)
    clamped_hours = [h for h, f in enumerate(flows.flows) if f > cap]
    if clamped_hours:
        warnings.warn(
            f"hourly counts above capacity {cap:.6g} clamped at hours "
            f"{clamped_hours}", stacklevel=2)
    counts = flows.flows
    # min(f, cap) is f itself unless f > cap
    roots = _roots(q, [min(f, cap) for f in counts] if clamped_hours else counts)
    return TimeProfile(tuple(congested if f > threshold else uncongested
                             for f, (congested, uncongested)
                             in zip(counts, roots)))


def read_flow_table(path: str) -> dict[tuple[int, int], FlowSeries]:
    """Read mean hourly counts from a CSV with header exactly
    ``tail,head,hour,flow``, 24 rows per arc direction, through
    ``instances._csv_rows``.  A malformed row, an hour outside 0..23, a
    negative or non-finite flow and a repeated hour name their line;
    missing hours are an error too."""
    table: dict[tuple[int, int], list[float | None]] = {}
    for line, (tail, head, hour, flow) in _csv_rows(
            path, {"tail": int, "head": int, "hour": int, "flow": float},
            QueueingError):
        if not 0 <= hour < HOURS_PER_DAY:
            raise QueueingError(f"{path} line {line}: hour {hour} outside 0..23")
        if not 0 <= flow < math.inf:
            raise QueueingError(f"{path} line {line}: flow must be finite "
                                f"and non-negative, got {flow!r}")
        slots = table.get((tail, head))
        if slots is None:
            slots = table[tail, head] = [None] * HOURS_PER_DAY
        elif slots[hour] is not None:
            raise QueueingError(f"{path} line {line}: duplicate hour {hour} "
                                f"for arc ({tail}, {head})")
        slots[hour] = flow
    result: dict[tuple[int, int], FlowSeries] = {}
    for key, slots in table.items():
        if None in slots:
            missing = [h for h, f in enumerate(slots) if f is None]
            raise QueueingError(f"{path}: arc {key} missing hours {missing}")
        result[key] = FlowSeries(tuple(slots))
    return result


def read_nominal_speeds(path: str) -> dict[tuple[int, int], float]:
    """Read free-flow speeds per arc direction from a CSV with header
    exactly ``tail,head,nominal_speed``, as ``read_flow_table`` does; a
    repeated arc or a speed not positive and finite names its line."""
    speeds: dict[tuple[int, int], float] = {}
    for line, (tail, head, value) in _csv_rows(
            path, {"tail": int, "head": int, "nominal_speed": float},
            QueueingError):
        _add_once(speeds, (tail, head), value, line, path, QueueingError)
        if not 0 < value < math.inf:
            raise QueueingError(f"{path} line {line}: nominal speed must "
                                f"be positive and finite, got {value!r}")
    return speeds
