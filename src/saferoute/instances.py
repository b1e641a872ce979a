"""Instance acquisition: benchmark parsing, synthetic generation, loading.

Four sources of routing problems are supported:

* classic benchmark files in the Solomon layout (constant unit speed,
  so travel time equals Euclidean distance),
* a native text format that round-trips every field bit-exactly,
* a synthetic generator that lays customers around a depot and gives
  every arc noisy three-level step profiles for speed, congestion and
  risk (``generate_profiles``, from the module's constant levels),
* the bundled four-node delivery case packaged as CSV files.
"""

from __future__ import annotations

import contextlib
import csv
import math
import random
import warnings
from pathlib import Path

from .model import (
    HOURS_PER_DAY,
    Arc,
    Fleet,
    Instance,
    InvalidProfileError,
    ModelError,
    Node,
    TimeProfile,
    _build_arcs,
)

PROFILE_KINDS = ("speed", "tti", "crash")

MIN_SPEED = 1e-3
MIN_CRASH = 1e-12
#: The largest crash value below 1, the model's open upper bound.
MAX_CRASH = math.nextafter(1.0, 0.0)

#: The five day intervals of a step function, and the level each uses.
INTERVALS = ((0, 6), (6, 9), (9, 15), (15, 19), (19, 24))
ASSIGNMENT = (0, 2, 1, 2, 0)  # night, AM peak, midday, PM peak, evening
#: Hour h's entry: the index of the level ``ASSIGNMENT`` gives its interval.
HOUR_LEVELS = tuple(idx for (lo, hi), idx in zip(INTERVALS, ASSIGNMENT)
                    for _ in range(lo, hi))

GENERATED_FLEETS = {10: 2, 25: 3, 50: 5, 80: 12}

#: The data files shipped inside the package, resolved once at import.
_DATA_DIR = Path(__file__).resolve().parent / "data"


class InstanceError(ValueError):
    """Unusable instance input: bad file, bad setting, missing data."""


def generate_profiles(levels: tuple[float, float, float], kind: str,
                      amplitude: float, seed: int) -> TimeProfile:
    """Noisy hourly profile from a three-level step function.

    Hour h draws ``levels[HOUR_LEVELS[h]] * (1 + U(-a, a))``, a =
    ``amplitude``, from ``random.Random(seed)``, the noise being the
    expression ``Random.uniform(-a, a)`` computes, ``-a + (a - -a) *
    random()``, so the values are uniform's bit for bit.  Values are
    clipped to the kind's domain: crash stays in [``MIN_CRASH``,
    ``MAX_CRASH``], TTI never dips below 1, speed keeps the floor
    ``MIN_SPEED``.
    """
    if kind not in PROFILE_KINDS:
        raise InstanceError(f"unknown profile kind {kind!r}, expected one of {PROFILE_KINDS}")
    draw = random.Random(seed).random
    span = amplitude - -amplitude
    values = [levels[idx] * (1.0 + (-amplitude + span * draw()))
              for idx in HOUR_LEVELS]
    if kind == "crash":
        values = [v if MIN_CRASH <= v <= MAX_CRASH else
                  MIN_CRASH if v < MIN_CRASH else MAX_CRASH for v in values]
    else:
        floor = 1.0 if kind == "tti" else MIN_SPEED
        values = [v if v >= floor else floor for v in values]
    return TimeProfile(tuple(values))


# --------------------------------------------------------------------------
# Solomon benchmark layout


def parse_solomon(text: str) -> Instance:
    """Parse the classic benchmark layout into an instance.

    The layout is: a name line, a VEHICLE section with a NUMBER/CAPACITY
    pair, and a CUSTOMER table whose rows carry id, x, y, demand, ready
    time, due date and service time.  Row 0 is the depot.  Distances
    are Euclidean and speed is a constant 1, so travel times equal
    distances and time units match the file's window units.  Congestion
    is neutral (TTI 1) and each arc carries a tiny constant crash
    probability so risk objectives stay well defined.

    Raises:
        InstanceError: structural problems or values the model refuses
            in a customer row, naming the offending line; or an
            inconsistent instance.
    """
    lines = text.splitlines()
    name = ""
    vehicle_at = customer_at = -1
    for i, line in enumerate(lines):
        word = line.strip()
        if not word:
            continue
        if not name:
            name = word
        up = word.upper()
        if up == "VEHICLE" and vehicle_at < 0:
            vehicle_at = i
        elif up.startswith("CUSTOMER") and customer_at < 0:
            customer_at = i
    if not name:
        raise InstanceError("empty instance file")
    if vehicle_at < 0:
        raise InstanceError("missing VEHICLE section")
    if customer_at < 0:
        raise InstanceError("missing CUSTOMER section")

    fleet = None
    for i in range(vehicle_at + 1, customer_at):
        toks = lines[i].split()
        if not toks or not toks[0].lstrip("-").isdigit():
            continue
        if len(toks) != 2:
            raise InstanceError(f"line {i + 1}: expected 'count capacity', got {lines[i]!r}")
        try:
            fleet = Fleet(int(toks[0]), float(toks[1]))
        except (ValueError, ModelError) as exc:
            raise InstanceError(f"line {i + 1}: bad fleet numbers ({exc})") from exc
        break
    if fleet is None:
        raise InstanceError("VEHICLE section has no count/capacity row")

    rows: list[tuple] = []
    seen: set[int] = set()
    for i in range(customer_at + 1, len(lines)):
        toks = lines[i].split()
        if not toks:
            continue
        if not toks[0].lstrip("-").isdigit():
            continue  # column header
        if len(toks) != 7:
            raise InstanceError(
                f"line {i + 1}: customer row needs 7 fields, got {len(toks)}")
        try:
            cid = int(toks[0])
            vals = tuple(float(t) for t in toks[1:])
        except ValueError as exc:
            raise InstanceError(f"line {i + 1}: non-numeric field ({exc})") from exc
        if cid in seen:
            raise InstanceError(f"line {i + 1}: duplicate customer id {cid}")
        seen.add(cid)
        rows.append((cid, *vals, i + 1))
    if len(rows) < 2:
        raise InstanceError("no customer rows found")

    rows.sort(key=lambda r: r[0])
    if [r[0] for r in rows] != list(range(len(rows))):
        raise InstanceError("customer ids must be consecutive from 0")
    nodes = []
    for cid, x, y, demand, ready, due, service, line in rows:
        try:
            nodes.append(Node(cid, x, y, demand, service, ready, due))
        except ModelError as exc:
            raise InstanceError(
                f"line {line}: bad customer row ({exc})") from exc
    profiles = (TimeProfile.constant(1.0), TimeProfile.constant(1.0),
                TimeProfile.constant(1e-4))  # unit speed, neutral TTI, crash
    points = [(n.id, n.x, n.y) for n in nodes]
    hypot = math.hypot
    try:
        arcs = _build_arcs((a, b, hypot(ax - bx, ay - by) or 1e-9, profiles)
                           for a, ax, ay in points
                           for b, bx, by in points if a != b)
        return Instance(name, tuple(nodes), arcs, fleet, nodes[0].window_close)
    except ModelError as exc:
        raise InstanceError(f"inconsistent instance: {exc}") from exc


# --------------------------------------------------------------------------
# Native text format


FORMAT_HEADER = "saferoute-instance v1"


def _profile_token(profile: TimeProfile) -> str:
    if profile.is_constant:
        return repr(profile.values[0])
    return ",".join(repr(v) for v in profile.values)


def _parse_profile_token(token: str, where: str) -> TimeProfile:
    try:
        values = list(map(float, token.split(",")))
    except ValueError as exc:
        raise InstanceError(f"{where}: bad profile value ({exc})") from exc
    if len(values) == 1:
        return TimeProfile.constant(values[0])
    if len(values) != HOURS_PER_DAY:
        raise InstanceError(
            f"{where}: profile needs 1 or {HOURS_PER_DAY} values, got {len(values)}")
    return TimeProfile(tuple(values))


def serialize_instance(instance: Instance) -> str:
    """Write an instance in the native text format.

    Floats are emitted with ``repr`` so parsing the output reproduces
    every value bit-exactly.
    """
    out = [FORMAT_HEADER]
    out.append(f"name {instance.name}")
    out.append(f"latest {instance.latest_time!r}")
    out.append(f"fleet {instance.fleet.count} {instance.fleet.capacity!r}")
    out.append(f"nodes {len(instance.nodes)}")
    for n in instance.nodes:
        out.append(f"{n.id} {n.x!r} {n.y!r} {n.demand!r} {n.service_time!r} "
                   f"{n.window_open!r} {n.window_close!r}")
    out.append(f"arcs {len(instance.arcs)}")
    for (i, j) in sorted(instance.arcs):
        arc = instance.arcs[(i, j)]
        out.append(f"{i} {j} {arc.distance!r} {_profile_token(arc.speed)} "
                   f"{_profile_token(arc.tti)} {_profile_token(arc.crash)}")
    return "\n".join(out) + "\n"


def parse_instance(text: str) -> Instance:
    """Read the native text format back into an instance.

    A ``dummies`` line after the fleet line, which older files carry,
    is skipped whatever its value.

    Raises:
        InstanceError: a malformed header, node or arc row, a repeated
            ``(tail, head)`` arc row, or a non-blank line after the
            declared arcs, each naming its line; or an inconsistent
            instance.
    """
    lines = text.splitlines()
    pos = 0

    def next_line() -> str:
        nonlocal pos
        while pos < len(lines):
            ln = lines[pos].strip()
            pos += 1
            if ln:
                return ln
        raise InstanceError("unexpected end of file")

    if not text.strip() or next_line() != FORMAT_HEADER:
        raise InstanceError(f"first line must be {FORMAT_HEADER!r}")

    def keyed(key: str, skip: str | None = None) -> str:
        head, _, rest = next_line().partition(" ")
        if head == skip:
            head, _, rest = next_line().partition(" ")
        if head != key:
            raise InstanceError(f"line {pos}: expected {key!r}, got {head!r}")
        return rest.strip()

    name = keyed("name")
    try:
        latest = float(keyed("latest"))
        count_s, cap_s = keyed("fleet").split()
        fleet = Fleet(int(count_s), float(cap_s))
        n_nodes = int(keyed("nodes", skip="dummies"))
    except (ValueError, ModelError) as exc:
        raise InstanceError(f"line {pos}: bad header value ({exc})") from exc

    nodes = []
    for _ in range(n_nodes):
        toks = next_line().split()
        if len(toks) != 7:
            raise InstanceError(f"line {pos}: node row needs 7 fields")
        try:
            nodes.append(Node(int(toks[0]), *(float(t) for t in toks[1:])))
        except (ValueError, ModelError) as exc:
            raise InstanceError(f"line {pos}: bad node row ({exc})") from exc

    try:
        n_arcs = int(keyed("arcs"))
    except ValueError as exc:
        raise InstanceError(f"line {pos}: bad arc count ({exc})") from exc
    arcs = {}
    for _ in range(n_arcs):
        toks = next_line().split()
        if len(toks) != 6:
            raise InstanceError(f"line {pos}: arc row needs 6 fields")
        where = f"line {pos}"
        try:
            i, j, dist = int(toks[0]), int(toks[1]), float(toks[2])
        except ValueError as exc:
            raise InstanceError(f"{where}: bad arc endpoints ({exc})") from exc
        try:
            arc = Arc(i, j, dist,
                      _parse_profile_token(toks[3], where),
                      _parse_profile_token(toks[4], where),
                      _parse_profile_token(toks[5], where))
        except ModelError as exc:
            raise InstanceError(f"{where}: bad arc ({exc})") from exc
        _add_once(arcs, (i, j), arc, pos)
    for extra in range(pos, len(lines)):
        if lines[extra].strip():
            raise InstanceError(
                f"line {extra + 1}: text after the {n_arcs} declared arcs")
    try:
        return Instance(name, tuple(nodes), arcs, fleet, latest)
    except ModelError as exc:
        raise InstanceError(f"inconsistent instance: {exc}") from exc


# --------------------------------------------------------------------------
# Synthetic generation


SPEED_LEVELS = (48.0, 40.0, 28.0)
TTI_LEVELS = (1.05, 1.35, 1.9)
CRASH_LEVELS = (2e-4, 5e-4, 1.2e-3)


def generate_instance(size: int, seed: int, *, fleet_count: int | None = None,
                      capacity: float = 200.0, latest: float = 14.0,
                      max_noise: float = 0.15) -> Instance:
    """Random planar instance with noisy step profiles on every arc.

    Customers are spread uniformly around a central depot; each arc
    draws its own noise amplitude in [0, ``max_noise``] and its own
    noise stream, so no two arcs share a profile.  Window widths are
    generous enough that any single customer can be served and returned
    from within the horizon.

    Args:
        size: number of customers, > 0.  Sizes 10/25/50/80 pick their
            conventional fleet counts automatically.
        seed: master seed; every derived stream hangs off it.
        fleet_count: override the fleet size table.
        capacity: per-vehicle capacity floor (raised if demand is tight).
        latest: planning horizon in hours.
        max_noise: per-arc noise amplitude upper bound, finite and
            >= 0, checked before the first draw.
    """
    if size < 1:
        raise InstanceError(f"size must be positive, got {size}")
    if latest < 8.0:
        raise InstanceError(f"horizon below 8 hours leaves no room for windows, got {latest}")
    if not (math.isfinite(max_noise) and max_noise >= 0):
        raise InstanceError(f"max_noise must be finite and >= 0, got {max_noise!r}")
    k = fleet_count if fleet_count is not None else GENERATED_FLEETS.get(size)
    if k is None:
        k = max(2, round(size / 8))
    rng = random.Random(seed)

    nodes = [Node(0, 50.0, 50.0, 0.0, 0.0, 0.0, latest)]
    total_demand = 0.0
    for i in range(1, size + 1):
        x = rng.uniform(20.0, 80.0)
        y = rng.uniform(20.0, 80.0)
        demand = float(rng.randint(5, 25))
        total_demand += demand
        open_t = 0.0 if rng.random() < 0.5 else round(rng.uniform(0.0, 2.0), 3)
        width = round(rng.uniform(2.0, 4.0), 3)
        close_t = min(open_t + width, latest - 5.0)
        nodes.append(Node(i, x, y, demand, 0.1, open_t, close_t))
    capacity = max(capacity, math.ceil(1.25 * total_demand / k))

    rows = []
    for a in nodes:
        for b in nodes:
            if a.id == b.id:
                continue
            amplitude = rng.uniform(0.0, max_noise)
            profiles = tuple(
                generate_profiles(levels, kind, amplitude, rng.getrandbits(32))
                for kind, levels in zip(PROFILE_KINDS, (
                    SPEED_LEVELS, TTI_LEVELS, CRASH_LEVELS)))
            dist = math.hypot(a.x - b.x, a.y - b.y) or 1e-9
            rows.append((a.id, b.id, dist, profiles))
    return Instance(f"RND{size}-s{seed}", tuple(nodes), _build_arcs(rows),
                    Fleet(k, float(capacity)), latest)


# --------------------------------------------------------------------------
# Case-study CSV bundle


def _csv_rows(path: str | Path, columns: dict[str, type],
              error: type[ValueError], name: str | None = None):
    """The data rows of a CSV file as (line number, fields) pairs.

    The header must be exactly ``columns``, in order, and every row must
    carry one field per column, converted by that column's type.  Blank
    lines are skipped.  Each fault, a file without data rows included,
    raises ``error`` naming the file as ``name`` (the path by default)
    and, where there is one, the first faulty line.
    """
    name = name or str(path)
    lines, rows = [], []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = [c.strip() for c in next(reader, [])]
            if header != list(columns):
                missing = ", ".join(c for c in columns if c not in header)
                detail = f"missing columns: {missing}; " if missing else ""
                raise error(f"{name} line 1: {detail}expected header "
                            f"{','.join(columns)!r}, got {header!r}")
            for row in reader:
                if len(row) == len(columns):
                    lines.append(reader.line_num)
                    rows.append(row)
                elif row:
                    raise error(f"{name} line {reader.line_num}: expected "
                                f"{len(columns)} fields, got {len(row)}")
    except OSError as exc:
        raise error(f"{name}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise error(f"{name}: {exc}") from None
    except csv.Error as exc:
        raise error(f"{name} line {reader.line_num}: {exc}") from None
    if not rows:
        raise error(f"{name}: no data rows")
    types = columns.values()
    try:
        fields = [list(map(t, texts)) for t, texts in zip(types, zip(*rows))]
    except ValueError:
        for line, row in zip(lines, rows):  # find the first bad row
            try:
                [convert(text) for convert, text in zip(types, row)]
            except ValueError as exc:
                raise error(f"{name} line {line}: {exc}") from None
    return zip(lines, zip(*fields))


def _add_once(table: dict, key, value, line: int, name: str = "",
              error: type[ValueError] = InstanceError) -> None:
    """Store ``value`` under a new ``key``, else raise naming the line."""
    if key in table:
        where = f"{name} line {line}" if name else f"line {line}"
        raise error(f"{where}: duplicate entry {key!r}")
    table[key] = value


def load_case_study(directory: str | Path) -> Instance:
    """Load the bundled delivery case from its CSV directory.

    Reads meta.csv ``key,value``, nodes.csv
    ``id,x,y,demand,service,open,close``, distances.csv
    ``tail,head,miles`` and profiles.csv ``tail,head,kind,h0,...,h23``
    (one row per arc and profile kind) through ``_csv_rows``.  A
    meta.csv key it does not read, such as the ``dummies`` of older
    bundles, is ignored.  Returns the instance, ready to solve.  Every
    fault, a value the model would reject included, is an
    ``InstanceError`` naming its file and, when one row is at fault, its
    line.

    A demand total above the whole fleet's capacity only warns: the
    instance remains loadable for inspection.
    """
    directory = Path(directory)

    def rows(name: str, columns: dict[str, type]):
        return _csv_rows(directory / name, columns, InstanceError, name)

    meta: dict[str, tuple[str, int]] = {}
    for line, (key, value) in rows("meta.csv", {"key": str, "value": str}):
        _add_once(meta, key, (value, line), line, "meta.csv")

    def setting(key: str, convert: type, above: float):
        """meta.csv's ``key`` entry: a finite ``convert`` above ``above``."""
        if key not in meta:
            raise InstanceError(f"meta.csv: missing entry {key!r}")
        text, line = meta[key]
        with contextlib.suppress(ValueError, OverflowError):
            if math.isfinite(value := convert(text)) and value > above:
                return value
        raise InstanceError(f"meta.csv line {line}: {key} must be a finite "
                            f"{convert.__name__} above {above}, got {text!r}")

    fleet = Fleet(setting("vehicles", int, 0), setting("capacity", float, 0))
    latest = setting("latest", float, 0)
    name = meta["name"][0] if "name" in meta else directory.name

    nodes: dict[int, tuple[Node, int]] = {}
    for line, fields in rows("nodes.csv", {
            "id": int, "x": float, "y": float, "demand": float,
            "service": float, "open": float, "close": float}):
        try:
            node = Node(*fields)
        except ModelError as exc:
            raise InstanceError(f"nodes.csv line {line}: {exc}") from None
        _add_once(nodes, node.id, (node, line), line, "nodes.csv")
    for node, line in nodes.values():  # distinct ids below the count
        if node.id >= len(nodes):      # run 0, 1, ... in some order
            raise InstanceError(f"nodes.csv line {line}: node ids must run "
                                f"from 0 to {len(nodes) - 1}, found {node.id}")
    depot, line = nodes[0]
    if depot.demand or depot.service_time:
        raise InstanceError(f"nodes.csv line {line}: depot must have zero "
                            "demand and service time")

    distances: dict[tuple[int, int], tuple[float, int]] = {}
    for line, (tail, head, miles) in rows(
            "distances.csv", {"tail": int, "head": int, "miles": float}):
        if tail not in nodes or head not in nodes:
            raise InstanceError(f"distances.csv line {line}: arc "
                                f"{(tail, head)} references an unknown node")
        _add_once(distances, (tail, head), (miles, line), line, "distances.csv")

    profiles: dict[tuple[int, int, str], tuple[TimeProfile, int]] = {}
    hours = {f"h{h}": float for h in range(HOURS_PER_DAY)}
    for line, row in rows(
            "profiles.csv", {"tail": int, "head": int, "kind": str, **hours}):
        tail, head, kind = row[:3]
        if kind not in PROFILE_KINDS:
            raise InstanceError(f"profiles.csv line {line}: unknown profile kind "
                                f"{kind!r}, expected one of {PROFILE_KINDS}")
        if (tail, head) not in distances:
            raise InstanceError(f"profiles.csv line {line}: arc "
                                f"{(tail, head)} has no distances.csv row")
        try:
            profile = TimeProfile(row[3:])
        except ModelError as exc:
            raise InstanceError(f"profiles.csv line {line}: {exc}") from None
        _add_once(profiles, (tail, head, kind), (profile, line), line, "profiles.csv")

    arcs = {}
    for (i, j), (dist, line) in sorted(distances.items()):
        try:
            speed, tti, crash = (profiles[i, j, kind][0] for kind in PROFILE_KINDS)
            arcs[(i, j)] = Arc(i, j, dist, speed, tti, crash)
        except KeyError as exc:
            raise InstanceError(
                f"profiles.csv: missing profile for arc ({i}, {j}): {exc}") from exc
        except InvalidProfileError as exc:
            raise InstanceError(f"profiles.csv line "
                                f"{profiles[i, j, exc.kind][1]}: {exc}") from None
        except ModelError as exc:  # the distance or a self-loop
            raise InstanceError(f"distances.csv line {line}: {exc}") from None

    instance = Instance(name, tuple(nodes[i][0] for i in range(len(nodes))),
                        arcs, fleet, latest)
    total = instance.total_demand()
    if total > fleet.count * fleet.capacity:
        warnings.warn(
            f"total demand {total} exceeds fleet capacity "
            f"{fleet.count * fleet.capacity}; instance cannot be fully served",
            stacklevel=2)
    return instance


def bundled_case_study_dir() -> Path:
    """Directory of the CSV bundle shipped inside the package."""
    return _DATA_DIR / "case_study"


def bundled_solomon_path(name: str = "R101") -> Path:
    """Path of a benchmark file shipped inside the package."""
    return _DATA_DIR / "solomon" / f"{name}.txt"


def load_solomon(name: str = "R101") -> Instance:
    """Parse a bundled benchmark instance."""
    path = bundled_solomon_path(name)
    if not path.is_file():
        raise InstanceError(f"no bundled instance named {name!r}")
    return parse_solomon(path.read_text())
