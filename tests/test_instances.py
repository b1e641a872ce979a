"""Tests for instance parsing, generation and loading."""

import hashlib
import math
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saferoute.instances import (
    ASSIGNMENT,
    HOUR_LEVELS,
    INTERVALS,
    InstanceError,
    MIN_SPEED,
    PROFILE_KINDS,
    bundled_case_study_dir,
    generate_instance,
    generate_profiles,
    load_case_study,
    load_solomon,
    parse_instance,
    parse_solomon,
    serialize_instance,
)
from saferoute.oracle import enumerate_routes
from saferoute.phase1 import propagate_schedule
from saferoute.phase2 import build_schedule_graph, optimize_schedule
from saferoute.queueing import (
    QueueingError,
    read_flow_table,
    read_nominal_speeds,
)

from helpers import reference_profile, with_first_arc_repeated

SMALL_SOLOMON = """\
TOY3

VEHICLE
NUMBER     CAPACITY
   2          50

CUSTOMER
CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME  DUE DATE   SERVICE TIME
    0      10         10          0          0       100          0
    1      13         14         12          5        30          2
    2       6         10         30         20        60          2
    3      10         18          8          0        90          2
"""


# -- step-function profiles -------------------------------------------------

def test_base_values_follow_assignment():
    values = generate_profiles((10.0, 20.0, 30.0), "speed", 0.0, 0).values
    for (lo, hi), idx in zip(INTERVALS, ASSIGNMENT):
        for h in range(lo, hi):
            assert values[h] == (10.0, 20.0, 30.0)[idx]


def test_zero_noise_is_exact_step_function():
    levels = (1.1, 1.5, 2.0)
    profile = generate_profiles(levels, "tti", 0.0, 9)
    assert profile.values == tuple(levels[idx] for idx in HOUR_LEVELS)


def test_same_seed_same_profile():
    levels = (30.0, 25.0, 15.0)
    assert generate_profiles(levels, "speed", 0.2, 123) \
        == generate_profiles(levels, "speed", 0.2, 123)
    assert generate_profiles(levels, "speed", 0.2, 124) \
        != generate_profiles(levels, "speed", 0.2, 123)


def test_noise_is_bounded_and_uniform():
    # 10^4 draws of the same hour: deviations stay inside +-20% of the
    # level and look uniform under a KS test at alpha = 0.01, whose
    # asymptotic critical value is 1.6276 / sqrt(n)
    base = 40.0
    samples = []
    for seed in range(10_000):
        value = generate_profiles((base, 35.0, 20.0), "speed", 0.2,
                                  seed).values[0]
        samples.append(value / base - 1.0)
    assert all(-0.2 <= s <= 0.2 for s in samples)
    n = len(samples)
    cdf = [(s + 0.2) / 0.4 for s in sorted(samples)]
    d = max(max((i + 1) / n - p, p - i / n) for i, p in enumerate(cdf))
    assert d < 1.6276 / math.sqrt(n)


def test_kind_bounds_enforced():
    # the kind must be one of the three profile kinds
    with pytest.raises(InstanceError, match="unknown profile kind"):
        generate_profiles((1.0, 2.0, 3.0), "cost", 0.15, 0)


@pytest.mark.parametrize("max_noise", [-0.1, math.nan, math.inf])
def test_generator_refuses_a_bad_noise_bound(max_noise):
    with pytest.raises(InstanceError, match="max_noise"):
        generate_instance(3, 0, max_noise=max_noise)


def test_clipping_keeps_kind_domains():
    for seed in range(200):
        crash = generate_profiles((0.3, 0.5, 0.9), "crash", 3.0, seed)
        assert all(0 < v <= 1 for v in crash.values)
        tti = generate_profiles((1.0, 1.2, 1.9), "tti", 3.0, seed)
        assert all(v >= 1 for v in tti.values)
        speed = generate_profiles((40.0, 30.0, 10.0), "speed", 3.0, seed)
        assert all(v >= MIN_SPEED for v in speed.values)


#: Levels in each kind's domain.  Noise of amplitude up to 5 moves a
#: value by up to five times its level either way, so draws cross every
#: clip: crash above ``MAX_CRASH`` and below ``MIN_CRASH``, speed below
#: ``MIN_SPEED`` and TTI below 1.
LEVELS = {"speed": st.floats(1e-3, 80.0), "tti": st.floats(1.0, 3.0),
          "crash": st.floats(1e-6, 1.0, exclude_max=True)}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(PROFILE_KINDS), data=st.data(),
       amplitude=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_generated_profile_is_the_clipped_uniform_draw(kind, data, amplitude,
                                                       seed):
    levels = data.draw(st.tuples(*[LEVELS[kind]] * 3))
    assert generate_profiles(levels, kind, amplitude, seed).values \
        == reference_profile(levels, kind, amplitude, seed)


# -- classic benchmark layout -------------------------------------------------

def test_parse_solomon_small_file():
    inst = parse_solomon(SMALL_SOLOMON)
    assert inst.name == "TOY3"
    assert inst.fleet.count == 2 and inst.fleet.capacity == 50.0
    assert len(inst.customers()) == 3
    assert inst.latest_time == 100.0
    node = inst.node(2)
    assert (node.x, node.y, node.demand) == (6.0, 10.0, 30.0)
    assert (node.window_open, node.window_close) == (20.0, 60.0)
    arc = inst.arc(0, 1)
    assert arc.distance == pytest.approx(5.0)
    assert arc.speed.is_constant and arc.speed.values[0] == 1.0
    assert arc.tti.values[0] == 1.0 and arc.crash.values[0] == 1e-4


def test_parse_solomon_bundled_benchmark():
    inst = load_solomon("R101")
    assert inst.name == "R101"
    assert len(inst.customers()) == 100
    assert inst.fleet.count == 25 and inst.fleet.capacity == 200.0
    assert inst.latest_time == 230.0
    assert inst.total_demand() == 1458.0
    assert all(inst.node(i).window_close - inst.node(i).window_open == 10.0
               for i in range(1, 101))
    assert (inst.depot.x, inst.depot.y) == (35.0, 35.0)


def test_parse_solomon_errors():
    with pytest.raises(InstanceError, match="VEHICLE"):
        parse_solomon("NAME\n\nCUSTOMER\n 0 0 0 0 0 9 0\n 1 1 1 1 0 9 1\n")
    with pytest.raises(InstanceError, match="CUSTOMER"):
        parse_solomon("NAME\nVEHICLE\nNUMBER CAPACITY\n 1 10\n")
    with pytest.raises(InstanceError, match="no customer rows"):
        parse_solomon(SMALL_SOLOMON.split("CUSTOMER")[0] + "CUSTOMER\n")
    truncated = SMALL_SOLOMON.replace(
        "    2       6         10         30         20        60          2",
        "    2       6         10")
    with pytest.raises(InstanceError, match="line 11"):
        parse_solomon(truncated)
    dupe = SMALL_SOLOMON.replace(
        "    3      10         18          8          0        90          2",
        "    2      10         18          8          0        90          2")
    with pytest.raises(InstanceError, match="duplicate"):
        parse_solomon(dupe)
    bad = SMALL_SOLOMON.replace("13         14", "13         oops")
    with pytest.raises(InstanceError, match="non-numeric"):
        parse_solomon(bad)
    with pytest.raises(InstanceError, match="empty"):
        parse_solomon("\n\n")


@pytest.mark.parametrize("edits, message", [
    ({"    1      13         14         12":
      "    1      13         14        -12"},
     "line 10: bad customer row (node 1: negative demand)"),
    ({"    2       6         10         30         20        60":
      "    2       6         10         30         70        60"},
     "line 11: bad customer row (node 2: bad window [70.0, 60.0])"),
    ({"    3      10         18": "    3     nan         18"},
     "line 12: bad customer row (node 3: x must be finite, got nan)"),
    ({"    0      10         10          0":
      "    0      10         10          5"},
     "inconsistent instance: depot must have zero demand and service time"),
    ({"          0       100          0": "          0         0          0"},
     "inconsistent instance: latest planning time must be positive"),
    ({"    1      13": "    1   1e308", "    3      10": "    3  -1e308"},
     "inconsistent instance: arc (1, 3): distance must be positive and "
     "finite"),
], ids=["negative-demand", "reversed-window", "nan-x", "depot-demand",
        "depot-due-zero", "overflowing-distance"])
def test_parse_solomon_names_the_values_the_model_refuses(edits, message):
    # each of these used to raise a bare ModelError, naming no line
    text = SMALL_SOLOMON
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    with pytest.raises(InstanceError) as err:
        parse_solomon(text)
    assert str(err.value) == message


# -- native format -----------------------------------------------------------

def test_native_round_trip_is_fixed_point():
    inst = parse_solomon(SMALL_SOLOMON)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert serialize_instance(again) == text


def test_native_round_trip_generated_instance():
    inst = generate_instance(10, seed=42)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert serialize_instance(again) == text


def test_native_file_with_a_dummies_line_loads_the_same():
    # older files declare a count of depot pass-through copies after
    # the fleet line; any value is read past and the instance is the
    # one the file without the line holds
    inst = generate_instance(10, seed=42)
    text = serialize_instance(inst)
    for value in ("2", "0", "-1", "many"):
        old = text.replace("\nnodes 11\n", f"\ndummies {value}\nnodes 11\n")
        assert old.splitlines()[4] == f"dummies {value}"
        assert parse_instance(old) == inst == parse_instance(text)


def test_case_study_with_a_dummies_key_loads_the_same(tmp_path):
    # older bundles carry a dummies key in meta.csv, which is ignored
    with_key = tmp_path / "with_key"
    _case_study_edited(with_key, "meta.csv", lambda ls: ls + ["dummies,2"])
    without = tmp_path / "without"
    _case_study_edited(without, "meta.csv", lambda ls: ls)
    assert "dummies,2" in (with_key / "meta.csv").read_text()
    assert load_case_study(with_key) == load_case_study(without) \
        == load_case_study(bundled_case_study_dir())


def test_native_format_errors():
    inst = generate_instance(10, seed=1)
    with pytest.raises(InstanceError, match="first line"):
        parse_instance("not-the-header\n")
    text = serialize_instance(inst)
    with pytest.raises(InstanceError):
        parse_instance(text.replace("\nnodes 11\n", "\nnodes 100\n"))
    with pytest.raises(InstanceError):
        parse_instance(text.replace("name", "label", 1))


def test_native_reader_rejects_repeated_and_extra_arc_rows():
    # the repeated row used to load as 5 arcs of the declared 6, one
    # carrying 99.0, and the extra row used to be dropped without a word
    text = serialize_instance(generate_instance(2, 0))
    repeated, line = with_first_arc_repeated(text)
    with pytest.raises(InstanceError,
                       match=rf"^line {line}: duplicate entry \(0, 1\)$"):
        parse_instance(repeated)
    extra = len(text.splitlines()) + 2
    with pytest.raises(InstanceError,
                       match=rf"^line {extra}: text after the 6 declared arcs$"):
        parse_instance(text + "\n0 1 1.0 30.0 1.0 0.5\n")


def test_loaders_share_profiles():
    def distinct(instance):
        return {id(p) for arc in instance.arcs.values()
                for p in (arc.speed, arc.tti, arc.crash)}

    inst = load_solomon("R101")
    assert len(distinct(inst)) == 3


def loader_digest(instances) -> str:
    """SHA-256 over every node field and every arc's key, distance and
    hourly speed, TTI and crash values, in the instances' own order."""
    digest = hashlib.sha256()
    for inst in instances:
        for n in inst.nodes:
            digest.update(repr((n.id, n.x, n.y, n.demand, n.service_time,
                                n.window_open, n.window_close)).encode())
        for key, arc in inst.arcs.items():
            digest.update(repr((key, arc.distance, arc.speed.values,
                                arc.tti.values, arc.crash.values)).encode())
    return digest.hexdigest()


def test_loaders_are_pinned():
    # every loader's output, bit for bit: the solves' result digest
    # covers only the values they read.  Re-pinned once when the
    # terminal copy of the depot went: the old digest's input less that
    # node and the arcs into it
    assert loader_digest([
        load_solomon("R101"),
        load_case_study(bundled_case_study_dir()),
        generate_instance(25, 0),
        parse_instance(serialize_instance(generate_instance(10, 3))),
    ]) == "309f286abf3ac0396d6001eb0b05f6304086c087c440faad7b5bafc94815b9b2"


# -- synthetic generation ------------------------------------------------------

def test_generated_fleet_size_table():
    for size, fleet in ((10, 2), (25, 3), (50, 5), (80, 12)):
        inst = generate_instance(size, seed=0)
        assert len(inst.customers()) == size
        assert inst.fleet.count == fleet


def test_generated_instances_are_deterministic_and_distinct():
    a = generate_instance(10, seed=7)
    b = generate_instance(10, seed=7)
    c = generate_instance(10, seed=8)
    assert serialize_instance(a) == serialize_instance(b)
    assert serialize_instance(a) != serialize_instance(c)


def test_generated_profiles_stay_in_domain():
    inst = generate_instance(10, seed=3)
    assert len(inst.arcs) == 11 * 10
    for arc in inst.arcs.values():
        assert all(v > 0 for v in arc.speed.values)
        assert all(v >= 1 for v in arc.tti.values)
        assert all(0 < v < 1 for v in arc.crash.values)
        assert not arc.speed.is_constant


def test_generated_windows_leave_return_slack():
    inst = generate_instance(25, seed=11)
    for i in inst.customers():
        node = inst.node(i)
        assert node.window_close <= inst.latest_time - 5.0
        assert node.window_open < node.window_close


def test_generate_validation():
    with pytest.raises(InstanceError):
        generate_instance(0, seed=1)
    with pytest.raises(InstanceError):
        generate_instance(10, seed=1, latest=6.0)


# -- case-study bundle ---------------------------------------------------------

def test_case_study_loads_depot_and_customers():
    inst = load_case_study(bundled_case_study_dir())
    assert len(inst.customers()) == 3
    nodes = [inst.node(i) for i in inst.customers()]
    assert [n.demand for n in nodes] == [100.0, 120.0, 80.0]
    assert inst.total_demand() == 300.0
    assert inst.fleet.count == 1 and inst.fleet.capacity == 300.0
    assert all(n.service_time == 0.1 for n in nodes)
    assert all((n.window_open, n.window_close) == (0.0, 1.3) for n in nodes)
    assert inst.latest_time == 23.0
    assert len(inst.nodes) == 4 and inst.customers() == (1, 2, 3)
    assert inst.arc(0, 1).distance == 6.8009


def test_case_study_round_trips_through_the_native_format():
    directory = bundled_case_study_dir()
    assert parse_instance(serialize_instance(load_case_study(directory))) \
        == load_case_study(directory)


@pytest.mark.parametrize("call, expected", [
    (lambda inst: enumerate_routes(inst, "distance").value,
     142.4611238304596),
    (lambda inst: propagate_schedule(((1, 2, 3, 4),), inst, 0.0)
     .timings[0].violations, ()),
    (lambda inst: build_schedule_graph((1,), inst, 0.0, 3).times,
     ((0.0,), (0.5459723871406064, 2.238486193570303, 3.931))),
    (lambda inst: optimize_schedule((1,), inst, 0.0, 3).service_starts,
     (0.5459723871406064,)),
], ids=["enumerate_routes", "propagate_schedule", "build_schedule_graph",
        "optimize_schedule"])
def test_entry_points_take_a_generated_instance(call, expected):
    # every public entry point reads the instance as generated, as
    # ``solve`` does; the readings are the ones the same calls gave
    # when routes ended at a copy of the depot
    assert call(generate_instance(4, 0)) == expected


def test_case_study_missing_file(tmp_path):
    with pytest.raises(InstanceError, match="meta.csv"):
        load_case_study(tmp_path)


def test_case_study_missing_profile(tmp_path):
    import shutil
    src = bundled_case_study_dir()
    for name in ("meta.csv", "nodes.csv", "distances.csv"):
        shutil.copy(src / name, tmp_path / name)
    lines = (src / "profiles.csv").read_text().splitlines()
    kept = [ln for ln in lines if not ln.startswith("2,3,speed")]
    (tmp_path / "profiles.csv").write_text("\n".join(kept) + "\n")
    with pytest.raises(InstanceError, match=r"\(2, 3\)"):
        load_case_study(tmp_path)


def _case_study_edited(tmp_path, name, edit):
    """The bundled case study with one file's lines passed through edit."""
    import shutil
    shutil.copytree(bundled_case_study_dir(), tmp_path, dirs_exist_ok=True)
    lines = (tmp_path / name).read_text().splitlines()
    (tmp_path / name).write_text("\n".join(edit(lines)) + "\n")


@pytest.mark.parametrize("name, edit, match", [
    ("distances.csv", lambda ls: ls + ["0,1,99.0"],
     r"distances.csv line 14: duplicate entry \(0, 1\)"),
    ("profiles.csv", lambda ls: ls + [ls[1]],
     r"profiles.csv line 38: duplicate entry \(0, 1, 'speed'\)"),
    ("meta.csv", lambda ls: ls + ["vehicles,2"],
     r"meta.csv line 6: duplicate entry 'vehicles'"),
    ("distances.csv", lambda ls: [ln for ln in ls if ln != "2,3,9.1"],
     r"profiles.csv line 32: arc \(2, 3\) has no distances.csv row"),
    ("meta.csv", lambda ls: ["k,v"] + ls[1:],
     r"meta.csv line 1: missing columns: key, value; expected header "
     r"'key,value', got \['k', 'v'\]"),
    ("profiles.csv", lambda ls: ls + ["0,1,speeeed" + ",1.0" * 24],
     r"profiles.csv line 38: unknown profile kind 'speeeed'"),
    ("nodes.csv", lambda ls: ls[:2] + ["1,6.3,2.6,100.0"] + ls[3:],
     r"nodes.csv line 3: expected 7 fields, got 4"),
    ("distances.csv", lambda ls: ls[:1] + [ls[1] + ",5"] + ls[2:],
     r"distances.csv line 2: expected 3 fields, got 4"),
    ("nodes.csv", lambda ls: ["id,y,x,demand,service,open,close"] + ls[1:],
     r"nodes.csv line 1: expected header 'id,x,y,demand,service,open,"
     r"close', got \['id', 'y', 'x',"),
    ("profiles.csv", lambda ls: ls[:1],
     r"profiles.csv: no data rows"),
    ("profiles.csv", lambda ls: ls[:1] + ["0,1,speed" + ",nan" * 24] + ls[2:],
     r"profiles.csv line 2: profile values must be finite"),
    ("distances.csv", lambda ls: ls[:1] + ["0,1,0"] + ls[2:],
     r"distances.csv line 2: arc \(0, 1\): distance must be positive"),
    ("nodes.csv", lambda ls: ls[:2] + ["5" + ls[2][1:]] + ls[3:],
     r"nodes.csv line 3: node ids must run from 0 to 3, found 5"),
    ("meta.csv", lambda ls: [ln.replace("latest,23.0", "latest,-1")
                             for ln in ls],
     r"meta.csv line 5: latest must be a finite float above 0, got '-1'"),
    ("profiles.csv", lambda ls: ls[:1] + ["0,1,speed" + ",-1.0" * 24] + ls[2:],
     r"profiles.csv line 2: arc \(0, 1\) speed value -1.0 at hour 0"),
], ids=["distance", "profile", "meta-key", "profile-without-distance",
        "meta-header", "profile-kind", "short-row", "extra-field",
        "reordered-header", "header-only", "nan-profile", "zero-distance",
        "node-id-gap", "negative-latest", "profile-range"])
def test_case_study_rejects_repeated_and_orphan_rows(tmp_path, name, edit,
                                                     match):
    # the last of two rows used to win silently, an orphan profile or a
    # misspelt kind was dropped, a wrong meta header raised KeyError, a
    # short row raised TypeError, an extra field and a reordered header
    # loaded, and a NaN profile value was reported without its place; a
    # zero distance, a gap in the node ids, a negative horizon and a
    # profile value out of range named no file
    _case_study_edited(tmp_path, name, edit)
    with pytest.raises(InstanceError, match=match):
        load_case_study(tmp_path)


def test_case_study_overload_warns(tmp_path):
    import shutil
    src = bundled_case_study_dir()
    for name in ("nodes.csv", "distances.csv", "profiles.csv"):
        shutil.copy(src / name, tmp_path / name)
    meta = (src / "meta.csv").read_text().replace("300.0", "100.0")
    (tmp_path / "meta.csv").write_text(meta)
    with pytest.warns(UserWarning, match="demand"):
        inst = load_case_study(tmp_path)
    assert inst.fleet.capacity == 100.0


#: Header of every CSV file the package reads.
CSV_HEADERS = {
    "meta.csv": ("key", "value"),
    "nodes.csv": ("id", "x", "y", "demand", "service", "open", "close"),
    "distances.csv": ("tail", "head", "miles"),
    "profiles.csv": ("tail", "head", "kind",
                     *(f"h{h}" for h in range(24))),
    "flows.csv": ("tail", "head", "hour", "flow"),
    "nominal_speeds.csv": ("tail", "head", "nominal_speed"),
}

FIELDS = st.one_of(
    st.integers(-1, 30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "x", " 2", "1.5", "speed", "tti", "crash",
                     "vehicles", "capacity", "latest", "dummies", "name",
                     '"3"', '"1,2"', '"a\nb"']))


@st.composite
def csv_text(draw, header):
    """CSV text that is often close to ``header``'s layout and often not:
    exact, shuffled or partial headers, short and long rows, blank lines
    and fields that are not numbers."""
    head = draw(st.one_of(st.just(list(header)),
                          st.permutations(header),
                          st.lists(st.sampled_from(header),
                                   max_size=len(header))))
    width = len(header)
    widths = st.sampled_from([0, width, width, width, width - 1, width + 1])
    rows = draw(st.lists(
        widths.flatmap(lambda n: st.lists(FIELDS, min_size=n, max_size=n)),
        max_size=8))
    ending = draw(st.sampled_from(["", "\n", "\r\n"]))
    return "\n".join(",".join(row) for row in [head, *rows]) + ending


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(CSV_HEADERS)))
def test_csv_readers_fail_only_with_their_own_error(data, name):
    # each reader returns or raises its module's error naming the file,
    # never TypeError, KeyError, IndexError or the model's error: a short
    # case-study row used to end in a TypeError traceback, and a check
    # across files (node ids, arc ends, profile bounds) named no file
    speeds = ("flows.csv", "nominal_speeds.csv")
    text = data.draw(csv_text(CSV_HEADERS[name]))
    with tempfile.TemporaryDirectory() as tmp:
        case = Path(tmp) / "case"
        shutil.copytree(bundled_case_study_dir(), case)
        (case / name).write_text(text, newline="")
        path = str(case / name)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an overloaded fleet
                if name == "flows.csv":
                    read_flow_table(path)
                elif name == "nominal_speeds.csv":
                    read_nominal_speeds(path)
                else:
                    load_case_study(case)
        except QueueingError as exc:
            assert name in speeds and str(exc).startswith(path)
        except InstanceError as exc:
            # an orphan profile row names profiles.csv whichever file
            # lost its row, and an arc to an unknown node distances.csv
            assert name not in speeds
            assert str(exc).split(" ")[0].rstrip(":") in CSV_HEADERS
