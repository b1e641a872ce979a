"""Arc traversal, profile handling and instance lookups."""

import copy
import math
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saferoute import model
from saferoute.instances import (
    MAX_CRASH,
    bundled_case_study_dir,
    load_case_study,
    load_solomon,
)
from saferoute.model import (
    Arc,
    Fleet,
    Instance,
    InvalidProfileError,
    MissingArcError,
    ModelError,
    Node,
    TimeProfile,
    augment_depot,
    ensure_augmented,
    hour_index,
    leg,
    travel_time,
    traverse,
)

from helpers import (
    TOP_CRASHES,
    reference_fastest,
    reference_profile_check,
)
from oracle_utils import euler_travel_time


def profile_with(values_by_hour: dict[int, float], default: float) -> TimeProfile:
    vals = [default] * 24
    for h, v in values_by_hour.items():
        vals[h] = v
    return TimeProfile(tuple(vals))


def make_arc(distance=10.0, speed=None, tti=None, crash=None, tail=0, head=1):
    return Arc(
        tail=tail,
        head=head,
        distance=distance,
        speed=speed or TimeProfile.constant(30.0),
        tti=tti or TimeProfile.constant(1.0),
        crash=crash or TimeProfile.constant(0.01),
    )


class TestTimeProfile:
    def test_needs_24_values(self):
        with pytest.raises(InvalidProfileError):
            TimeProfile((1.0,) * 23)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidProfileError):
            TimeProfile((math.nan,) + (1.0,) * 23)

    def test_lookup_wraps(self):
        prof = profile_with({1: 7.0}, 2.0)
        assert prof.values[hour_index(25.5)] == 7.0
        assert prof.values[hour_index(1.0)] == 7.0
        assert prof.values[hour_index(49.9)] == 7.0

    def test_hour_index_rejects_negative(self):
        with pytest.raises(ModelError):
            hour_index(-0.1)

    @given(st.one_of(
        # 24 draws from a few values, so repeats and -0.0 beside 0.0
        st.lists(st.sampled_from((0.0, -0.0)) | st.floats(-1e3, 1e3),
                 min_size=1, max_size=3).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=24,
                                  max_size=24)).map(
            lambda values: TimeProfile(tuple(values))),
        st.floats(allow_nan=False, allow_infinity=False).map(
            TimeProfile.constant)))
    @settings(max_examples=300, deadline=None)
    def test_range_is_set_at_construction(self, profile):
        values = profile.values
        assert repr(profile.bounds) == repr((min(values), max(values)))
        assert profile.is_constant == (len(set(values)) == 1)
        same = replace(profile)
        assert same == profile and hash(same) == hash(profile)
        assert repr(same) == repr(profile) == f"TimeProfile(values={values!r})"
        assert repr(same.bounds) == repr(profile.bounds)


class TestTravelTime:
    def test_boundary_switch_slow_then_fast(self):
        # 10 miles, 20 mph during [7, 8), 40 mph during [8, 9).
        arc = make_arc(speed=profile_with({7: 20.0, 8: 40.0}, 60.0))
        # Departing 7:30 the whole arc fits before 8:00 at 20 mph.
        assert travel_time(arc, 7.5) == pytest.approx(0.5, abs=1e-12)
        # Departing 7:45 covers 5 miles by 8:00, the rest at 40 mph.
        assert travel_time(arc, 7.75) == pytest.approx(0.375, abs=1e-12)

    def test_constant_profile_reduces_to_ratio(self):
        rng = random.Random(4)
        for _ in range(50):
            speed = rng.uniform(5.0, 70.0)
            dist = rng.uniform(0.5, 40.0)
            arc = make_arc(distance=dist, speed=TimeProfile.constant(speed))
            depart = rng.uniform(0.0, 60.0)
            assert travel_time(arc, depart) == pytest.approx(dist / speed, rel=1e-12)

    def test_segments_report_hours_and_miles(self):
        arc = make_arc(speed=profile_with({7: 20.0, 8: 40.0}, 60.0))
        trav = traverse(arc, 7.75)
        assert [seg[0] for seg in trav.segments] == [7, 8]
        miles = [seg[1] for seg in trav.segments]
        assert miles == pytest.approx([5.0, 5.0])
        assert sum(seg[2] for seg in trav.segments) == pytest.approx(trav.duration)

    def test_distance_is_conserved(self):
        rng = random.Random(11)
        for k in range(400):
            speeds = tuple(rng.uniform(3.0, 70.0) for _ in range(24))
            speed = TimeProfile(speeds) if k % 2 else \
                TimeProfile.constant(speeds[0])
            arc = make_arc(distance=rng.uniform(0.2, 80.0), speed=speed)
            trav = traverse(arc, rng.uniform(0.0, 48.0))
            assert sum(seg[1] for seg in trav.segments) == pytest.approx(
                arc.distance, abs=1e-9)

    def test_matches_step_simulation(self):
        rng = random.Random(7)
        for _ in range(10):
            speeds = [rng.uniform(10.0, 60.0) for _ in range(24)]
            dist = rng.uniform(1.0, 25.0)
            depart = rng.uniform(0.0, 30.0)
            arc = make_arc(distance=dist, speed=TimeProfile(tuple(speeds)))
            expected = euler_travel_time(dist, speeds, depart)
            assert travel_time(arc, depart) == pytest.approx(expected, abs=5e-3)

    def test_midnight_wrap(self):
        # 23:30 departure, 10 miles: 5 miles at 10 mph until midnight,
        # then hour 0's 50 mph finishes the arc in 0.1 h.
        arc = make_arc(speed=profile_with({23: 10.0, 0: 50.0}, 60.0))
        trav = traverse(arc, 23.5)
        assert [seg[0] for seg in trav.segments] == [23, 0]
        assert trav.duration == pytest.approx(0.6, abs=1e-12)

    def test_fifo_never_violated(self):
        rng = random.Random(99)
        for _ in range(10_000):
            speeds = tuple(rng.uniform(3.0, 70.0) for _ in range(24))
            arc = make_arc(distance=rng.uniform(0.2, 50.0),
                           speed=TimeProfile(speeds))
            t = rng.uniform(0.0, 48.0)
            delta = rng.uniform(0.0, 6.0)
            early = t + travel_time(arc, t)
            late = (t + delta) + travel_time(arc, t + delta)
            assert late >= early - 1e-9

    def test_negative_departure_rejected(self):
        with pytest.raises(ModelError):
            travel_time(make_arc(), -1.0)

    @pytest.mark.parametrize("depart", [-1.0, math.inf, math.nan])
    def test_bad_departure_rejected_for_any_profile(self, depart):
        varying = {"speed": profile_with({7: 20.0}, 60.0),
                   "tti": profile_with({7: 1.5}, 1.0),
                   "crash": profile_with({7: 0.05}, 0.01)}
        # every mix of constant and varying profiles: each takes its
        # own branch in travel_time or leg
        for mask in range(8):
            arc = make_arc(**{kind: profile
                              for bit, (kind, profile)
                              in enumerate(varying.items())
                              if mask >> bit & 1})
            for read in (travel_time, leg):
                with pytest.raises(ModelError, match="departure time"):
                    read(arc, depart)

    @settings(max_examples=300, deadline=None)
    @given(distance=st.floats(1e-3, 500.0), speed=st.floats(1.0, 120.0),
           depart=st.floats(0.0, 1e4))
    def test_constant_speed_closed_form_is_exact(self, distance, speed,
                                                 depart):
        # the closed form must equal the hour-by-hour integration bit
        # for bit, or goldens computed either way would drift
        arc = make_arc(distance=distance, speed=TimeProfile.constant(speed))
        assert travel_time(arc, depart) == traverse(arc, depart).duration


class TestIndexBlending:
    def test_single_hour_uses_that_hour(self):
        arc = make_arc(distance=5.0, speed=TimeProfile.constant(30.0),
                       tti=profile_with({9: 1.4}, 1.0))
        assert leg(arc, 9.2)[1] == pytest.approx(1.4)

    def test_free_flow_index_is_one(self):
        arc = make_arc(tti=TimeProfile.constant(1.0))
        assert leg(arc, 13.7)[1] == 1.0

    def test_distance_weighted_blend(self):
        # 10 miles split 5/5 across hours with TTI 1.0 then 2.0.
        arc = make_arc(speed=profile_with({7: 20.0, 8: 40.0}, 60.0),
                       tti=profile_with({7: 1.0, 8: 2.0}, 1.0))
        assert leg(arc, 7.75)[1] == pytest.approx(1.5)

    def test_crash_values(self):
        arc = make_arc(distance=5.0, speed=TimeProfile.constant(30.0),
                       crash=profile_with({9: 0.05}, 0.01))
        assert leg(arc, 9.1)[2] == pytest.approx(0.05)
        arc2 = make_arc(crash=TimeProfile.constant(0.1))
        assert leg(arc2, 3.0)[2] == pytest.approx(0.1)

    def test_crash_blend(self):
        arc = make_arc(speed=profile_with({7: 20.0, 8: 40.0}, 60.0),
                       crash=profile_with({7: 0.02, 8: 0.06}, 0.01))
        assert leg(arc, 7.75)[2] == pytest.approx(0.04)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depart=st.floats(0.0, 100.0),
           nudge=st.sampled_from(("as drawn", "on the hour", "ulp below")))
    # constant speed, 0.181 miles in one segment: speed * duration came
    # to 2.1e-12 less than the arc length
    @example(seed=3574762, depart=64.0, nudge="as drawn")
    @example(seed=3574762, depart=64.0, nudge="ulp below")
    @example(seed=1, depart=7.0, nudge="on the hour")
    @example(seed=1, depart=7.0, nudge="ulp below")
    def test_leg_is_travel_time_plus_distance_blends(self, seed, depart,
                                                     nudge):
        # leg and travel_time read arcs through a kernel that records
        # no segments; its readings must equal those computed from
        # traverse's segments bit for bit
        if nudge != "as drawn":
            depart = float(math.ceil(depart))
        if nudge == "ulp below" and depart > 0:
            depart = math.nextafter(depart, 0.0)
        rng = random.Random(seed)
        arc = random_arc(rng)
        reading = leg(arc, depart)
        assert reading[0] == travel_time(arc, depart)
        assert reading == traverse_reading(arc, depart)


def random_arc(rng: random.Random) -> Arc:
    """An arc whose three profiles are each constant or hourly at random."""
    def profile(lo, hi):
        if rng.random() < 0.5:
            return TimeProfile.constant(rng.uniform(lo, hi))
        return TimeProfile(tuple(rng.uniform(lo, hi) for _ in range(24)))

    return make_arc(distance=rng.uniform(0.1, 80.0),
                    speed=profile(5.0, 70.0), tti=profile(1.0, 3.0),
                    crash=profile(1e-4, 0.2))


def traverse_reading(arc: Arc, depart: float) -> tuple[float, float, float]:
    """``leg``'s reading computed from ``traverse``'s segments: the
    profile's one value, the one segment's hour, or the blend by miles
    summed in driving order, for crash at most the profile's highest
    value."""
    trav = traverse(arc, depart)
    values = []
    for prof in (arc.tti, arc.crash):
        if prof.is_constant:
            values.append(prof.values[0])
        elif len(trav.segments) == 1:
            values.append(prof.values[trav.segments[0][0]])
        else:
            acc = 0.0
            for slot, miles, _ in trav.segments:  # in driving order
                acc += miles * prof.values[slot]
            values.append(acc / arc.distance)
    return trav.duration, values[0], min(values[1], max(arc.crash.values))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
# the blends by miles of these two (varying and constant speed) round
# to 1.0: 1 - 2**-53 is the highest value, so the quotient is capped
@example(seed=14)
@example(seed=18)
def test_crash_blend_stays_below_one(seed):
    # a leg's crash is a blend of hourly values below 1 by miles, and
    # a blend is at most the highest of them, however it rounds; from
    # the three largest values below 1, unrounded quotients reach 1.0
    rng = random.Random(seed)
    crash = TimeProfile(tuple(rng.choice(TOP_CRASHES) for _ in range(24)))
    speed = (TimeProfile.constant(rng.uniform(1.0, 60.0))
             if rng.random() < 0.5 else
             TimeProfile(tuple(rng.uniform(1.0, 60.0) for _ in range(24))))
    arc = make_arc(distance=rng.uniform(0.1, 200.0), speed=speed,
                   crash=crash)
    depart = rng.uniform(0.0, 48.0)
    reading = leg(arc, depart)
    assert reading == traverse_reading(arc, depart)
    assert reading[2] <= max(crash.values) < 1.0


HOURS = st.integers(0, 72)
#: Departures a memo key must tell apart or merge: any time, an exact
#: hour boundary, one ulp below one, -0.0 (equal to 0.0) and ints
#: (equal to their floats).
DEPARTURES = st.one_of(
    st.floats(0.0, 72.0), HOURS.map(float),
    st.integers(1, 72).map(lambda h: math.nextafter(float(h), 0.0)),
    st.just(-0.0), HOURS)


class TestReadingMemo:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_warm_arc_reads_what_a_fresh_one_does(self, seed, data):
        # every reading of an arc whose memo is warm, including repeats
        # and keys that compare equal, is the one the kernel computes
        # on an arc that has read nothing, and traverse's blends
        rng = random.Random(seed)
        arc = random_arc(rng)
        pool = data.draw(st.lists(DEPARTURES, min_size=1, max_size=6))
        order = data.draw(st.lists(st.sampled_from(pool), max_size=20))
        for depart in pool + order:
            expected = traverse_reading(arc, depart)
            assert model._read_arc(replace(arc), depart) == expected
            assert leg(arc, depart) == expected
            assert travel_time(arc, depart) == expected[0]
        for bad in (-1.0, -5e-324, math.nan, math.inf, -math.inf):
            for read in (leg, travel_time):
                with pytest.raises(ModelError, match="departure time"):
                    read(arc, bad)
        # a replaced arc keeps no reading of the arc it was made from
        other = replace(arc, speed=random_arc(rng).speed,
                        tti=TimeProfile(tuple(rng.uniform(1.0, 3.0)
                                              for _ in range(24))))
        for depart in pool:
            expected = traverse_reading(other, depart)
            assert leg(other, depart) == expected
            assert travel_time(other, depart) == expected[0]

    def test_filling_past_the_cap_changes_no_reading(self):
        rng = random.Random(5)
        arc = make_arc(distance=25.0,
                       speed=TimeProfile(tuple(rng.uniform(5.0, 70.0)
                                               for _ in range(24))),
                       tti=profile_with({7: 1.5, 8: 2.5}, 1.0))
        departures = [k / 37 for k in range(model._MEMO_CAP + 100)]
        first = [leg(arc, d) for d in departures]
        assert 0 < len(arc._readings) <= model._MEMO_CAP
        again = [leg(arc, d) for d in reversed(departures)][::-1]
        assert first == again == [model._read_arc(replace(arc), d)
                                  for d in departures]
        assert [travel_time(arc, d) for d in departures] \
            == [reading[0] for reading in first]


#: Values on and next to each range's bounds: speed (0, inf), TTI
#: [1, inf), crash (0, 1].
EDGES = (0.0, -0.0, 5e-324, 1.0, math.nextafter(1.0, 0),
         math.nextafter(1.0, 2), -1.0, 30.0)
HOURLY = st.one_of(st.sampled_from(EDGES),
                   st.floats(-2.0, 60.0, allow_nan=False))
PROFILES = st.one_of(
    HOURLY.map(TimeProfile.constant),
    st.lists(HOURLY, min_size=24, max_size=24).map(
        lambda values: TimeProfile(tuple(values))),
    # one drawn value, at a drawn hour, in an otherwise flat profile
    st.tuples(st.sampled_from((1.0, 0.5, 30.0)), st.integers(0, 23),
              HOURLY).map(lambda d: profile_with({d[1]: d[2]}, d[0])),
)

#: In-range profiles, constant or hourly, for speed, TTI and crash.
VALID_TRIPLES = st.tuples(*(
    st.one_of(values.map(TimeProfile.constant),
              st.lists(values, min_size=24, max_size=24).map(
                  lambda vs: TimeProfile(tuple(vs))))
    for values in (st.floats(1e-3, 120.0), st.floats(1.0, 4.0),
                   st.floats(1e-9, 1.0))))


class TestValidation:
    def test_arc_rejects_bad_values(self):
        with pytest.raises(ModelError):
            make_arc(distance=0.0)
        with pytest.raises(InvalidProfileError):
            make_arc(speed=TimeProfile.constant(0.0))
        with pytest.raises(InvalidProfileError):
            make_arc(tti=TimeProfile.constant(0.9))
        with pytest.raises(InvalidProfileError):
            make_arc(crash=TimeProfile.constant(0.0))
        for certain in (1.0, 1.1):  # crash lies in (0, 1)
            with pytest.raises(InvalidProfileError, match=rf"crash value "
                               rf"{certain} at hour 0 outside \(0\.0, 1\.0\)"):
                make_arc(crash=TimeProfile.constant(certain))
        assert make_arc(crash=TimeProfile.constant(MAX_CRASH)).crash.bounds \
            == (MAX_CRASH, MAX_CRASH)
        with pytest.raises(ModelError):
            make_arc(tail=3, head=3)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ModelError, match=r"^arc \(0, 1\): distance "
                               r"must be positive and finite$"):
                make_arc(distance=bad)

    def test_arc_keeps_its_value_semantics(self):
        rng = random.Random(3)
        speed = TimeProfile(tuple(rng.uniform(5.0, 70.0) for _ in range(24)))
        arc, fresh = (make_arc(distance=25.0, speed=speed) for _ in range(2))
        readings = [leg(arc, depart) for depart in (0.5, 7.25, 30.0)]
        assert arc._readings and not fresh._readings
        assert arc == fresh and hash(arc) == hash(fresh)
        assert repr(arc) == repr(fresh)
        assert "_readings" not in repr(arc)
        for name in ("tail", "head", "distance", "speed", "tti", "crash",
                     "_readings"):
            with pytest.raises(FrozenInstanceError):
                setattr(arc, name, None)
        with pytest.raises(InvalidProfileError) as err:
            replace(arc, crash=TimeProfile.constant(1.5))
        assert err.value.kind == "crash"
        with pytest.raises(InvalidProfileError) as err:
            replace(arc, tti=TimeProfile.constant(0.5),
                    crash=TimeProfile.constant(0.0))
        assert err.value.kind == "tti"
        again = replace(arc)
        assert again == arc and not again._readings
        assert [leg(again, d) for d in (0.5, 7.25, 30.0)] == readings

    def test_arc_declares_its_own_slots(self):
        # the memo is a slot and no field: the frozen class refuses any
        # assignment, and a pickle or a copy, of an arc or an instance,
        # builds each arc again through its checks, with an empty memo
        arc = make_arc(distance=25.0, speed=profile_with({7: 50.0}, 30.0))
        leg(arc, 7.5)
        assert arc._readings and not hasattr(arc, "__dict__")
        assert [f.name for f in fields(Arc)] \
            == ["tail", "head", "distance", "speed", "tti", "crash"]
        with pytest.raises(FrozenInstanceError):
            arc.memo = 1
        for again in (pickle.loads(pickle.dumps(arc)), copy.copy(arc),
                      copy.deepcopy(arc)):
            assert again == arc and again is not arc
            assert again._readings is None
        inst = small_instance(2)
        assert pickle.loads(pickle.dumps(inst)) == inst == copy.deepcopy(inst)

    @given(pool=st.lists(PROFILES, min_size=1, max_size=4),
           picks=st.lists(st.tuples(*[st.integers(0, 3)] * 3),
                          min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_range_check_is_the_hourly_scan(self, pool, picks):
        # arcs draw their three profiles from a small pool, so a profile
        # is shared across arcs and kinds as well as used once
        for k, picked in enumerate(picks):
            speed, tti, crash = (pool[i % len(pool)] for i in picked)
            expected = reference_profile_check(k, k + 1, speed, tti, crash)
            if expected is None:
                Arc(k, k + 1, 1.0, speed, tti, crash)
                continue
            with pytest.raises(InvalidProfileError) as err:
                Arc(k, k + 1, 1.0, speed, tti, crash)
            assert str(err.value) == expected

    @given(triples=st.lists(VALID_TRIPLES, min_size=1, max_size=3),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_bulk_build_is_arc_by_arc(self, triples, data):
        # rows share one triple, as a loader's do, or draw theirs from a
        # small pool; at most one row, anywhere, breaks a rule
        keys = data.draw(st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
                lambda k: k[0] != k[1]), min_size=1, max_size=10, unique=True))
        rows = [(tail, head, data.draw(st.floats(1e-6, 1e6)),
                 data.draw(st.sampled_from(triples)))
                for tail, head in keys]
        fault = data.draw(st.one_of(st.none(), st.tuples(
            st.integers(0, len(rows) - 1), st.sampled_from(
                ("self-loop", 0.0, -0.0, math.inf, math.nan, "speed", "tti",
                 "crash")), st.integers(0, 23))))
        if fault is not None:
            at, what, hour = fault
            tail, head, length, triple = rows[at]
            if what == "self-loop":
                rows[at] = (tail, tail, length, triple)
            elif isinstance(what, float):
                rows[at] = (tail, head, what, triple)
            else:  # one hour out of range, in a triple of its own
                kind = ("speed", "tti", "crash").index(what)
                bad = profile_with({hour: (0.0, 0.5, 1.5)[kind]}, 1.0)
                rows[at] = (tail, head, length,
                            triple[:kind] + (bad,) + triple[kind + 1:])
        expected, error = {}, None
        for tail, head, length, triple in rows:
            try:
                expected[tail, head] = Arc(tail, head, length, *triple)
            except ModelError as exc:
                error = exc
                break
        fitted = model._profiles_fit
        checks = []
        model._profiles_fit = lambda *triple: checks.append(triple) or \
            fitted(*triple)
        try:
            if error is not None:
                with pytest.raises(type(error)) as err:
                    model._build_arcs(rows)
                assert str(err.value) == str(error)
                assert getattr(err.value, "kind", None) \
                    == getattr(error, "kind", None)
                return
            built = model._build_arcs(rows)
        finally:
            model._profiles_fit = fitted
        # each run of rows sharing one triple checks it once
        runs = [triple for k, (*_, triple) in enumerate(rows)
                if k == 0 or triple is not rows[k - 1][3]]
        assert checks == runs
        assert list(built) == list(expected)
        for key, arc in built.items():
            twin = expected[key]
            assert arc == twin and hash(arc) == hash(twin)
            assert repr(arc) == repr(twin)
            assert [getattr(arc, f.name) for f in fields(Arc)] \
                == [getattr(twin, f.name) for f in fields(Arc)]
            assert type(arc) is Arc and arc._readings is None
            with pytest.raises(FrozenInstanceError):
                arc.tail = twin.head
            again = pickle.loads(pickle.dumps(arc))
            assert again == arc and again._readings is None

    def test_node_validation(self):
        with pytest.raises(ModelError):
            Node(1, 0, 0, demand=-1)
        with pytest.raises(ModelError):
            Node(1, 0, 0, window_open=5, window_close=2)
        assert Node(1, 0, 0).window_close == math.inf  # no deadline

    @pytest.mark.parametrize("field", ["x", "y", "demand", "service_time",
                                       "window_open"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_node_rejects_non_finite_values(self, field, value):
        # a NaN compares false against every bound, so it used to pass
        # the sign and window checks and upset the solve downstream
        with pytest.raises(ModelError, match=f"{field} must be finite"):
            Node(**{"id": 1, "x": 0.0, "y": 0.0, field: value})

    def test_fleet_validation(self):
        with pytest.raises(ModelError):
            Fleet(0, 100)
        with pytest.raises(ModelError):
            Fleet(2, 0)

    @pytest.mark.parametrize("key, ends, message", [
        ((1, 0), (0, 1), "arc key (1, 0) mismatches arc endpoints"),
        ((2, 0), (2, 1), "arc key (2, 0) mismatches arc endpoints"),
        (("0", "1"), (0, 1), "arc key (0, 1) mismatches arc endpoints"),
        ((4, 0), (4, 0), "arc (4, 0) references unknown node"),
        ((0, -1), (0, -1), "arc (0, -1) references unknown node"),
        (("a", 1), ("a", 1), "arc (a, 1) references unknown node"),
    ], ids=["swapped", "other-head", "str-key", "tail-past-last",
            "negative-head", "str-node"])
    def test_instance_checks_each_arcs_key_and_ends(self, key, ends, message):
        # nodes 0..3: an arc stored under another key, or reaching a
        # node the instance lacks, is refused however it got there
        base = small_instance(3)
        arcs = {**base.arcs, key: make_arc(tail=ends[0], head=ends[1])}
        with pytest.raises(ModelError) as err:
            replace(base, arcs=arcs)
        assert str(err.value) == message


def small_instance(n_customers=3) -> Instance:
    nodes = [Node(0, 0.0, 0.0, window_close=24.0)]
    for i in range(1, n_customers + 1):
        nodes.append(Node(i, float(i), 1.0, demand=10.0, service_time=0.1,
                          window_open=0.0, window_close=8.0))
    arcs = {}
    for a in nodes:
        for b in nodes:
            if a.id != b.id:
                dist = abs(a.x - b.x) + abs(a.y - b.y)
                arcs[(a.id, b.id)] = make_arc(distance=dist, tail=a.id, head=b.id)
    return Instance("small", tuple(nodes), arcs, Fleet(2, 100.0), latest_time=24.0)


class TestAugmentation:
    """Routes end at node 0, so an instance is never augmented: what
    used to read its depot copies reads the plain instance."""

    def test_customer_lookup_skips_depot_copies(self):
        inst = small_instance(3)
        members = [n for n in range(-1, len(inst.nodes) + 2)
                   if inst.is_customer(n)]
        assert members == [1, 2, 3]
        assert inst.customers() is inst.customers()

    def test_harness_names_return_their_argument(self):
        # ``augment_depot`` and ``ensure_augmented`` stay only for the
        # benchmark harness, and add nothing
        inst = small_instance(2)
        assert augment_depot(inst) is inst
        assert ensure_augmented(inst) is inst

    def test_missing_arc_error(self):
        inst = small_instance(2)
        with pytest.raises(MissingArcError):
            inst.arc(0, 0)

    def test_node_lookup_refuses_unknown_ids(self):
        # a negative id used to index ``nodes`` from the end
        inst = load_case_study(bundled_case_study_dir())
        count = len(inst.nodes)
        assert [inst.node(k).id for k in range(count)] == list(range(count))
        for bad in (-1, -count, count, 99):
            with pytest.raises(ModelError, match=f"^no node with id {bad}$"):
                inst.node(bad)


class TestLengthMatrix:
    def test_entries_are_arc_lengths_or_inf(self):
        inst = load_case_study(bundled_case_study_dir())
        # nothing on the set-up path builds the tables
        assert "length_matrix" not in inst.__dict__
        assert "length_columns" not in inst.__dict__
        table, columns = inst.length_matrix, inst.length_columns
        n = len(inst.nodes)
        assert len(table) == n and all(len(row) == n for row in table)
        assert len(columns) == n and all(len(col) == n for col in columns)
        missing = 0
        for i in range(n):
            for j in range(n):
                arc = inst.arcs.get((i, j))
                if arc is None:
                    missing += 1
                    assert table[i][j] == math.inf
                else:
                    assert table[i][j] == arc.distance
                assert columns[j][i] == table[i][j]
        assert 0 < missing < n * n - n  # a sparse graph

    @pytest.mark.parametrize("name", ["case", "R101"])
    def test_fastest_matrix_is_each_arcs_fastest_time(self, name):
        # each entry is the arc's length over its largest hourly speed,
        # inf for a missing arc; set-up builds neither fastest table
        inst = load_case_study(bundled_case_study_dir()) if name == "case" \
            else load_solomon("R101")
        assert "fastest_matrix" not in inst.__dict__
        assert "fastest_ends" not in inst.__dict__
        table = inst.fastest_matrix
        n = len(inst.nodes)
        assert len(table) == n and all(len(row) == n for row in table)
        assert [[reference_fastest(inst, i, j) for j in range(n)]
                for i in range(n)] == table

    def test_fastest_ends_are_the_least_fastest_times(self):
        # the window slice of an insertion reads these bounds; set-up
        # never builds them, and no departure drives an arc faster, up
        # to the rounding of the hour-by-hour sum, which the slice's
        # margin covers.  Every node of the case study has arcs in and
        # out, so a copy without the arcs out of node 1 holds the inf
        inst = load_case_study(bundled_case_study_dir())
        assert "fastest_ends" not in inst.__dict__
        assert "fastest_ends" not in load_solomon("R101").__dict__
        cut = replace(inst, arcs={(t, h): arc for (t, h), arc
                                  in inst.arcs.items() if t != 1})
        for graph in (inst, cut):
            into, out_of = graph.fastest_ends
            for v in range(len(graph.nodes)):
                assert into[v] == min((reference_fastest(graph, t, h)
                                       for t, h in graph.arcs if h == v),
                                      default=math.inf)
                assert out_of[v] == min((reference_fastest(graph, t, h)
                                         for t, h in graph.arcs if t == v),
                                        default=math.inf)
        assert out_of[1] == math.inf
        for (t, h), arc in inst.arcs.items():
            fastest = reference_fastest(inst, t, h)
            assert all(travel_time(arc, k / 4) >= fastest - 1e-12
                       for k in range(96))

    def test_replaced_instance_gets_a_fresh_table(self):
        inst = small_instance(3)
        before = inst.length_matrix
        moved = tuple(replace(node, x=2 * node.x, y=2 * node.y)
                      for node in inst.nodes)
        arcs = {key: replace(arc, distance=2 * arc.distance)
                for key, arc in inst.arcs.items()}
        moved_inst = replace(inst, nodes=moved, arcs=arcs)
        assert "length_matrix" not in moved_inst.__dict__
        after = moved_inst.length_matrix
        assert after is not before
        for (i, j), arc in arcs.items():
            assert after[i][j] == arc.distance == 2 * before[i][j]
