"""Queueing speed model: closed forms, roots, calibration, profiles."""

import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saferoute.instances import bundled_case_study_dir
from saferoute.model import TimeProfile
from saferoute.queueing import (
    CalibrationError,
    FlowSeries,
    NoRealRootError,
    QueueModel,
    QueueingError,
    SaturationError,
    build_speed_profile,
    calibrate,
    density_from_speed,
    flow_at_speed,
    max_flow,
    read_flow_table,
    read_nominal_speeds,
    speed_from_density,
    speeds_from_flow,
    waiting_time,
)

from helpers import reference_speed_profile
from oracle_utils import golden_section_max, quadratic_roots

REFERENCE = QueueModel(nominal_speed=60.0, jam_density=200.0)


class TestWaitingTime:
    def test_empty_road_service_time_only(self):
        assert waiting_time(REFERENCE, 0.0) == pytest.approx(1 / 12000, rel=1e-12)

    def test_half_jam_density(self):
        # At K = 100 the wait doubles the empty-road value: 1/6000 h,
        # which corresponds to a speed of (1/200) / (1/6000) = 30 mph.
        w = waiting_time(REFERENCE, 100.0)
        assert w == pytest.approx(1 / 6000, rel=1e-12)
        assert (1 / REFERENCE.jam_density) / w == pytest.approx(30.0, rel=1e-12)

    def test_exponential_service_shortcut(self):
        # For cv_service = 1 the wait collapses to 1 / (s0 (kj - k)).
        rng = random.Random(3)
        for _ in range(100):
            k = rng.uniform(0.0, 199.0)
            expected = 1.0 / (60.0 * (200.0 - k))
            assert waiting_time(REFERENCE, k) == pytest.approx(expected, rel=1e-12)

    def test_saturation(self):
        with pytest.raises(SaturationError):
            waiting_time(REFERENCE, 200.0)
        with pytest.raises(SaturationError):
            waiting_time(REFERENCE, 250.0)
        with pytest.raises(QueueingError):
            waiting_time(REFERENCE, -1.0)


class TestSpeedDensity:
    def test_endpoints(self):
        assert speed_from_density(REFERENCE, 0.0) == pytest.approx(60.0)
        assert speed_from_density(REFERENCE, 200.0) == 0.0

    def test_linear_when_cv_is_one(self):
        rng = random.Random(8)
        for _ in range(200):
            k = rng.uniform(0.0, 200.0)
            assert speed_from_density(REFERENCE, k) == pytest.approx(
                60.0 * (1 - k / 200.0), rel=1e-12)

    def test_agrees_with_waiting_time(self):
        # Speed is one jam spacing over the average wait.
        rng = random.Random(21)
        for _ in range(500):
            beta = rng.choice([1.0, 1.0, 0.5, 2.0])
            q = QueueModel(rng.uniform(20, 80), rng.uniform(50, 400), beta)
            k = rng.uniform(0.0, q.jam_density * 0.999)
            via_wait = (1 / q.jam_density) / waiting_time(q, k)
            assert speed_from_density(q, k) == pytest.approx(via_wait, rel=1e-9)

    def test_density_from_speed_inverts(self):
        rng = random.Random(5)
        for _ in range(200):
            q = QueueModel(rng.uniform(20, 80), rng.uniform(50, 400),
                           rng.choice([1.0, 0.7, 1.5]))
            k = rng.uniform(0.0, q.jam_density)
            s = speed_from_density(q, k)
            assert density_from_speed(q, s) == pytest.approx(k, abs=1e-6)


class TestFlowRelation:
    def test_reference_roots(self):
        lo, hi = speeds_from_flow(REFERENCE, 1500.0)
        # Hand-derived: 30 -/+ sqrt(1800)/2.
        assert lo == pytest.approx(8.786796564403573, abs=1e-9)
        assert hi == pytest.approx(51.213203435596427, abs=1e-9)

    def test_roots_solve_the_quadratic(self):
        # each root zeroes a v^2 + b v + c up to rounding, and the pair
        # meets Vieta's sum -b/a and product c/a
        rng = random.Random(13)
        for _ in range(200):
            q = QueueModel(rng.uniform(20, 80), rng.uniform(50, 400),
                           rng.choice([1.0, 0.8, 1.3]))
            f = rng.uniform(0.0, max_flow(q))
            beta2 = q.cv_service ** 2
            a, b, c = (2 * q.jam_density,
                       f * (beta2 - 1) - 2 * q.jam_density * q.nominal_speed,
                       2 * f * q.nominal_speed)
            expected = quadratic_roots(a, b, c)
            got = speeds_from_flow(q, f)
            assert got[0] == pytest.approx(expected[0], abs=1e-9)
            assert got[1] == pytest.approx(expected[1], abs=1e-9)
            for v in got:
                scale = a * v * v + abs(b) * v + c
                assert abs(a * v * v + b * v + c) <= 1e-9 * scale
            assert math.isclose(got[0] + got[1], -b / a, rel_tol=1e-9)
            assert math.isclose(got[0] * got[1], c / a, rel_tol=1e-9,
                                abs_tol=1e-9)

    def test_zero_flow(self):
        assert speeds_from_flow(REFERENCE, 0.0) == (0.0, 60.0)

    def test_capacity_double_root(self):
        lo, hi = speeds_from_flow(REFERENCE, 3000.0)
        assert lo == pytest.approx(30.0, abs=1e-9)
        assert hi == pytest.approx(30.0, abs=1e-9)

    def test_above_capacity_rejected(self):
        cap = max_flow(REFERENCE)
        with pytest.raises(NoRealRootError):
            speeds_from_flow(REFERENCE, cap * (1 + 1e-9))
        # At capacity exactly, the call still succeeds.
        speeds_from_flow(REFERENCE, cap)

    def test_root_ordering(self):
        rng = random.Random(17)
        for _ in range(300):
            q = QueueModel(rng.uniform(20, 80), rng.uniform(50, 400))
            f = rng.uniform(0.0, max_flow(q))
            lo, hi = speeds_from_flow(q, f)
            assert 0.0 <= lo <= hi <= q.nominal_speed + 1e-9

    def test_flow_speed_round_trip(self):
        # Push a speed through flow and back, landing on the same branch.
        rng = random.Random(29)
        for _ in range(10_000):
            q = QueueModel(rng.uniform(20, 80), rng.uniform(50, 400))
            s = rng.uniform(1e-6, q.nominal_speed * (1 - 1e-9))
            f = flow_at_speed(q, s)
            lo, hi = speeds_from_flow(q, f)
            recovered = lo if s <= q.nominal_speed / 2 else hi
            assert recovered == pytest.approx(s, abs=1e-9)


class TestMaxFlow:
    def test_closed_form(self):
        assert max_flow(REFERENCE) == 3000.0
        assert max_flow(QueueModel(30.0, 100.0)) == 750.0

    def test_numeric_matches_golden_section(self):
        for beta in (0.0, 0.5, 0.9, 1.4, 2.0, 4.0):
            q = QueueModel(55.0, 180.0, beta)
            expected = golden_section_max(
                lambda s: flow_at_speed(q, s), 0.0, q.nominal_speed)
            assert max_flow(q) == pytest.approx(expected, rel=1e-6)

    def test_numeric_agrees_with_closed_form_at_beta_one(self):
        q = QueueModel(48.0, 240.0, 1.0)
        numeric = golden_section_max(
            lambda s: flow_at_speed(q, s), 0.0, q.nominal_speed)
        assert numeric == pytest.approx(max_flow(q), rel=1e-6)


class TestCalibration:
    def test_jam_density_from_peak(self):
        flows = FlowSeries((100.0,) * 23 + (3000.0,))
        q = calibrate(flows, 60.0)
        assert q.jam_density == pytest.approx(200.0)
        assert max_flow(q) == pytest.approx(3000.0)

    def test_all_zero_counts(self):
        with pytest.raises(CalibrationError):
            calibrate(FlowSeries((0.0,) * 24), 60.0)

    def test_flow_series_validation(self):
        with pytest.raises(QueueingError):
            FlowSeries((1.0,) * 23)
        with pytest.raises(QueueingError):
            FlowSeries((-1.0,) + (1.0,) * 23)


class TestSpeedProfile:
    def test_flat_day_stays_uncongested(self):
        flows = FlowSeries((800.0,) * 24)
        profile = build_speed_profile(REFERENCE, flows)
        # No hour strictly exceeds the quantile of identical counts, so
        # every hour gets the fast root.
        assert all(v > 30.0 for v in profile.values)
        assert profile.is_constant

    def test_calibrated_flat_day_sits_at_capacity(self):
        flows = FlowSeries((800.0,) * 24)
        q = calibrate(flows, 60.0)
        profile = build_speed_profile(q, flows)
        # Calibration puts the peak count at capacity, where the two
        # roots coincide at half the free-flow speed.
        assert profile.values == (30.0,) * 24

    def test_single_peak_gets_congested_root(self):
        base = [500.0] * 24
        base[8] = 2000.0
        flows = FlowSeries(tuple(base))
        q = calibrate(flows, 60.0)
        profile = build_speed_profile(q, flows)
        lo, hi = speeds_from_flow(q, 2000.0)
        assert profile.values[8] == pytest.approx(lo)
        for h in range(24):
            if h != 8:
                assert profile.values[h] > 30.0

    def test_clamp_warns_and_caps(self):
        q = QueueModel(60.0, 200.0)
        base = [500.0] * 24
        base[17] = 5000.0  # beyond the 3000 capacity
        with pytest.warns(UserWarning):
            profile = build_speed_profile(q, FlowSeries(tuple(base)))
        assert profile.values[17] == pytest.approx(30.0)

    def test_quantile_knob(self):
        base = [100.0 * (h + 1) for h in range(24)]
        flows = FlowSeries(tuple(base))
        strict = build_speed_profile(REFERENCE, flows, congestion_quantile=1.0)
        loose = build_speed_profile(REFERENCE, flows, congestion_quantile=0.0)
        # Quantile 1 marks nothing congested; quantile 0 everything
        # above the daily minimum.
        assert all(v > 30.0 for v in strict.values)
        assert sum(1 for v in loose.values if v < 30.0) == 23
        with pytest.raises(QueueingError):
            build_speed_profile(REFERENCE, flows, congestion_quantile=1.5)

    @settings(max_examples=300, deadline=None)
    @given(nominal=st.floats(1.0, 120.0), jam=st.floats(1.0, 500.0),
           beta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 4.0),
           quantile=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           shares=st.lists(st.sampled_from([0.0, 0.5, 1.0])
                           | st.floats(0.0, 1.3),
                           min_size=24, max_size=24))
    def test_profile_matches_a_solve_per_hour(self, nominal, jam, beta,
                                              quantile, shares):
        # bit for bit, signed zeros included, and the clamp warns
        # exactly when some count is above capacity
        q = QueueModel(nominal, jam, beta)
        cap = max_flow(q)
        flows = tuple(share * cap for share in shares)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            profile = build_speed_profile(q, FlowSeries(flows), quantile)
        expected = reference_speed_profile(q, flows, quantile)
        assert [v.hex() for v in profile.values] == \
            [v.hex() for v in expected]
        assert len(caught) == any(f > cap for f in flows)

    def test_profile_is_valid_time_profile(self):
        flows = FlowSeries(tuple(400.0 + 100.0 * (h % 7) for h in range(24)))
        q = calibrate(flows, 45.0)
        profile = build_speed_profile(q, flows)
        assert isinstance(profile, TimeProfile)
        assert all(v > 0 for v in profile.values)


class TestFlowTableIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "flows.csv"
        lines = ["tail,head,hour,flow"]
        for h in range(24):
            lines.append(f"0,1,{h},{100 + h}")
            lines.append(f"1,0,{h},{200 + h}")
        path.write_text("\n".join(lines) + "\n")
        table = read_flow_table(str(path))
        assert set(table) == {(0, 1), (1, 0)}
        assert table[(0, 1)].flows[5] == 105.0

    @settings(max_examples=25, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_row_order_does_not_matter(self, tmp_path_factory, rng):
        bundled = bundled_case_study_dir() / "flows.csv"
        header, *rows = bundled.read_text().splitlines()
        rng.shuffle(rows)
        path = tmp_path_factory.mktemp("shuffled") / "flows.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        assert read_flow_table(str(path)) == read_flow_table(str(bundled))

    def test_missing_hour_rejected(self, tmp_path):
        path = tmp_path / "flows.csv"
        lines = ["tail,head,hour,flow"]
        for h in range(23):
            lines.append(f"0,1,{h},{100 + h}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(QueueingError, match="missing hours"):
            read_flow_table(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("a,b,c,d\n0,1,0,5\n")
        with pytest.raises(QueueingError, match="line 1: missing columns: "
                           "tail, head, hour, flow; expected header"):
            read_flow_table(str(path))

    def test_duplicate_hour_rejected(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("tail,head,hour,flow\n0,1,3,5\n0,1,3,6\n")
        # the message, not the tmp path, which holds this test's name
        with pytest.raises(QueueingError,
                           match=r"line 3: duplicate hour 3 for arc \(0, 1\)"):
            read_flow_table(str(path))

    @pytest.mark.parametrize("text, message", [
        ("tail,head,hour,flow\n", "no data rows"),
        ("tail,head,hour,flow\n0,1,0,abc\n", "line 2"),
        ("tail,head,hour,flow\n0,1,0\n", "line 2"),
        ("tail,head\n0,1\n", "missing columns: hour, flow; expected header"),
        ("tail,head,hour,flow\n0,1,0,1.0\n\n0,1,1,nan\n",
         r"flows.csv line 4: flow must be finite and non-negative, got nan"),
        ("tail,head,hour,flow\n0,1,0,-inf\n",
         r"flows.csv line 2: flow must be finite and non-negative, got -inf"),
        # not UTF-8; a locale that decodes it finds a bad number instead
        (b"tail,head,hour,flow\n0,1,0,\xff\n", r"flows.csv"),
        ("tail,head,hour,flow\n0,1,0," + "9" * 200_000 + "\n",
         r"flows.csv line 2: field larger than field limit"),
    ], ids=["header-only", "bad-value", "short-row", "wrong-header",
            "nan-flow", "negative-flow", "not-utf8", "huge-field"])
    def test_reader_messages(self, tmp_path, text, message):
        # the last two used to escape as UnicodeDecodeError and csv.Error
        path = tmp_path / "flows.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(QueueingError, match=message):
            read_flow_table(str(path))

    def test_nominal_speed_table(self, tmp_path):
        path = tmp_path / "nominal.csv"
        path.write_text("tail,head,nominal_speed\n0,1,55\n1,0,60\n")
        speeds = read_nominal_speeds(str(path))
        assert speeds == {(0, 1): 55.0, (1, 0): 60.0}
        bad = tmp_path / "bad.csv"
        bad.write_text("tail,head,nominal_speed\n0,1,0\n")
        with pytest.raises(QueueingError, match="line 2"):
            read_nominal_speeds(str(bad))
        bad.write_text("tail,head,nominal_speed\n")
        with pytest.raises(QueueingError, match="no data rows"):
            read_nominal_speeds(str(bad))

    @pytest.mark.parametrize("speed", ["nan", "inf", "-inf", "0", "-3.5"])
    def test_nominal_speed_must_be_positive_and_finite(self, tmp_path, speed):
        # nan and inf used to load as speeds, since nan <= 0 is false
        path = tmp_path / "nominal.csv"
        path.write_text(f"tail,head,nominal_speed\n0,1,55\n1,0,{speed}\n")
        with pytest.raises(QueueingError, match=r"nominal.csv line 3: nominal "
                           r"speed must be positive and finite, got "):
            read_nominal_speeds(str(path))
