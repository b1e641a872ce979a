"""Propagation, feasibility checking and the five objectives."""

import functools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saferoute.instances import (
    MAX_CRASH,
    bundled_case_study_dir,
    generate_instance,
    load_case_study,
    load_solomon,
)
from saferoute.model import InvalidProfileError, MissingArcError, TimeProfile
from saferoute.phase1 import (
    TIME_EPS,
    ObjectiveWeights,
    RouteTiming,
    RoutingSolution,
    SolutionError,
    Violation,
    check_feasibility,
    leg_cost,
    objective_value,
    propagate_schedule,
    time_route,
)

from helpers import build_instance, no_return_from_first, reference_feasibility

#: RND10: the depot is id 0, ids 1-10 are customers.
RND10 = generate_instance(10, seed=0)


@functools.cache
def audit_instances():
    """The case study, RND10 and R101, by name."""
    return {"case": load_case_study(bundled_case_study_dir()),
            "RND10": RND10, "R101": load_solomon("R101")}


def test_routes_are_kept_when_already_tuples():
    # a tuple of tuples is stored as given, the very route objects;
    # anything else (lists from move application and construction) is
    # copied into a tuple of tuples
    routes = ((1, 2), (), (3,))
    sol = RoutingSolution(routes)
    assert sol.routes is routes
    assert all(a is b for a, b in zip(sol.routes, routes))
    listed = RoutingSolution([[1, 2], [], (3,)])
    assert listed.routes == routes
    assert type(listed.routes) is tuple
    assert all(type(r) is tuple for r in listed.routes)
    mixed = RoutingSolution(([1, 2], (3,)))
    assert mixed.routes == ((1, 2), (3,))
    assert type(mixed.routes[0]) is tuple


class TestPropagation:
    def test_waits_out_soft_lower_bound(self):
        # One customer 30 miles out at 30 mph; window opens at hour 2.
        inst = build_instance(
            [{"x": 30.0, "y": 0.0, "service": 0.1, "open": 2.0, "close": 8.0}])
        sol = propagate_schedule(((1,),), inst, dispatch=0.0)
        stop = sol.timings[0].stops[0]
        assert stop.arrival == pytest.approx(1.0)
        assert stop.service_start == pytest.approx(2.0)
        assert stop.departure == pytest.approx(2.1)
        assert sol.timings[0].return_arrival == pytest.approx(3.1)

    def test_windows_shift_with_dispatch(self):
        inst = build_instance(
            [{"x": 30.0, "y": 0.0, "service": 0.1, "open": 2.0, "close": 8.0}])
        sol = propagate_schedule(((1,),), inst, dispatch=5.0)
        stop = sol.timings[0].stops[0]
        assert stop.arrival == pytest.approx(6.0)
        assert stop.service_start == pytest.approx(7.0)
        assert sol.timings[0].return_arrival == pytest.approx(8.1)

    def test_loads_decrease_along_route(self):
        inst = build_instance([
            {"x": 3, "y": 0, "demand": 10},
            {"x": 4, "y": 0, "demand": 20},
            {"x": 5, "y": 0, "demand": 5},
        ])
        sol = propagate_schedule(((1, 2, 3),), inst, 0.0)
        timing = sol.timings[0]
        assert timing.initial_load == 35
        assert [s.load_after for s in timing.stops] == [25, 5, 0]

    def test_empty_route_is_inert(self):
        inst = build_instance([{"x": 1}])
        sol = propagate_schedule(((1,), ()), inst, 0.0)
        assert sol.timings[1].stops == ()
        assert sol.timings[1].return_arrival == 0.0

    def test_negative_dispatch_rejected(self):
        inst = build_instance([{"x": 1}])
        with pytest.raises(SolutionError):
            propagate_schedule(((1,),), inst, -1.0)


class TestFeasibility:
    def make(self, **kw):
        defaults = dict(customers=[
            {"x": 3, "y": 0, "demand": 10, "close": 8.0},
            {"x": 0, "y": 4, "demand": 10, "close": 8.0},
        ])
        defaults.update(kw)
        return build_instance(defaults.pop("customers"), **defaults)

    def test_clean_solution_passes(self):
        inst = self.make()
        sol = propagate_schedule(((1,), (2,)), inst, 0.0)
        assert check_feasibility(sol, inst) == ()

    def test_missing_and_duplicate_customers(self):
        inst = self.make()
        sol = propagate_schedule(((1,), (1,)), inst, 0.0)
        viols = check_feasibility(sol, inst)
        flagged = {v.node for v in viols if v.constraint == "visit-count"}
        assert flagged == {1, 2}  # 1 twice, 2 never

    def test_fleet_overflow(self):
        inst = self.make(fleet=(1, 100.0))
        sol = propagate_schedule(((1,), (2,)), inst, 0.0)
        assert any(v.constraint == "fleet-size"
                   for v in check_feasibility(sol, inst))

    def test_capacity_overflow(self):
        inst = self.make(fleet=(2, 15.0))
        sol = propagate_schedule(((1, 2),), inst, 0.0)
        assert any(v.constraint == "capacity"
                   for v in check_feasibility(sol, inst))

    def test_window_close_is_hard(self):
        inst = build_instance([{"x": 30, "y": 0, "close": 0.5}])
        sol = propagate_schedule(((1,),), inst, 0.0)  # arrives at 1.0
        assert any(v.constraint == "window"
                   for v in check_feasibility(sol, inst))

    def test_horizon_on_return(self):
        inst = build_instance([{"x": 30, "y": 0}], latest=1.5)
        sol = propagate_schedule(((1,),), inst, 0.0)  # returns at ~2.0
        assert [(v.constraint, v.node) for v in check_feasibility(sol, inst)] \
            == [("horizon-return", 1)]

    def test_departure_must_allow_regaining_depot(self):
        # Returning from node 1 directly is painfully slow, so the
        # guarantee breaks at node 1 even though the actual route
        # returns in time via node 2.
        inst = build_instance(
            [{"x": 3, "y": 0, "demand": 1}, {"x": 4, "y": 0, "demand": 1}],
            latest=3.0,
            arc_overrides={(1, 0): {"distance": 100.0}},
        )
        sol = propagate_schedule(((1, 2),), inst, 0.0)
        assert sol.timings[0].return_arrival < 3.0
        viols = check_feasibility(sol, inst)
        assert any(v.constraint == "horizon-return" and v.node == 1
                   for v in viols)

    def test_stop_without_return_arc_breaks_guarantee(self):
        inst = no_return_from_first()
        sol = propagate_schedule(((1, 2),), inst, 0.0)
        assert [(v.constraint, v.node) for v in check_feasibility(sol, inst)] \
            == [("horizon-return", 1)]

    def test_depot_inside_route_flagged(self):
        # the depot inside a route is a route-shape fault; from the depot
        # the return takes no time, so it is no horizon-return fault too
        inst = load_case_study(bundled_case_study_dir())
        bad = propagate_schedule(((1, 0, 2, 3),), inst, 7.0)
        assert [(v.constraint, v.vehicle, v.node)
                for v in check_feasibility(bad, inst)] \
            == [("route-shape", -1, 0), ("window", 0, 3)]

    def test_dummy_repeat_flagged(self):
        # the ids past the node table, where copies of the depot used to
        # sit, are unknown vertices: a repeated one is flagged once, and
        # so is one visited once
        inst = build_instance(
            [{"x": 3, "y": 0}, {"x": 4, "y": 0}, {"x": 5, "y": 0}])
        d = len(inst.nodes) + 1
        for route in ((1, d, 2, d, 3), (1, d, 2, 3)):
            sol = RoutingSolution((route,), 0.0, (RouteTiming(
                0.0, 0.0, (), 0.0, (), ()),))
            assert check_feasibility(sol, inst) == (Violation(
                "visit-count", -1, d, "unknown vertex in route"),)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_visit_checks_match_counting_loop(self, data):
        # counting visits in one pass and walking only the ids left once
        # the customers are taken out reports what walking every visited
        # id did, in the same order: repeats, omissions, the depot and
        # ids past the node table
        ids = st.integers(0, len(RND10.nodes) + 2)
        routes = data.draw(st.lists(st.lists(ids, max_size=8), max_size=5))
        audits = st.lists(st.sampled_from([
            Violation("capacity", 0, None, "load 120 exceeds capacity 100"),
            Violation("window", 0, 3, "service before window opens"),
            Violation("horizon-return", 0, 3,
                      "cannot regain depot by hour 24.000000")]),
            max_size=2)
        timings = tuple(RouteTiming(0.0, 0.0, (), 0.0, (),
                                    tuple(data.draw(audits)))
                        for _ in routes)
        sol = RoutingSolution(tuple(map(tuple, routes)), 0.0, timings)
        assert check_feasibility(sol, RND10) \
            == reference_feasibility(sol, RND10)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exact_cover_skip_matches_counting_loop(self, data):
        # skipping the visit count for an exact cover of the customers,
        # and relabelling verdicts by the constructor, reports what
        # counting every solution and dataclasses.replace do, in order
        customers = list(RND10.customers())
        order = data.draw(st.permutations(customers))
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(order)), max_size=4)))
        routes = [list(order[a:b])
                  for a, b in zip([0, *cuts], [*cuts, len(order)])]
        # edits that break the cover: a repeat, a missing customer, the
        # depot, an id past the node table
        extra = st.one_of(st.sampled_from(customers), st.just(0),
                          st.integers(len(RND10.nodes), len(RND10.nodes) + 3))
        for _ in range(data.draw(st.integers(0, 3))):
            route = data.draw(st.sampled_from(routes))
            if route and data.draw(st.booleans()):
                route.pop(data.draw(st.integers(0, len(route) - 1)))
            else:
                route.insert(data.draw(st.integers(0, len(route))),
                             data.draw(extra))
        audits = st.lists(st.sampled_from([
            Violation("capacity", 0, None, "load 120 exceeds capacity 100"),
            Violation("window", 0, 3, "service before window opens"),
            Violation("horizon-return", 0, 3,
                      "cannot regain depot by hour 24.000000")]),
            max_size=2)
        timings = tuple(RouteTiming(0.0, 0.0, (), 0.0, (),
                                    tuple(data.draw(audits)))
                        for _ in routes)
        sol = RoutingSolution(tuple(map(tuple, routes)), 0.0, timings)
        assert check_feasibility(sol, RND10) \
            == reference_feasibility(sol, RND10)

    def test_untimed_solution_rejected(self):
        inst = self.make()
        with pytest.raises(SolutionError):
            check_feasibility(RoutingSolution(((1,), (2,))), inst)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["case", "RND10", "R101"]),
           dispatch=st.sampled_from([0.0, 7.0, 12.0, 17.0]),
           shrink=st.floats(0.05, 1.0))
    def test_route_verdict_names_each_fault_once(self, data, name, dispatch,
                                                 shrink):
        # a route of distinct nodes, the depot among them, under a
        # horizon cut to a share of the instance's: its verdict names no
        # (constraint, node) pair twice, and a return past the horizon
        # exactly once, as the last stop's horizon-return
        inst = audit_instances()[name]
        inst = replace(inst, latest_time=inst.latest_time * shrink)
        route = tuple(data.draw(st.lists(
            st.integers(0, len(inst.nodes) - 1), min_size=1, max_size=12,
            unique=True)))
        try:
            timing = time_route(route, inst, dispatch)
        except MissingArcError:  # the depot first or last drives (0, 0)
            return
        pairs = [(v.constraint, v.node) for v in timing.violations]
        assert len(pairs) == len(set(pairs))
        late = timing.return_arrival > dispatch + inst.latest_time + TIME_EPS
        assert pairs.count(("horizon-return", route[-1])) == late
        # capacity is the one fault of the whole route
        assert all(node is not None for kind, node in pairs
                   if kind != "capacity")


class TestObjectives:
    def crash_pair_instance(self):
        # Route depot -> 1 -> depot with crash 0.1 then 0.2.
        return build_instance(
            [{"x": 10, "y": 0}],
            arc_overrides={
                (1, 0): {"crash": 0.2},
                (0, 1): {"crash": 0.1},
            },
            crash=0.05,
        )

    def test_crash_two_arcs(self):
        inst = self.crash_pair_instance()
        sol = propagate_schedule(((1,),), inst, 0.0)
        assert objective_value("crash", sol, inst) == pytest.approx(
            0.28, abs=1e-12)

    def test_log_space_matches_direct_product(self):
        rng = random.Random(2)
        for _ in range(100):
            xs = [rng.uniform(1e-6, 0.4) for _ in range(6)]
            overrides = {}
            # chain 1..5 with chosen crash values
            pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
            for (i, j), x in zip(pairs, xs):
                overrides[(i, j)] = {"crash": x}
            inst = build_instance(
                [{"x": k, "y": 1, "demand": 1} for k in range(1, 6)],
                arc_overrides=overrides, fleet=(1, 100))
            sol = propagate_schedule(((1, 2, 3, 4, 5),), inst, 0.0)
            direct = 1.0
            for x in xs:
                direct *= (1 - x)
            assert objective_value("crash", sol, inst) == pytest.approx(
                1 - direct, abs=1e-12)

    def test_certain_crash_saturates(self):
        # the model admits crash values below 1: the highest one makes
        # the route's crash probability the highest float below 1
        inst = build_instance(
            [{"x": 10, "y": 0}],
            arc_overrides={(0, 1): {"crash": MAX_CRASH}})
        sol = propagate_schedule(((1,),), inst, 0.0)
        assert objective_value("crash", sol, inst) == MAX_CRASH

    def test_tti_sums_per_arc(self):
        inst = build_instance([{"x": 10, "y": 0}], tti=1.5)
        sol = propagate_schedule(((1,),), inst, 0.0)
        assert objective_value("tti", sol, inst) == pytest.approx(3.0)

    def test_weighted_mix(self):
        inst = self.crash_pair_instance()
        # force TTI sum to 3.0
        inst = build_instance(
            [{"x": 10, "y": 0}],
            arc_overrides={
                (0, 1): {"crash": 0.1, "tti": 1.5},
                (1, 0): {"crash": 0.2, "tti": 1.5},
            })
        sol = propagate_schedule(((1,),), inst, 0.0)
        weights = ObjectiveWeights(0.5, 0.5, crash_scale=10.0)
        # 0.5 * 10 * (-ln 0.9 - ln 0.8) + 0.5 * 3.0
        assert objective_value("weighted", sol, inst, weights) == \
            pytest.approx(5.0 * -math.log(0.72) + 1.5, abs=1e-12)

    def test_zero_crash_weight_charges_a_certain_crash_no_crash_term(self):
        # the model refuses a certain crash, so the riskiest leg reads
        # the largest crash value below 1, whose log-survival term is
        # finite: w_crash 0 charges none of it, and a positive weight
        # charges a finite cost
        with pytest.raises(InvalidProfileError, match=r"crash value 1\.0"):
            build_instance([{"x": 10, "y": 0}],
                           arc_overrides={(0, 1): {"crash": 1.0}})
        inst = build_instance([{"x": 10, "y": 0}],
                              arc_overrides={(0, 1): {"crash": MAX_CRASH}})
        arc = inst.arc(0, 1)
        tti_only = ObjectiveWeights(0.0, 1.0, crash_scale=10.0)
        for xi in (0.3, MAX_CRASH):
            assert leg_cost("weighted", arc, 0.0, (2.0, 1.5, xi),
                            tti_only) == (2.0, 1.5)
        mixed = ObjectiveWeights(0.5, 0.5, crash_scale=10.0)
        assert leg_cost("weighted", arc, 0.0, (2.0, 1.5, MAX_CRASH),
                        mixed) == (2.0, 5.0 * -math.log1p(-MAX_CRASH) + 0.75)
        sol = propagate_schedule(((1,),), inst, 0.0)
        assert objective_value("weighted", sol, inst, tti_only) == \
            objective_value("tti", sol, inst)

    def test_distance_total(self):
        inst = build_instance([{"x": 3, "y": 0}, {"x": 0, "y": 4}])
        sol = propagate_schedule(((1,), (2,)), inst, 0.0)
        assert objective_value("distance", sol, inst) == pytest.approx(14.0)

    def test_time_excludes_waiting(self):
        # 30 miles at 30 mph each way, service 0.1, window opens at 5:
        # the 4 hour wait must not be charged.
        inst = build_instance([{"x": 30, "y": 0, "service": 0.1, "open": 5.0}])
        sol = propagate_schedule(((1,),), inst, 0.0)
        assert sol.timings[0].return_arrival == pytest.approx(6.1)
        assert objective_value("time", sol, inst) == pytest.approx(2.1)

    def test_time_uses_actual_departure_hour(self):
        # Speed doubles from hour 1 on; waiting shifts the return leg
        # into the fast hour, so charged driving time shrinks.
        profile = TimeProfile((15.0,) + (30.0,) * 23)
        no_wait = build_instance([{"x": 10, "y": 0}], speed=profile)
        wait = build_instance([{"x": 10, "y": 0, "open": 1.0}], speed=profile)
        t_eager = objective_value(
            "time", propagate_schedule(((1,),), no_wait, 0.0), no_wait)
        t_waity = objective_value(
            "time", propagate_schedule(((1,),), wait, 0.0), wait)
        assert t_waity < t_eager

    def test_crash_ranking_matches_log_surrogate(self):
        # Minimising the log-survival sum and the probability itself
        # must order solutions identically.
        rng = random.Random(6)
        inst = build_instance(
            [{"x": 1, "y": 1}, {"x": 2, "y": 0}, {"x": 0, "y": 2}],
            crash=TimeProfile(tuple(rng.uniform(0.01, 0.3) for _ in range(24))),
            fleet=(1, 100))
        import itertools
        values = []
        for perm in itertools.permutations((1, 2, 3)):
            sol = propagate_schedule((perm,), inst, 0.0)
            p = objective_value("crash", sol, inst)
            values.append(p)
        logs = [-math.log1p(-p) for p in values]
        assert sorted(range(6), key=values.__getitem__) == \
            sorted(range(6), key=logs.__getitem__)

    def test_objective_dispatch_and_errors(self):
        inst = build_instance([{"x": 3, "y": 0}])
        sol = propagate_schedule(((1,),), inst, 0.0)
        for name in ("crash", "tti", "weighted", "distance", "time"):
            assert objective_value(name, sol, inst) >= 0
        with pytest.raises(SolutionError):
            objective_value("speed", sol, inst)
        with pytest.raises(SolutionError):
            objective_value("crash", RoutingSolution(((1,),)), inst)

    def test_weights_validation(self):
        with pytest.raises(SolutionError):
            ObjectiveWeights(0.7, 0.7)
        with pytest.raises(SolutionError):
            ObjectiveWeights(0.5, 0.5, crash_scale=0.0)
        with pytest.raises(SolutionError):
            ObjectiveWeights(-0.5, 1.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(SolutionError):
                ObjectiveWeights(bad, 0.5)
            with pytest.raises(SolutionError):
                ObjectiveWeights(0.5, 0.5, crash_scale=bad)

    def test_default_crash_scale(self):
        inst = build_instance([{"x": 3, "y": 0}], tti=1.2, crash=0.05)
        assert inst.crash_scale == pytest.approx(24.0)
        w = ObjectiveWeights().resolved(inst)
        assert w.crash_scale == pytest.approx(24.0)

    @pytest.mark.parametrize("name", ["case", "R101", "RND10"])
    def test_default_crash_scale_averages_every_arc(self, name):
        # the scale is mean hourly TTI over mean hourly crash with every
        # arc counted, summed in the order the instance holds them
        inst = load_case_study(bundled_case_study_dir()) if name == "case" \
            else load_solomon("R101") if name == "R101" else RND10
        arcs = inst.arcs.values()
        cells = 24 * len(arcs)
        tti = sum(sum(arc.tti.values) for arc in arcs) / cells
        crash = sum(sum(arc.crash.values) for arc in arcs) / cells
        assert inst.crash_scale.hex() == (tti / crash).hex()

