"""Tests for the schedule retiming phase."""

import functools
import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from saferoute import model, phase2
from saferoute.instances import (
    MAX_CRASH,
    bundled_case_study_dir,
    generate_instance,
    load_case_study,
    load_solomon,
)
from saferoute.model import (
    MissingArcError,
    TimeProfile,
    leg,
    travel_time,
)
from saferoute.phase1 import (
    OBJECTIVES,
    TIME_EPS,
    ObjectiveWeights,
    RoutingSolution,
    SolutionError,
    check_feasibility,
    leg_cost,
    objective_value,
    propagate_schedule,
    time_route,
)
from saferoute.phase2 import (
    Schedule,
    ScheduleError,
    ScheduleGraph,
    ScheduleInfeasibleError,
    build_schedule_graph,
    optimize_schedule,
    schedule_solution,
)

from helpers import (
    TOP_CRASHES,
    build_instance,
    no_return_from_first,
    reference_audit,
    reference_schedule_graph,
)


def random_profile(rng, lo, hi):
    return TimeProfile(tuple(rng.uniform(lo, hi) for _ in range(24)))


def random_instance(rng, n_customers, crash_hi=0.05):
    customers = [
        {
            "x": rng.uniform(-8.0, 8.0),
            "y": rng.uniform(-8.0, 8.0),
            "demand": rng.uniform(1.0, 10.0),
            "service": rng.uniform(0.0, 0.3),
            "open": rng.uniform(0.0, 0.5),
            "close": rng.uniform(4.0, 10.0),
        }
        for _ in range(n_customers)
    ]
    overrides = {}
    ids = range(n_customers + 1)
    for i in ids:
        for j in ids:
            if i != j and rng.random() < 0.6:
                overrides[(i, j)] = {
                    "speed": random_profile(rng, 15.0, 60.0),
                    "tti": random_profile(rng, 1.0, 3.0),
                    "crash": random_profile(rng, 1e-5, crash_hi),
                }
    return build_instance(customers, fleet=(3, 1000.0), latest=24.0,
                          arc_overrides=overrides)


def retimed(route, dispatch, sched: Schedule, inst) -> RoutingSolution:
    """One-route solution timed at the schedule's service starts."""
    return RoutingSolution((route,), dispatch, (time_route(
        route, inst, dispatch, sched.service_starts),))


def all_path_costs(graph: ScheduleGraph):
    """Exhaustive source-to-sink path costs, found by depth-first walk."""
    last = len(graph.times) - 1
    out = []

    def rec(pos, idx, acc):
        if pos == last:
            for i, cost in graph.sink_edges:
                if i == idx:
                    out.append(acc + cost)
            return
        for i, j, cost in graph.edges[pos + 1]:
            if i == idx:
                rec(pos + 1, j, acc + cost)

    rec(0, 0, 0.0)
    return out


def test_single_candidate_matches_propagation():
    rng = random.Random(41)
    for trial in range(40):
        inst = random_instance(rng, rng.randint(2, 5))
        route = tuple(rng.sample(range(1, len(inst.customers()) + 1),
                                 len(inst.customers())))
        dispatch = rng.choice([0.0, 7.25, 22.5])
        prop = propagate_schedule((route,), inst, dispatch)
        sched = optimize_schedule(route, inst, dispatch, 1,
                                  objective="distance")
        stops = prop.timings[0].stops
        assert sched.service_starts == tuple(s.service_start for s in stops)
        assert schedule_solution(prop, inst, 1, objective="distance",
                                 memo={}) == prop


def test_grid_shape_and_path_bound():
    rng = random.Random(7)
    inst = random_instance(rng, 3)
    graph = build_schedule_graph((1, 2, 3), inst, 0.0, m=4,
                                 objective="tti")
    assert len(graph.times) == 4 and graph.times[0] == (0.0,)
    prop = propagate_schedule(((1, 2, 3),), inst, 0.0)
    for pos, stop in enumerate(prop.timings[0].stops, start=1):
        grid = graph.times[pos]
        assert 1 <= len(grid) <= 4
        assert grid[0] == stop.service_start
        assert all(a < b for a, b in zip(grid, grid[1:]))
        close = inst.node(stop.node).window_close
        assert grid[-1] <= close + 1e-12
    assert graph.path_count_bound() <= 4 ** 3


def test_dp_matches_exhaustive_enumeration():
    rng = random.Random(97)
    for trial in range(120):
        inst = random_instance(rng, rng.randint(2, 4))
        n = len(inst.customers())
        route = tuple(rng.sample(range(1, n + 1), rng.randint(2, n)))
        m = rng.randint(2, 4)
        objective = rng.choice(["crash", "tti", "weighted", "distance", "time"])
        weights = ObjectiveWeights(0.4, 0.6) if objective == "weighted" else None
        try:
            graph = build_schedule_graph(route, inst, 0.0, m, weights, objective)
        except ScheduleInfeasibleError:
            continue
        costs = all_path_costs(graph)
        assert costs, "immediate path must always be in the graph"
        sched = optimize_schedule(route, inst, 0.0, m, weights, objective)
        assert sched.total_cost == pytest.approx(min(costs), abs=1e-12)


def test_edges_match_recomputation_from_primitives():
    rng = random.Random(3)
    inst = random_instance(rng, 3)
    weights = ObjectiveWeights(0.5, 0.5).resolved(inst)
    route = (2, 1, 3)
    graph = build_schedule_graph(route, inst, 1.5, m=5, weights=weights)
    node_ids = (0, *route, 0)
    for pos in range(1, len(graph.times)):
        tail, head = node_ids[pos - 1], node_ids[pos]
        service = inst.node(tail).service_time
        arc = inst.arc(tail, head)
        expected = set()
        for i, start in enumerate(graph.times[pos - 1]):
            depart = start + service
            arrive = depart + travel_time(arc, depart)
            _, cost = leg_cost("weighted", arc, service, leg(arc, depart),
                               weights)
            for j, nxt in enumerate(graph.times[pos]):
                if nxt >= arrive - 1e-9:
                    expected.add((i, j, cost))
        assert set(graph.edges[pos]) == expected


def test_frozen_two_hour_delay():
    # One customer 30 miles out at constant 30 mph: arrive at hour 1.
    # The return leg is risky in hour 1 (0.3), blended in between, and
    # calm from hour 2 on, so the best of the starts {1.0, 1.5, 2.0}
    # is to wait a full hour before serving.
    crash_back = TimeProfile((0.1, 0.3, 0.1) + (0.1,) * 21)
    inst = build_instance(
        [{"x": 30.0, "y": 0.0, "service": 0.0, "close": 2.0}],
        arc_overrides={(1, 0): {"crash": crash_back}},
        crash=0.01,
    )
    graph = build_schedule_graph((1,), inst, 0.0, m=3, objective="crash")
    assert graph.times[1] == (1.0, 1.5, 2.0)
    sched = optimize_schedule((1,), inst, 0.0, m=3, objective="crash")
    assert sched.service_starts == (2.0,)
    timed = retimed((1,), 0.0, sched, inst)
    (stop,) = timed.timings[0].stops
    # the hour of slack is spent waiting at the stop, not on the road
    assert stop.arrival == pytest.approx(1.0, abs=1e-12)
    assert stop.service_start - stop.arrival == pytest.approx(1.0, abs=1e-12)
    assert timed.timings[0].return_arrival == pytest.approx(3.0, abs=1e-12)
    assert objective_value("crash", timed, inst) == pytest.approx(
        0.109, abs=1e-12)
    immediate = propagate_schedule(((1,),), inst, 0.0)
    assert objective_value("crash", immediate, inst) == pytest.approx(
        0.307, abs=1e-12)
    # blended middle choice: half the return hour at 0.3, half at 0.1
    mid = optimize_schedule((1,), inst, 0.0, m=2, objective="crash")
    assert mid.service_starts == (2.0,)


def test_candidate_refinement_never_hurts():
    rng = random.Random(23)
    for trial in range(25):
        inst = random_instance(rng, 3)
        route = tuple(rng.sample([1, 2, 3], 3))
        objective = rng.choice(["crash", "tti", "weighted", "time"])
        costs = {m: optimize_schedule(route, inst, 0.25, m,
                                      objective=objective).total_cost
                 for m in (1, 2, 3, 5, 9)}
        for m in (2, 3, 5, 9):
            assert costs[m] <= costs[1] + 1e-12
        # grids nest along m -> 2m - 1, so these chains are monotone
        assert costs[3] <= costs[2] + 1e-12
        assert costs[5] <= costs[3] + 1e-12
        assert costs[9] <= costs[5] + 1e-12


def test_rescheduled_solution_stays_feasible():
    rng = random.Random(59)
    checked = 0
    for trial in range(60):
        inst = random_instance(rng, rng.randint(2, 5))
        n = len(inst.customers())
        ids = list(range(1, n + 1))
        rng.shuffle(ids)
        cut = rng.randint(1, n)
        routes = (tuple(ids[:cut]), tuple(ids[cut:]))
        dispatch = rng.choice([0.0, 6.5])
        prop = propagate_schedule(routes, inst, dispatch)
        if check_feasibility(prop, inst):
            continue
        for objective in ("crash", "tti", "weighted", "time", "distance"):
            timed = schedule_solution(prop, inst, 4, objective=objective,
                                      memo={})
            assert not check_feasibility(timed, inst)
            assert len(timed.timings) == len(routes)
            checked += 1
    assert checked >= 50


def test_horizon_filter_keeps_late_starts_out():
    # Risky first hour tempts the scheduler to wait, but the day ends
    # at 1.2 hours; only starts that still allow the 20-minute ride
    # home may be kept.
    crash = TimeProfile((0.3,) + (1e-4,) * 23)
    inst = build_instance(
        [{"x": 10.0, "y": 0.0, "service": 0.0, "close": 24.0}],
        latest=1.2, crash=crash,
    )
    graph = build_schedule_graph((1,), inst, 0.0, m=5, objective="crash")
    back = inst.arc(1, 0)
    for start in graph.times[1]:
        assert start + travel_time(back, start) <= 1.2 + 1e-9
    lo = travel_time(inst.arc(0, 1), 0.0)
    assert graph.times[1][-1] < 1.2  # the raw grid top was clipped away
    sched = optimize_schedule((1,), inst, 0.0, m=5, objective="crash")
    assert sched.service_starts[0] > lo
    timed = retimed((1,), 0.0, sched, inst)
    assert not check_feasibility(timed, inst)
    immediate = propagate_schedule(((1,),), inst, 0.0)
    assert objective_value("crash", timed, inst) < \
        objective_value("crash", immediate, inst)


def test_total_cost_maps_to_route_objectives():
    # The DP's total and the reported objective sum the same leg_cost
    # terms in driving order, so they agree bit for bit (crash through
    # its log-survival sum).
    rng = random.Random(71)
    checked = 0
    for trial in range(40):
        inst = random_instance(rng, 3)
        route = tuple(rng.sample([1, 2, 3], 3))
        dispatch = rng.uniform(0.0, 24.0)
        m = rng.randint(1, 6)
        for objective in OBJECTIVES:
            try:
                sched = optimize_schedule(route, inst, dispatch, m,
                                          objective=objective)
            except ScheduleInfeasibleError:
                continue
            timed = retimed(route, dispatch, sched, inst)
            value = objective_value(objective, timed, inst)
            if objective == "crash":
                assert value == -math.expm1(-sched.total_cost)
            else:
                assert value == sched.total_cost
            checked += 1
    assert checked >= 150


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4),
       dispatch=st.floats(0.0, 23.75), w_crash=st.floats(0.0, 1.0),
       crash_hi=st.sampled_from([0.05, 0.5, 0.9]))
def test_dp_finds_the_reported_optimum_over_its_grid(seed, m, dispatch,
                                                     w_crash, crash_hi):
    # Without the DP: time every combination of the graph's grid starts,
    # keep the schedules the audit passes and that never start service
    # before the vehicle is there, and score them with the reported
    # objective.  The DP's schedule must reach that minimum bit for bit.
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 4), crash_hi=crash_hi)
    route = tuple(rng.sample(inst.customers(), len(inst.customers())))
    weights = ObjectiveWeights(w_crash, 1.0 - w_crash)
    assume(not propagate_schedule((route,), inst, dispatch).timings[0]
           .violations)
    for objective in OBJECTIVES:
        graph = build_schedule_graph(route, inst, dispatch, m, weights,
                                     objective)
        best = math.inf
        for starts in itertools.product(*graph.times[1:]):
            timing = time_route(route, inst, dispatch, starts)
            if timing.violations or any(
                    stop.arrival > stop.service_start + TIME_EPS
                    for stop in timing.stops):
                continue
            best = min(best, objective_value(
                objective, RoutingSolution((route,), dispatch, (timing,)),
                inst, weights))
        sched = optimize_schedule(route, inst, dispatch, m, weights,
                                  objective)
        assert objective_value(objective,
                               retimed(route, dispatch, sched, inst), inst,
                               weights) == best, objective


def test_one_traversal_per_driven_leg(monkeypatch):
    # The schedule graph walks no route with immediate departures: its
    # layer pass drives each (arc, departure) once, for duration, TTI
    # and crash together, the earliest state's leg pins the next
    # stop's earliest start, and the last stop's homeward legs serve
    # its return check and the sink edges.  It drove 22 traversals
    # here, 16 of them distinct, when it also walked the route.  The
    # objective reads a timed route's recorded legs and drives none.
    # Every case-study arc varies, so each reading runs model's
    # allocation-free arc kernel, reached through model's globals, the
    # first time its arc is driven at that departure; the arc's memo
    # serves every repeat, so each objective is counted on a fresh
    # instance, and a second build on the same instance runs none.
    calls = []
    read_arc = model._read_arc

    def counted(arc, depart):
        calls.append((arc.tail, arc.head, depart))
        return read_arc(arc, depart)

    monkeypatch.setattr(model, "_read_arc", counted)
    route = (1, 2, 3)
    for objective in OBJECTIVES:
        inst = load_case_study(bundled_case_study_dir())
        weights = ObjectiveWeights().resolved(inst)
        calls.clear()
        build_schedule_graph(route, inst, 7.0, 3, weights, objective)
        assert 0 < len(calls) <= 16, objective
        assert len(set(calls)) == len(calls), objective
        calls.clear()
        build_schedule_graph(route, inst, 7.0, 3, weights, objective)
        assert calls == [], objective
    timed = propagate_schedule((route,), inst, 7.0)
    for objective in OBJECTIVES:
        # read on an instance whose arcs have driven nothing yet
        fresh = load_case_study(bundled_case_study_dir())
        calls.clear()
        objective_value(objective, timed, fresh, weights)
        assert calls == [], objective


def outcome(build):
    """``build()``, or the class of the scheduling error it raised."""
    try:
        return build()
    except (ScheduleInfeasibleError, MissingArcError) as err:
        return type(err)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       dispatch=st.floats(0.0, 23.75), objective=st.sampled_from(OBJECTIVES),
       m=st.integers(1, 5))
def test_layer_pass_matches_reference_graph(data, seed, dispatch, objective,
                                            m):
    # the layer pass builds, bit for bit, the graph that the build
    # reading an immediate walk built, raises the same error class
    # where it raised, and schedule_solution times each route at the
    # DP's starts whether it is handed an untimed route, its immediate
    # timing or its retimed timing
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(2, 5))
    ids = list(inst.customers())
    route = tuple(data.draw(st.permutations(ids)))[
        :data.draw(st.integers(1, len(ids)))]
    # cut nothing, one arc of the path or one stop's way home, and
    # shorten the horizon and the windows to reach every failure
    path = (0, *route, 0)
    cut = data.draw(st.none() | st.sampled_from(
        [*zip(path, path[1:]), *((n, 0) for n in route)]))
    shrink = data.draw(st.just(1.0) | st.floats(0.125, 1.0))
    inst = replace(
        inst, arcs={k: a for k, a in inst.arcs.items() if k != cut},
        latest_time=data.draw(st.just(24.0) | st.floats(0.25, 6.0)),
        nodes=tuple(replace(n, window_close=n.window_close * shrink)
                    if inst.is_customer(n.id) else n for n in inst.nodes))
    weights = ObjectiveWeights().resolved(inst)
    args = (route, inst, dispatch, m, weights, objective)
    graph = outcome(lambda: build_schedule_graph(*args))
    # repr tells -0.0 from 0.0 and prints every float in full
    assert repr(graph) == repr(outcome(lambda: reference_schedule_graph(
        *args)))
    untimed = RoutingSolution((route,), dispatch)
    if not isinstance(graph, ScheduleGraph):
        with pytest.raises(graph):
            schedule_solution(untimed, inst, m, weights, objective, memo={})
        return
    starts = optimize_schedule(*args).service_starts
    expected = time_route(route, inst, dispatch, starts)
    immediate = propagate_schedule(untimed, inst, dispatch)
    for handed in (untimed, immediate,
                   RoutingSolution((route,), dispatch, (expected,))):
        got = schedule_solution(handed, inst, m, weights, objective, memo={})
        assert got.timings == (expected,)


def test_distance_ties_resolve_to_earliest_times():
    rng = random.Random(83)
    inst = random_instance(rng, 4)
    route = (3, 1, 4, 2)
    prop = propagate_schedule((route,), inst, 2.0)
    sched = optimize_schedule(route, inst, 2.0, m=6, objective="distance")
    assert sched.service_starts == tuple(
        s.service_start for s in prop.timings[0].stops)


def test_schedule_solution_keeps_empty_routes():
    rng = random.Random(31)
    inst = random_instance(rng, 3)
    prop = propagate_schedule(((2, 1, 3), ()), inst, 0.0)
    timed = schedule_solution(prop, inst, 3, objective="tti", memo={})
    assert len(timed.timings) == 2 and len(timed.timings[0].stops) == 3
    assert timed.timings[1].stops == ()
    assert timed.timings[1].return_arrival == 0.0
    assert timed.routes == prop.routes


def test_schedule_solution_times_the_dps_starts_not_the_handed_timing():
    # at hour 7 the DP keeps route (1, 2, 3)'s immediate starts, so a
    # handed timing with those starts but a wrong return must not
    # come back: the result is the walk at the DP's starts
    inst = load_case_study(bundled_case_study_dir())
    route, dispatch = (1, 2, 3), 7.0
    weights = ObjectiveWeights().resolved(inst)
    immediate = propagate_schedule((route,), inst, dispatch)
    starts = optimize_schedule(route, inst, dispatch, 3,
                               weights).service_starts
    assert starts == tuple(
        stop.service_start for stop in immediate.timings[0].stops)
    altered = replace(immediate.timings[0], return_arrival=
                      immediate.timings[0].return_arrival + 1.0)
    handed = RoutingSolution((route,), dispatch, (altered,))
    got = schedule_solution(handed, inst, 3, weights, memo={})
    assert got.timings == (time_route(route, inst, dispatch, starts),)


def test_schedule_solution_retimes_each_memo_route_once(monkeypatch):
    rng = random.Random(31)
    inst = random_instance(rng, 3)
    prop = propagate_schedule(((2, 1), (3,)), inst, 0.0)
    fresh = schedule_solution(prop, inst, 3, objective="tti", memo={})
    memo = {}
    calls = []
    real = phase2.optimize_schedule
    monkeypatch.setattr(phase2, "optimize_schedule",
                        lambda *a, **k: calls.append(a[0]) or real(*a, **k))
    assert schedule_solution(prop, inst, 3, objective="tti",
                             memo=memo) == fresh
    assert schedule_solution(prop, inst, 3, objective="tti",
                             memo=memo) == fresh
    assert calls == [(2, 1), (3,)]
    assert memo == {(2, 1): fresh.timings[0], (3,): fresh.timings[1]}


def test_schedule_solution_never_stores_an_infeasible_route():
    inst = build_instance([{"x": 30.0, "y": 0.0}], latest=1.5)
    prop = propagate_schedule(((1,),), inst, 0.0)
    memo = {}
    for _ in range(2):
        with pytest.raises(ScheduleInfeasibleError):
            schedule_solution(prop, inst, 2, objective="tti", memo=memo)
    assert memo == {}


@functools.cache
def walk_instances():
    """The case study, RND25 (generator seed 0), a sparse graph and R101."""
    return (load_case_study(bundled_case_study_dir()),
            generate_instance(25, 0),
            no_return_from_first(),
            load_solomon("R101"))


def assert_walk_recorded(route, timing, inst, dispatch):
    """The timing's verdict is the reference audit's, and each recorded
    leg is ``model.leg`` at that leg's departure, bit for bit."""
    assert timing.violations == reference_audit(route, timing, inst, dispatch)
    path = (0, *route, 0)
    departs = (timing.depot_departure,
               *(stop.departure for stop in timing.stops))
    assert len(timing.legs) == len(departs)
    for k, depart in enumerate(departs):
        assert timing.legs[k] == leg(inst.arc(path[k], path[k + 1]), depart)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), which=st.integers(0, 3),
       dispatch=st.floats(0.0, 23.75), objective=st.sampled_from(OBJECTIVES),
       m=st.integers(1, 5))
def test_one_walk_times_immediate_and_retimed_routes(data, which, dispatch,
                                                     objective, m):
    # time_route is the only walk: it reproduces propagation, records
    # the reference audit's verdict and each leg it drives, and the
    # timing it gives a DP schedule serves exactly the DP's starts,
    # waits at the stop, and passes the audit
    inst = walk_instances()[which]
    ids = list(inst.customers())
    size = data.draw(st.integers(1, min(5, len(ids))), label="size")
    route = tuple(data.draw(st.permutations(ids), label="order")[:size])
    try:
        prop = propagate_schedule((route,), inst, dispatch)
    except MissingArcError:
        return
    immediate = prop.timings[0]
    assert_walk_recorded(route, immediate, inst, dispatch)
    starts = tuple(stop.service_start for stop in immediate.stops)
    assert time_route(route, inst, dispatch, starts) == immediate
    # starts off the schedule graph reach the audit's early-service check
    shifts = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(route),
                                max_size=len(route)), label="shifts")
    moved = tuple(max(0.0, s + d) for s, d in zip(starts, shifts))
    assert_walk_recorded(route, time_route(route, inst, dispatch, moved),
                         inst, dispatch)
    try:
        timed = schedule_solution(prop, inst, m, None, objective, memo={})
    except ScheduleInfeasibleError:
        # the immediate schedule is always a path of the graph
        assert immediate.violations
        return
    timing = timed.timings[0]
    assert_walk_recorded(route, timing, inst, dispatch)
    sched = optimize_schedule(route, inst, dispatch, m, None, objective)
    assert tuple(s.service_start for s in timing.stops) == sched.service_starts
    for stop in timing.stops:
        assert stop.arrival <= stop.service_start + TIME_EPS
    assert timing.violations == ()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), size=st.integers(1, 8), seed=st.integers(0, 2 ** 16),
       latest=st.floats(8.0, 14.0),
       dispatch=st.floats(0.0, 24.0, exclude_max=True), m=st.integers(1, 8),
       crashes=st.sampled_from(("generated", "up to the bound", "at the top")))
def test_phase2_never_refuses_an_audited_route(data, size, seed, latest,
                                               dispatch, m, crashes):
    # each stop's grid starts at its immediate start, which the audit
    # accepted by the same comparisons on the same floats, so the path
    # through the immediate starts exists, and it costs finitely, as no
    # crash reading reaches 1 even when the hourly values sit just
    # below it (a blend of those can round up to 1 or past it)
    inst = generate_instance(size, seed, latest=latest)
    if crashes != "generated":
        rng = random.Random(seed)
        draw = (lambda: rng.uniform(1e-4, MAX_CRASH)) \
            if crashes == "up to the bound" else (lambda: rng.choice(
                TOP_CRASHES))
        inst = replace(inst, arcs={key: replace(arc, crash=TimeProfile(
            tuple(draw() for _ in range(24))))
            for key, arc in inst.arcs.items()})
    route = data.draw(st.permutations(inst.customers()))
    route = tuple(route[:data.draw(st.integers(1, size))])
    immediate = time_route(route, inst, dispatch)
    assert all(xi < 1.0 for _, _, xi in immediate.legs)
    if immediate.violations:
        return
    for objective in OBJECTIVES:
        starts = optimize_schedule(route, inst, dispatch, m, None,
                                   objective).service_starts
        timing = time_route(route, inst, dispatch, starts)
        assert timing.violations == ()
        assert all(xi < 1.0 for _, _, xi in timing.legs)


def test_infeasible_window_raises():
    inst = build_instance([{"x": 30.0, "y": 0.0, "close": 0.5}])
    with pytest.raises(ScheduleInfeasibleError):
        build_schedule_graph((1,), inst, 0.0, m=3, objective="crash")


def test_unreachable_horizon_raises():
    inst = build_instance([{"x": 30.0, "y": 0.0}], latest=1.5)
    with pytest.raises(ScheduleInfeasibleError):
        optimize_schedule((1,), inst, 0.0, m=2, objective="tti")


def test_stop_without_return_arc_has_no_start():
    # the grid filter agrees with the audit's return-to-depot check
    with pytest.raises(ScheduleInfeasibleError):
        build_schedule_graph((1, 2), no_return_from_first(), 0.0, m=3,
                             objective="time")


def test_schedule_argument_errors():
    inst = build_instance([{"x": 3.0}])
    with pytest.raises(ScheduleError):
        optimize_schedule((1,), inst, 0.0, m=0)
    with pytest.raises(ScheduleError):
        optimize_schedule((), inst, 0.0, m=2)
    with pytest.raises(ScheduleError):
        optimize_schedule((1,), inst, 0.0, m=2, objective="speed")
    with pytest.raises(SolutionError):
        schedule_solution(RoutingSolution(((1,),)), inst, 2, memo={})
    with pytest.raises(MissingArcError):
        optimize_schedule((1, 1), inst, 0.0, m=2)


def test_leg_cost_objectives_agree_with_profiles():
    crash = TimeProfile((0.2,) + (0.05,) * 23)
    tti = TimeProfile((2.5,) + (1.25,) * 23)
    inst = build_instance(
        [{"x": 10.0, "y": 0.0}],
        arc_overrides={(0, 1): {"crash": crash, "tti": tti}},
    )
    arc = inst.arc(0, 1)
    at_midnight = leg(arc, 0.0)

    def cost(objective, driven=at_midnight, weights=None):
        return leg_cost(objective, arc, 0.0, driven, weights)[1]

    assert cost("crash") == -math.log1p(-0.2)
    assert cost("tti") == 2.5
    assert cost("distance") == 10.0
    # 10 miles at 30 mph: a third of an hour, plus no service at depot
    assert cost("time", leg(arc, 2.0)) == pytest.approx(1 / 3)
    assert leg_cost("time", arc, 0.25, leg(arc, 2.0))[1] == \
        pytest.approx(0.25 + 1 / 3)
    w = ObjectiveWeights(0.5, 0.5, crash_scale=10.0)
    mixed = cost("weighted", weights=w)
    assert mixed == pytest.approx(5.0 * -math.log1p(-0.2) + 0.5 * 2.5)
    # every objective hands back the leg's own duration
    for objective in OBJECTIVES:
        assert leg_cost(objective, arc, 0.0, at_midnight, w)[0] == \
            travel_time(arc, 0.0)
    with pytest.raises(SolutionError):
        cost("speed")
