"""Annealing search: construction, repair, moves, and the solve loop."""

import math
import os
import random
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import saferoute
from saferoute.instances import (
    MAX_CRASH,
    bundled_case_study_dir,
    generate_instance,
    load_case_study,
    load_solomon,
)
from saferoute.model import (
    InvalidProfileError,
    MissingArcError,
    TimeProfile,
)
from saferoute.phase1 import (
    OBJECTIVES,
    TIME_EPS,
    ObjectiveWeights,
    RoutingSolution,
    check_feasibility,
    objective_value,
    propagate_schedule,
    time_route,
)
from saferoute.phase2 import optimize_schedule, schedule_solution
from saferoute import phase1, phase2, solver
from saferoute.solver import (
    MOVE_KINDS,
    Move,
    SolverConfig,
    SolverError,
    acceptance,
    apply_move,
    cooling_factor,
    evaluate,
    initial_solution,
    make_feasible,
    _cheapest_insertion,
    _insertion_delta,
    _record,
    sample_move,
    solve,
)

from helpers import (
    build_instance,
    no_return_from_first,
    reference_insertion,
    reference_polish,
    reference_route_audit,
    reference_summary,
    two_on_a_line_without,
)
from test_phase2 import random_instance


def random_customers(rng, n):
    return [{"x": rng.uniform(-10, 10), "y": rng.uniform(-10, 10),
             "demand": rng.randint(5, 20), "service": 0.05,
             "open": 0.0, "close": 24.0} for _ in range(n)]


# --- cooling -------------------------------------------------------------


def test_cooling_factor_reference_values():
    assert math.isclose(cooling_factor(10.0, 0.01, 10), 0.001 ** 0.1,
                        rel_tol=0, abs_tol=1e-15)
    assert math.isclose(cooling_factor(100.0, 1.0, 2), 0.1,
                        rel_tol=0, abs_tol=1e-15)
    assert cooling_factor(5.0, 5.0, 3) == 1.0


def test_cooling_factor_hits_final_temperature():
    rng = random.Random(11)
    for _ in range(300):
        t0 = rng.uniform(0.5, 50.0)
        tf = t0 * rng.uniform(1e-4, 0.99)
        n = rng.randint(1, 40)
        alpha = cooling_factor(t0, tf, n)
        assert abs(t0 * alpha ** n - tf) <= 1e-12


def test_cooling_factor_rejects_bad_arguments():
    with pytest.raises(SolverError):
        cooling_factor(1.0, 2.0, 5)
    with pytest.raises(SolverError):
        cooling_factor(1.0, 0.0, 5)
    with pytest.raises(SolverError):
        cooling_factor(10.0, 0.01, 0)


# --- acceptance ----------------------------------------------------------


def test_acceptance_improvements_and_zero_delta():
    rng = random.Random(0)
    assert acceptance(-0.5, 3.0, rng)
    assert acceptance(-1e-12, 1e-9, rng)
    # exp(0) = 1, so a lateral step is always taken
    assert all(acceptance(0.0, 2.0, rng) for _ in range(100))


def test_acceptance_monte_carlo_rate():
    rng = random.Random(0)
    hits = sum(acceptance(1.0, 1.0, rng) for _ in range(100_000))
    assert abs(hits / 100_000 - math.exp(-1)) < 0.01


def test_acceptance_freezes_at_tiny_temperature():
    rng = random.Random(4)
    assert not any(acceptance(0.5, 1e-300, rng) for _ in range(50))


def test_acceptance_requires_positive_temperature():
    with pytest.raises(SolverError):
        acceptance(1.0, 0.0, random.Random(0))


# --- construction --------------------------------------------------------


def test_initial_solution_splits_ring_by_half_plane():
    customers = []
    for k in range(8):
        ang = math.pi / 8 + k * math.pi / 4
        customers.append({"x": 10 * math.cos(ang), "y": 10 * math.sin(ang),
                          "demand": 1.0})
    inst = build_instance(customers, fleet=(2, 100.0))
    sol = initial_solution(inst)
    assert len(sol.routes) == 2
    # angles below pi belong to the first vehicle, the rest to the second
    assert set(sol.routes[0]) == {1, 2, 3, 4}
    assert set(sol.routes[1]) == {5, 6, 7, 8}


def test_initial_solution_single_customer():
    inst = build_instance([{"x": 3.0, "y": 4.0}])
    assert initial_solution(inst).routes == ((1,), ())


def test_initial_solution_spills_capacity_overflow():
    customers = [{"x": 5.0, "y": 1.0, "demand": 60.0},
                 {"x": 6.0, "y": 1.0, "demand": 60.0},
                 {"x": 7.0, "y": 1.0, "demand": 60.0}]
    inst = build_instance(customers, fleet=(3, 100.0))
    sol = initial_solution(inst)
    assert sorted(len(r) for r in sol.routes) == [1, 1, 1]
    assert {n for r in sol.routes for n in r} == {1, 2, 3}


def test_initial_solution_zero_customers():
    inst = build_instance([], fleet=(3, 50.0))
    assert initial_solution(inst).routes == ((), (), ())


def test_initial_solution_orders_by_radius():
    # same narrow slice: outward sweep sorts by distance from the depot
    customers = [{"x": 9.0, "y": 0.5}, {"x": 3.0, "y": 0.2},
                 {"x": 6.0, "y": 0.4}]
    inst = build_instance(customers, fleet=(1, 500.0))
    assert initial_solution(inst).routes[0] == (2, 3, 1)


# --- repair --------------------------------------------------------------


def test_make_feasible_repairs_window_order():
    # serving the far customer first makes the near window unreachable
    customers = [{"x": 3.0, "y": 0.0, "close": 0.2},
                 {"x": 6.0, "y": 0.0, "close": 24.0}]
    inst = build_instance(customers, fleet=(2, 100.0))
    broken = RoutingSolution(((2, 1), ()))
    assert check_feasibility(propagate_schedule(broken, inst, 0.0), inst)
    fixed = make_feasible(broken, inst, 0.0)
    assert fixed is not None
    assert not check_feasibility(propagate_schedule(fixed, inst, 0.0), inst)
    assert Counter(n for r in fixed.routes for n in r) == Counter({1: 1, 2: 1})


def test_make_feasible_gives_up_on_impossible_window():
    inst = build_instance([{"x": 3.0, "y": 0.0, "close": 0.05}])
    assert make_feasible(RoutingSolution(((1,), ())), inst, 0.0) is None


def test_make_feasible_keeps_feasible_input_feasible():
    rng = random.Random(21)
    inst = build_instance(random_customers(rng, 5), fleet=(2, 200.0))
    sol = initial_solution(inst)
    fixed = make_feasible(sol, inst, 0.0)
    assert fixed is not None
    assert not check_feasibility(propagate_schedule(fixed, inst, 0.0), inst)


@pytest.mark.parametrize("copy", ["depot", "terminal", "pass-through"])
def test_make_feasible_drops_a_depot_copy(copy):
    # the depot is no customer to re-insert: it goes, and the two
    # customers stay where they were; so do the unknown ids past the
    # node table, where the terminal and pass-through copies of the
    # depot used to sit
    inst = build_instance([{"x": 1}, {"x": 2}])
    inside = {"depot": 0, "terminal": len(inst.nodes),
              "pass-through": len(inst.nodes) + 1}[copy]
    fixed = make_feasible(RoutingSolution(((1, inside, 2), ())), inst, 0.0)
    assert fixed is not None and fixed.routes == ((1, 2), ())


@pytest.mark.parametrize("routes", [((1, 2, 1), ()), ((1, 2), (1,)),
                                    ((1,), ())])
def test_make_feasible_serves_each_customer_once(routes):
    # a surplus copy goes, and a customer served nowhere is re-inserted
    # like an ejected one
    inst = build_instance([{"x": 1}, {"x": 2}], fleet=(2, 100.0))
    fixed = make_feasible(RoutingSolution(routes), inst, 0.0)
    assert fixed is not None
    assert not check_feasibility(propagate_schedule(fixed, inst, 0.0), inst)
    assert Counter(n for r in fixed.routes for n in r) == Counter({1: 1, 2: 1})


def test_make_feasible_rejects_more_routes_than_vehicles():
    # each route passes its own audit, and capacity keeps them apart, so
    # only the fleet size could turn this start down
    inst = build_instance([{"x": 1, "demand": 60}, {"x": 2, "demand": 60}],
                          fleet=(1, 100.0))
    with pytest.raises(SolverError):
        make_feasible(RoutingSolution(((1,), (2,))), inst, 0.0)


@pytest.mark.parametrize("start", [((1, 2, 3), ()), ((), (), (3, 2, 1))])
def test_make_feasible_repairs_a_start_the_audit_accepts(start):
    # the one-vehicle case study: the audit counts loaded routes only,
    # so empty routes past the fleet size are no fault, and repair keeps
    # the loaded route and drops the surplus empty ones
    inst = load_case_study(bundled_case_study_dir())
    assert not check_feasibility(propagate_schedule(start, inst, 0.0), inst)
    assert evaluate(start, inst, SolverConfig(objective="distance"), 0.0,
                    ObjectiveWeights()).value == pytest.approx(32.3009)
    fixed = make_feasible(RoutingSolution(start), inst, 0.0)
    assert fixed is not None
    assert fixed.routes == tuple(r for r in start if r)


def test_a_demand_scale_that_never_binds_changes_no_case_study_result():
    # demands near 10^7 under a capacity of 2e7, which never binds: the
    # load left after the last stop can round to a hair below zero, and
    # no rounding error may reject a route, so each of the 120 solves of
    # the sweep returns the bundled case study's value and routes
    case = load_case_study(bundled_case_study_dir())
    demands = {1: 44505.87, 2: 9712075.28, 3: 9399971.05}
    scaled = replace(case, nodes=tuple(
        replace(n, demand=demands.get(n.id, n.demand)) for n in case.nodes),
        fleet=replace(case.fleet, capacity=2e7))
    for hour in range(24):
        for objective in OBJECTIVES:
            config = SolverConfig(objective=objective, seed=hour)
            want = solve(case, config, float(hour))
            got = solve(scaled, config, float(hour))
            assert (got.value, got.solution.routes) \
                == (want.value, want.solution.routes), (hour, objective)


def _served_distance(sol, inst):
    return sum(inst.arc(a, b).distance for r in sol.routes if r
               for a, b in zip((0, *r), (*r, 0)))


def _passes_audit(sol, inst, dispatch):
    try:
        return not check_feasibility(propagate_schedule(sol, inst, dispatch),
                                     inst)
    except MissingArcError:
        return False


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(["RND25", "R101", "case"]),
       dispatch=st.sampled_from([0.0, 7.0, 12.0, 17.0]))
def test_make_feasible_contract(data, name, dispatch):
    # from any customer-only start with one route per vehicle, repair
    # gives up or serves each customer once and passes the audit; a
    # start that already passes, its own output included, comes back
    # no longer
    inst = audit_instance(name)
    visits = data.draw(st.permutations(inst.customers()))
    k = inst.fleet.count
    cuts = sorted(data.draw(st.lists(st.integers(0, len(visits)),
                                     min_size=k - 1, max_size=k - 1)))
    bounds = [0, *cuts, len(visits)]
    start = RoutingSolution(tuple(tuple(visits[a:b])
                                  for a, b in zip(bounds, bounds[1:])))
    fixed = make_feasible(start, inst, dispatch)
    if _passes_audit(start, inst, dispatch):
        assert fixed is not None
        assert _served_distance(fixed, inst) <= _served_distance(start, inst)
    if fixed is None:
        return
    assert _passes_audit(fixed, inst, dispatch)
    assert sorted(n for r in fixed.routes for n in r) \
        == sorted(inst.customers())
    again = make_feasible(fixed, inst, dispatch)
    assert again is not None
    assert _served_distance(again, inst) <= _served_distance(fixed, inst)


def test_make_feasible_survives_a_route_it_empties():
    # the audit names every stop but 48, the heaviest, which the
    # capacity rule then ejects, so the late return finds the route empty
    inst = audit_instance("R101")
    late = (48, 38, 61, 12, 24, 14, 36, 15, 72, 78, 89, 20, 90, 58, 52, 99)
    start = RoutingSolution((late,) + ((),) * (inst.fleet.count - 1))
    fixed = make_feasible(start, inst, 0.0)
    assert fixed is not None and _passes_audit(fixed, inst, 0.0)
    assert sorted(n for r in fixed.routes for n in r) \
        == sorted(inst.customers())


def test_a_late_return_sheds_the_last_two_stops_in_one_round():
    # only the return from 3 is late, and the audit names it once, as
    # stop 3's horizon-return.  Repair's late-return rule sheds the stop
    # before it too, so one ejection round sheds 3 and then 2, although
    # (1, 2) passes
    inst = build_instance([{"x": 10}, {"x": 20}, {"x": 30}], latest=2.2)
    late = time_route((1, 2, 3), inst, 0.0).violations
    assert [(v.constraint, v.node) for v in late] == [("horizon-return", 3)]
    assert not time_route((1, 2), inst, 0.0).violations
    scans = []
    insertion = solver._cheapest_insertion

    def seen(held, *args, **kwargs):
        scans.append([record.route for record in held])
        return insertion(held, *args, **kwargs)

    with mock.patch.object(solver, "_cheapest_insertion", seen):
        fixed = make_feasible(RoutingSolution(((1, 2, 3), ())), inst, 0.0)
    assert scans[0] == [(1,), ()]  # the bank's first scan
    assert fixed is not None and _passes_audit(fixed, inst, 0.0)
    assert sorted(n for r in fixed.routes for n in r) == [1, 2, 3]


@lru_cache(maxsize=None)
def audit_instance(name):
    if name == "R101":
        return load_solomon("R101")
    if name == "case":
        return load_case_study(bundled_case_study_dir())
    if name.startswith("line without"):  # e.g. "line without 1 0"
        tail, head = map(int, name.split()[2:])
        return two_on_a_line_without((tail, head))
    return generate_instance(25, seed=0)


@settings(max_examples=120, deadline=None)
@given(data=st.data(),
       name=st.sampled_from(["R101", "RND25", "line without 1 0"]),
       dispatch=st.sampled_from([0.0, 7.0, 12.0, 17.0]))
def test_route_check_matches_whole_audit(data, name, dispatch):
    # repair judges one route by the verdict its record holds; it
    # must say what the whole-solution audit says of that route, visit
    # counts aside, for the customers repair hands it.  A route gets a
    # record, stored under it and holding the walk's timing, exactly
    # when propagation can walk it; on the line with no way home from 1
    # a route that ends at 1 gets none, and nothing is stored
    inst = audit_instance(name)
    pool = list(inst.customers())
    route = tuple(data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                     max_size=12)))
    records = {}
    record = solver._record(route, inst, dispatch, records)
    try:
        timed = propagate_schedule((route,), inst, dispatch)
    except MissingArcError:
        assert record is None and records == {}
        return
    assert records == {route: record} and records[route] is record
    assert record.timing == timed.timings[0]
    expected = tuple(v for v in check_feasibility(timed, inst)
                     if v.constraint != "visit-count")
    assert record.timing.violations == expected


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       name=st.sampled_from(["R101", "RND25", "case", "line without 1 0",
                             "line without 1 2"]),
       dispatch=st.sampled_from([0.0, 7.0, 12.0, 17.0]),
       polish=st.booleans())
def test_cheapest_insertion_matches_reference_scan(data, name, dispatch,
                                                    polish):
    # pricing a route's positions in one pass and auditing only a trial
    # that would win finds what auditing every trial finds, in repair
    # mode and in polish mode, with any set of routes skipped; the
    # sparse case study and the lines with a missing arc put infinite
    # and NaN deltas and empty routes through the one-pass pricing and
    # its skip.  The routes are cut to prefixes that pass their audit,
    # as every route repair holds does
    inst = audit_instance(name)
    visits = data.draw(st.lists(st.sampled_from(inst.customers()),
                                min_size=2, max_size=14, unique=True))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(visits)),
                                     min_size=1, max_size=4)))
    bounds = [0, *cuts, len(visits)]
    routes = [visits[a:b] for a, b in zip(bounds, bounds[1:])]
    if data.draw(st.booleans()):  # window order makes more trials feasible
        routes = [sorted(r, key=lambda n: inst.node(n).window_close)
                  for r in routes]
    routes = [_feasible_prefix(r, inst, dispatch) for r in routes]
    skip = data.draw(st.sets(st.integers(0, len(routes) - 1),
                             max_size=len(routes)))
    if polish:
        ri = next((k for k, r in enumerate(routes) if r), None)
        assume(ri is not None)
        c = routes[ri][data.draw(st.integers(0, len(routes[ri]) - 1))]
        i = routes[ri].index(c)
        options = dict(skip=skip | {ri}, below=_insertion_delta(
            inst, routes[ri][:i] + routes[ri][i + 1:], i, c))
    else:  # c is served by no route, or the last stop of the last one
        spare = [n for n in visits if all(n not in r for r in routes)]
        c = spare[0] if spare else next(r for r in reversed(routes)
                                        if r).pop()
        options = dict(skip=skip)
    records = {}
    held = [_record(r, inst, dispatch, records) for r in routes]
    best = _cheapest_insertion(held, c, inst, dispatch, records, **options)
    assert (None if best is None else (best[0], best[1].route)) \
        == reference_insertion(routes, c, inst, dispatch, **options)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(["R101", "RND25", "case"]),
       dispatch=st.sampled_from([0.0, 7.0, 12.0, 17.0]))
def test_stamped_polish_matches_full_rescan(data, name, dispatch):
    # pricing only the routes edited since a customer's last fruitless
    # scan, and passing to 2-opt only the routes it has not yet left,
    # repairs every start as rescanning every route every round does
    inst = audit_instance(name)
    visits = data.draw(st.permutations(inst.customers()))
    k = inst.fleet.count
    cuts = sorted(data.draw(st.lists(st.integers(0, len(visits)),
                                     min_size=k - 1, max_size=k - 1)))
    bounds = [0, *cuts, len(visits)]
    start = RoutingSolution(tuple(tuple(visits[a:b])
                                  for a, b in zip(bounds, bounds[1:])))
    if data.draw(st.booleans()):  # window order leaves polish more to do
        start = RoutingSolution(tuple(
            sorted(r, key=lambda n: inst.node(n).window_close)
            for r in start.routes))
    with mock.patch.object(solver, "_polish", reference_polish):
        expected = make_feasible(start, inst, dispatch)
    assert make_feasible(start, inst, dispatch) == expected


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(["R101", "RND25", "case"]),
       dispatch=st.sampled_from([0.0, 7.0, 12.0, 17.0]))
def test_repair_stores_the_records_the_search_returns(data, name, dispatch):
    # repair holds its routes only as records: each (k, record) the
    # insertion search returns is the very records entry of the scanned
    # route k with c inserted, the next scan reads that record in slot
    # k and every other slot unchanged, and repair's routes are the
    # routes of the records it holds when polish ends
    inst = audit_instance(name)
    visits = data.draw(st.permutations(inst.customers()))
    fleet = inst.fleet.count
    cuts = sorted(data.draw(st.lists(st.integers(0, len(visits)),
                                     min_size=fleet - 1, max_size=fleet - 1)))
    bounds = [0, *cuts, len(visits)]
    start = RoutingSolution(tuple(tuple(visits[a:b])
                                  for a, b in zip(bounds, bounds[1:])))
    scans, final = [], []
    insertion, polish = solver._cheapest_insertion, solver._polish

    def seen(held, c, instance, dispatch, records, **kwargs):
        scanned = list(held)
        best = insertion(held, c, instance, dispatch, records, **kwargs)
        if best is not None:
            k, record = best
            pos = record.route.index(c)
            assert record.route[:pos] + record.route[pos + 1:] \
                == scanned[k].route
            assert records[record.route] is record
            assert not record.timing.violations
        scans.append((scanned, best, "skip" in kwargs))
        return best

    def polished(held, *args):
        polish(held, *args)
        final.append([record.route for record in held])

    with mock.patch.object(solver, "_cheapest_insertion", seen), \
            mock.patch.object(solver, "_polish", polished):
        repaired = make_feasible(start, inst, dispatch)
    bank = [scan for scan in scans if not scan[2]]
    after = scans[len(bank):len(bank) + 1]  # polish's first scan
    assert all(scan[2] for scan in scans[len(bank):])
    for (held, best, _), (scanned, *_) in zip(bank, bank[1:] + after):
        k, record = best
        expected = [record if i == k else h for i, h in enumerate(held)]
        assert len(scanned) == len(expected)
        assert all(a is b for a, b in zip(scanned, expected))
    if repaired is None:
        assert not final and (not bank or bank[-1][1] is None)
    else:
        assert list(repaired.routes) == final[0]


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       name=st.sampled_from(["R101", "RND25", "case", "line without 1 0",
                             "line without 1 2"]),
       dispatch=st.sampled_from([0.0, 7.0, 12.0, 17.0]))
def test_held_records_pass_their_audit(data, name, dispatch):
    # every record repair holds, as each insertion scan reads it and as
    # polish leaves it, passed its one-route audit: none drives a
    # missing arc, as such a route gets no record, and the search reads
    # departures and latest starts only of routes that pass
    inst = audit_instance(name)
    visits = data.draw(st.permutations(inst.customers()))
    fleet = inst.fleet.count
    cuts = sorted(data.draw(st.lists(st.integers(0, len(visits)),
                                     min_size=fleet - 1, max_size=fleet - 1)))
    bounds = [0, *cuts, len(visits)]
    start = RoutingSolution(tuple(tuple(visits[a:b])
                                  for a, b in zip(bounds, bounds[1:])))
    held_seen = []
    insertion, polish = solver._cheapest_insertion, solver._polish

    def scanned(held, *args, **kwargs):
        held_seen.append(list(held))
        return insertion(held, *args, **kwargs)

    def polished(held, *args):
        polish(held, *args)
        held_seen.append(list(held))

    with mock.patch.object(solver, "_cheapest_insertion", scanned), \
            mock.patch.object(solver, "_polish", polished):
        make_feasible(start, inst, dispatch)
    for held in held_seen:
        for record in held:
            assert not record.timing.violations


def test_polish_keeps_a_donor_that_would_turn_late():
    # the direct arc 1 -> 3 is slower than the two legs through 2, so
    # moving 2 next to 4, which shortens the total, would start 3 after
    # its window closes; the start passes the audit and is kept
    inst = build_instance(
        [{"x": 1}, {"x": 2, "y": 1}, {"x": 3, "close": 0.5, "demand": 60},
         {"x": 2, "y": 2, "demand": 50}],
        fleet=(2, 100.0), arc_overrides={(1, 3): {"speed": 1.0}})
    start = RoutingSolution(((1, 2, 3), (4,)))
    assert _passes_audit(start, inst, 0.0)
    fixed = make_feasible(start, inst, 0.0)
    assert fixed == start and _passes_audit(fixed, inst, 0.0)


def test_r101_polish_prices_only_edited_routes(monkeypatch):
    # rescanning every route for every customer in every round priced
    # 14,400 (customer, route) pairs in this solve's polish (600 scans
    # of 24 routes); a scan now prices only the routes edited since the
    # customer's last fruitless scan
    priced = Counter()
    insertion = solver._cheapest_insertion

    def counted(routes, c, *args, **kwargs):
        if "skip" in kwargs:  # polish's scans; repair's bank skips none
            priced["routes"] += len(routes) - len(kwargs["skip"])
        return insertion(routes, c, *args, **kwargs)

    monkeypatch.setattr(solver, "_cheapest_insertion", counted)
    res = solve(load_solomon("R101"),
                SolverConfig(objective="distance", seed=0), 0.0)
    assert res.value == 1846.1684329678744
    assert 0 < priced["routes"] <= 8000


def _tightened(inst, trial, pos, dispatch, what, pick):
    """``inst`` with one bound of ``trial`` moved to half ``TIME_EPS``
    inside the trial's immediate timing, which the audit still accepts:
    the window close of a stop from ``pos`` on, or the horizon."""
    try:
        timing = time_route(tuple(trial), inst, dispatch)
    except MissingArcError:
        return inst
    if what == "horizon":
        return replace(inst, latest_time=timing.return_arrival - dispatch
                       - TIME_EPS / 2)
    stop = timing.stops[pos + pick % (len(trial) - pos)]
    node = inst.node(stop.node)
    close = max(node.window_open,
                stop.service_start - dispatch - TIME_EPS / 2)
    nodes = list(inst.nodes)
    nodes[node.id] = replace(node, window_close=close)
    return replace(inst, nodes=tuple(nodes))


def _feasible_prefix(route, inst, dispatch) -> list[int]:
    """``route``'s longest prefix that passes the one-route audit, maybe
    empty: a prefix of a feasible route is feasible."""
    route = list(route)
    while route and reference_route_audit(tuple(route), inst, dispatch):
        route.pop()
    return route


def _feasible_route(data, inst, dispatch, c):
    """A drawn route without c that passes the audit (maybe empty): one
    of up to four cuts of up to 12 visits, each cut to its longest
    feasible prefix."""
    visits = data.draw(st.lists(st.sampled_from(
        [n for n in inst.customers() if n != c]),
        max_size=12, unique=True))
    if data.draw(st.booleans()):  # window order keeps more of a route
        visits.sort(key=lambda n: inst.node(n).window_close)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(visits)),
                                     max_size=3)))
    bounds = [0, *cuts, len(visits)]
    return data.draw(st.sampled_from([
        _feasible_prefix(visits[a:b], inst, dispatch)
        for a, b in zip(bounds, bounds[1:])]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(["R101", "RND25", "case"]),
       dispatch=st.sampled_from([0.0, 7.0, 12.0, 17.0]),
       tighten=st.sampled_from([None, "window", "horizon"]))
def test_fit_precheck_passes_every_trial_the_audit_accepts(data, name,
                                                           dispatch, tighten):
    # the pre-check is a necessary condition: it never turns down a
    # trial route that passes the one-route audit, also when a window
    # or the horizon sits within the audit's TIME_EPS of the trial
    inst = audit_instance(name)
    c = data.draw(st.sampled_from(inst.customers()))
    route = _feasible_route(data, inst, dispatch, c)
    pos = data.draw(st.integers(0, len(route)))
    trial = route[:pos] + [c] + route[pos:]
    if tighten is not None:
        inst = _tightened(inst, trial, pos, dispatch, tighten,
                          data.draw(st.integers(0, len(route))))
    if not reference_route_audit(tuple(trial), inst, dispatch):
        record = solver._record(route, inst, dispatch, {})
        assert solver._may_fit(record, pos, c, inst, dispatch)


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       name=st.sampled_from(["R101", "RND25", "case", "line without 1 0",
                             "line without 1 2"]),
       dispatch=st.sampled_from([0.0, 7.0, 12.0, 17.0]),
       tighten=st.sampled_from([None, "window", "horizon"]))
def test_window_slice_holds_every_trial_the_audit_accepts(data, name,
                                                          dispatch, tighten):
    # a record's departures and latest starts never decrease, so c's
    # window bounds cut each by bisection into one slice of positions;
    # every position whose trial passes the one-route audit lies in it,
    # also when a window or the horizon sits within the audit's
    # TIME_EPS of the trial
    inst = audit_instance(name)
    c = data.draw(st.sampled_from(inst.customers()))
    route = _feasible_route(data, inst, dispatch, c)
    if tighten is not None:
        pos = data.draw(st.integers(0, len(route)))
        inst = _tightened(inst, route[:pos] + [c] + route[pos:], pos,
                          dispatch, tighten,
                          data.draw(st.integers(0, len(route))))
    record = solver._record(route, inst, dispatch, {})
    for series in (record.departures, record.latest):
        assert all(a <= b for a, b in zip(series, series[1:]))
    ready, close_by = solver._window_bounds(c, inst, dispatch)
    lo = bisect_left(record.latest, ready)
    hi = bisect_right(record.departures, close_by)
    for pos in range(len(route) + 1):
        trial = (*route[:pos], c, *route[pos:])
        if not reference_route_audit(trial, inst, dispatch):
            assert lo <= pos < hi


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       name=st.sampled_from(["R101", "RND25", "case", "line without 1 0",
                             "line without 1 2"]),
       dispatch=st.sampled_from([0.0, 7.0, 12.0, 17.0]),
       tighten=st.sampled_from([None, "window", "horizon"]))
def test_reversal_precheck_passes_every_route_the_audit_accepts(
        data, name, dispatch, tighten):
    # polish's 2-opt audits a shorter reversal only when a forward pass
    # at fastest times shows no stop late; that pass never turns down a
    # route the one-route audit accepts, also when a window or the
    # horizon sits within the audit's TIME_EPS of its timing
    inst = audit_instance(name)
    route = data.draw(st.lists(st.sampled_from(
        inst.customers()), min_size=1, max_size=12,
        unique=True))
    if data.draw(st.booleans()):  # window order keeps more of a route
        route.sort(key=lambda n: inst.node(n).window_close)
    i = data.draw(st.integers(0, len(route) - 1))
    j = data.draw(st.integers(i, len(route) - 1))
    route[i:j + 1] = route[i:j + 1][::-1]
    route = _feasible_prefix(route, inst, dispatch)
    if route and tighten is not None:
        inst = _tightened(inst, route, 0, dispatch, tighten,
                          data.draw(st.integers(0, len(route))))
    if not reference_route_audit(tuple(route), inst, dispatch):
        assert solver._may_keep_order(route, inst, dispatch)


def test_r101_solve_audits_only_winning_trials(monkeypatch):
    # the scan that audited every trial position made 9,122 one-route
    # audits in this solve, and one that audited every would-be best
    # made 6,249; the slack pre-check left 411, and repair's ejection
    # added 47, on top of the walks that summarised the scanned routes;
    # a route's summary carrying its audit left 311 walks, 62 of them
    # audits of shorter 2-opt reversals, none kept.  Pricing all
    # positions ran the fit pre-check on 4,726 would-be bests.  Now the
    # window slice prices only positions the pre-check could pass, and
    # a forward pass at fastest times turns down those reversals.  A
    # record computes its latest starts on first read, which only
    # repair makes, so the passes counted are those inside repair
    calls = Counter()
    repairing = [False]

    def counted(name):
        check = getattr(solver, name)

        def wrapped(*args):
            calls[name] += repairing[0]
            return check(*args)
        monkeypatch.setattr(solver, name, wrapped)

    def repair(*args):
        repairing[0] = True
        try:
            return make_feasible(*args)
        finally:
            repairing[0] = False

    counted("_latest_starts")
    counted("_may_fit")
    monkeypatch.setattr(solver, "make_feasible", repair)
    res = solve(load_solomon("R101"),
                SolverConfig(objective="distance", seed=0), 0.0)
    assert res.value == 1846.1684329678744
    assert 0 < calls["_latest_starts"] <= 260
    assert 0 < calls["_may_fit"] <= 1000


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       dispatch=st.floats(0.0, 23.75))
def test_lazy_record_equals_eager_summary(data, seed, dispatch):
    # a record fills repair's fields on first read; each equals, bit
    # for bit, what the summary built with every record computed,
    # whether repair's call or evaluate's made the record, also on a graph that
    # lacks an arc of the drawn route or its way home.  Only records
    # that pass their audit are drawn, as repair reads no other
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(2, 5))
    ids = list(inst.customers())
    route = tuple(data.draw(st.permutations(ids)))[
        :data.draw(st.integers(0, len(ids)))]
    path = (0, *route, 0)
    cut = data.draw(st.none() | st.sampled_from(
        [*zip(path, path[1:]), *((n, 0) for n in route)]))
    inst = replace(inst, arcs={k: a for k, a in inst.arcs.items()
                               if k != cut})
    route = tuple(_feasible_prefix(route, inst, dispatch))
    timing = time_route(route, inst, dispatch)
    records = {}
    evaluate(RoutingSolution((route,)), inst,
             SolverConfig(objective="distance"), dispatch,
             SolverConfig().weights, records)
    made = [solver._record(list(route), inst, dispatch, {}),
            *records.values()]
    for name, value in reference_summary(route, inst, dispatch,
                                         timing).items():
        for record in made:
            # repr tells -0.0 from 0.0 and prints every float in full
            assert repr(getattr(record, name)) == repr(value), name


def test_case_study_solve_runs_no_latest_start_pass(monkeypatch):
    # only repair reads a record's latest starts, and no case-study
    # solve repairs, so none runs the backward pass that every record
    # once paid for
    calls = Counter()
    latest, repair = solver._latest_starts, solver.make_feasible
    monkeypatch.setattr(solver, "_latest_starts",
                        lambda *a: calls.update(["latest"]) or latest(*a))
    monkeypatch.setattr(solver, "make_feasible",
                        lambda *a: calls.update(["repair"]) or repair(*a))
    inst = load_case_study(bundled_case_study_dir())
    for hour in range(24):
        for objective in OBJECTIVES:
            solve(inst, SolverConfig(objective=objective), float(hour))
    assert calls == {}


@pytest.mark.parametrize("name, dispatch", [("R101", 0.0), ("RND80", 7.0)])
def test_repair_walks_each_route_once(monkeypatch, name, dispatch):
    # a solve once kept repair's records and evaluate's apart, so 51
    # R101 routes (RND80: 26) were walked by both; both now read one
    # dict of records, and each distinct route gets at most one
    # immediate walk, whichever module times it.  Phase 2 makes none:
    # its graph build once walked every route it retimed
    inst = audit_instance("R101") if name == "R101" \
        else generate_instance(80, seed=0)
    walks = Counter()

    def counted(walk):
        def timed(route, instance, dispatch, starts=None):
            walks[tuple(route)] += starts is None
            return walk(route, instance, dispatch, starts)
        return timed

    monkeypatch.setattr(phase1, "time_route", counted(phase1.time_route))
    monkeypatch.setattr(phase2, "time_route", counted(phase2.time_route))
    objective = "distance" if name == "R101" else "weighted"
    res = solve(inst, SolverConfig(objective=objective, seed=0), dispatch)
    assert res.feasible
    assert walks and max(walks.values()) == 1
    assert sum(walks.values()) <= (317 if name == "R101" else 375)


def test_r101_scan_looks_up_only_trial_records(monkeypatch):
    # looking up every scanned route's record by its tuple made 9,375
    # lookups inside the insertion search in this solve; the search now
    # reads the records its caller holds, and looks up only the trials
    # it audits
    lookups = Counter()
    insertion = solver._cheapest_insertion

    class Counted:
        def __init__(self, records):
            self.records = records

        def get(self, key, default=None):
            lookups["records"] += 1
            return self.records.get(key, default)

        def __setitem__(self, key, record):
            self.records[key] = record

    def counted(held, c, instance, dispatch, records, **kwargs):
        return insertion(held, c, instance, dispatch, Counted(records),
                         **kwargs)

    monkeypatch.setattr(solver, "_cheapest_insertion", counted)
    res = solve(load_solomon("R101"),
                SolverConfig(objective="distance", seed=0), 0.0)
    assert res.value == 1846.1684329678744
    assert 0 < lookups["records"] <= 181


def test_r101_solve_prices_each_route_in_one_pass(monkeypatch):
    # pricing every position with its own _insertion_delta call made
    # 78,132 calls in this solve, from 662 insertion scans; now only
    # polish's saving calls it, once a scan at most
    calls = Counter()
    delta = solver._insertion_delta

    def counted(*args):
        calls["delta"] += 1
        return delta(*args)

    monkeypatch.setattr(solver, "_insertion_delta", counted)
    res = solve(load_solomon("R101"),
                SolverConfig(objective="distance", seed=0), 0.0)
    assert res.value == 1846.1684329678744
    assert 0 < calls["delta"] <= 662


def test_solve_resolves_weights_only_for_weighted():
    # the crash scale is a pass over every arc's profiles, which the
    # instance keeps once made; only the weighted objective reads it
    inst = load_case_study(bundled_case_study_dir())
    solve(inst, SolverConfig(objective="distance", seed=0), 7.0)
    assert "crash_scale" not in inst.__dict__
    res = solve(inst, SolverConfig(objective="weighted", seed=0), 7.0)
    assert res.feasible
    assert "crash_scale" in inst.__dict__


def test_r101_distance_pinned():
    # bit-exact anchor of the construction, repair and polish path
    res = solve(load_solomon("R101"),
                SolverConfig(objective="distance", seed=0), 0.0)
    assert res.feasible
    assert res.value == 1846.1684329678744
    assert res.evaluations == 52
    assert res.history == (1846.1684329678744,) * 10
    assert res.solution.routes == (
        (76, 80, 55, 24), (28, 12, 77, 3, 54), (78, 29, 79, 34, 35),
        (63, 11, 88), (71, 51, 50), (33, 65, 9, 81, 68), (27, 89, 53),
        (31, 66, 20, 32), (90, 30, 10, 70, 1), (52, 69), (45, 82, 7),
        (96, 98, 99, 83, 18), (), (5, 84, 61, 85, 59), (36, 47, 8, 46, 48),
        (60, 16, 91, 93, 37), (100, 92, 97, 95, 94, 6), (87, 42, 15, 43, 13),
        (2, 57), (40, 58), (72, 39, 74, 22, 26), (75, 73, 21, 56, 4, 25),
        (62, 19, 49, 64), (67, 23, 41), (14, 44, 38, 86, 17))


@pytest.mark.parametrize("objective", ["distance", "weighted"])
def test_solve_flags_stop_without_return_arc(objective):
    # every order either strands customer 1 or needs the missing arc
    res = solve(no_return_from_first(), SolverConfig(objective=objective))
    assert not res.feasible and res.value == math.inf


# --- moves ---------------------------------------------------------------


def test_swap_and_reversion_are_involutions():
    sol = RoutingSolution(((1, 2, 3), (4, 5)))
    swap = Move("swap", (0, 0, 1, 1, 1))
    assert apply_move(apply_move(sol, swap), swap).routes == sol.routes
    rev = Move("reversion", (0, 0, 2))
    assert apply_move(apply_move(sol, rev), rev).routes == sol.routes


def test_relocate_across_routes_and_back():
    sol = RoutingSolution(((1, 2, 3), (4,)))
    there = apply_move(sol, Move("insertion", (0, 1, 2, 1, 0)))
    assert there.routes == ((1,), (2, 3, 4))
    back = apply_move(there, Move("insertion", (1, 0, 2, 0, 1)))
    assert back.routes == sol.routes


def test_three_opt_variants():
    sol = RoutingSolution(((1, 2, 3, 4, 5),))
    swapped = apply_move(sol, Move("three_opt", (0, 1, 3, 5, 0)))
    assert swapped.routes == ((1, 4, 5, 2, 3),)
    reversed_mid = apply_move(sol, Move("three_opt", (0, 1, 3, 5, 1)))
    assert reversed_mid.routes == ((1, 4, 5, 3, 2),)


def test_split_moves_suffix_to_other_route():
    sol = RoutingSolution(((1, 2, 3), (4,)))
    split = apply_move(sol, Move("split", (0, 1, 1)))
    assert split.routes == ((1,), (4, 2, 3))


def test_apply_move_leaves_input_untouched():
    sol = RoutingSolution(((1, 2), (3,)))
    apply_move(sol, Move("two_opt", (0, 0, 1)))
    assert sol.routes == ((1, 2), (3,))


def test_move_kind_is_validated():
    with pytest.raises(SolverError):
        Move("teleport", ())


def test_sampled_moves_preserve_visit_multiset():
    rng = random.Random(77)
    inst = build_instance(random_customers(rng, 6), fleet=(3, 400.0))
    sol = initial_solution(inst)
    want = Counter(n for r in sol.routes for n in r)
    for _ in range(400):
        move = sample_move(sol, rng)
        assert move.kind in MOVE_KINDS
        sol = apply_move(sol, move)
        assert Counter(n for r in sol.routes for n in r) == want
        assert len(sol.routes) == inst.fleet.count


def test_sample_move_on_single_customer():
    sol = RoutingSolution(((1,),))
    rng = random.Random(5)
    for _ in range(50):
        moved = apply_move(sol, sample_move(sol, rng))
        assert moved.routes == ((1,),)


# --- evaluation ----------------------------------------------------------


def test_evaluate_skips_scheduling_for_distance():
    inst = build_instance([{"x": 2.0, "y": 0.0}, {"x": 4.0, "y": 0.0}],
                          fleet=(2, 100.0))
    cfg = SolverConfig(objective="distance", m=2)
    retimed = {}
    out = evaluate(((1, 2), ()), inst, cfg, 0.0,
                   cfg.weights.resolved(inst), retimed=retimed)
    assert out.feasible
    assert out.solution == propagate_schedule(((1, 2), ()), inst, 0.0)
    assert retimed == {}


def test_evaluate_rejects_window_violation():
    inst = build_instance([{"x": 6.0, "y": 0.0, "close": 0.1}])
    cfg = SolverConfig(m=2)
    out = evaluate(((1,), ()), inst, cfg, 0.0, cfg.weights.resolved(inst))
    assert not out.feasible and out.value == math.inf


def test_evaluate_scores_an_audited_route_of_near_certain_crash():
    # the model refuses a crash value of 1, which phase 2 used to meet
    # as a leg costing inf; at the largest value below 1 the leg costs
    # finitely, so phase 2 retimes every route the audit passes
    base = load_case_study(bundled_case_study_dir())
    with pytest.raises(InvalidProfileError):
        replace(base.arcs[0, 1], crash=TimeProfile.constant(1.0))
    near = replace(base.arcs[0, 1], crash=TimeProfile.constant(MAX_CRASH))
    inst = replace(base, arcs={**base.arcs, (0, 1): near})
    assert time_route((1, 2, 3), inst, 7.0).violations == ()
    for objective in ("crash", "weighted"):
        cfg = SolverConfig(objective=objective)
        out = evaluate(((1, 2, 3),), inst, cfg, 7.0,
                       cfg.weights.resolved(inst))
        assert out.feasible and out.value < math.inf
        assert solve(base, cfg, 7.0).feasible


def test_zero_crash_weight_solves_a_certain_crash_as_tti():
    # with w_crash 0, weighted is tti in meaning and in every leg cost,
    # a leg of the highest crash value the model admits (below 1) included
    base = load_case_study(bundled_case_study_dir())
    near = replace(base.arcs[0, 1], crash=TimeProfile.constant(MAX_CRASH))
    base = replace(base, arcs={**base.arcs, (0, 1): near})
    tti = solve(base, SolverConfig(objective="tti"), 7.0)
    weighted = solve(base, SolverConfig(
        objective="weighted", weights=ObjectiveWeights(0.0, 1.0)), 7.0)
    assert tti.solution.routes == ((1, 2, 3),)
    assert (weighted.value, weighted.solution.routes) == \
        (tti.value, tti.solution.routes)


def test_evaluate_never_stores_a_route_with_a_missing_arc():
    inst = no_return_from_first()
    cfg = SolverConfig(objective="time")
    records = {}
    for _ in range(2):
        out = evaluate(((2, 1),), inst, cfg, 0.0, cfg.weights.resolved(inst),
                       records=records)
        assert not out.feasible and out.solution.timings is None
    assert records == {}


@lru_cache(maxsize=None)
def memo_instance(name):
    if name == "case":
        return load_case_study(bundled_case_study_dir())
    if name == "case less (1, 2)":  # a candidate may drive a missing arc
        case = memo_instance("case")
        return replace(case, arcs={key: arc for key, arc in case.arcs.items()
                                   if key != (1, 2)})
    if name == "R101":
        return load_solomon("R101")
    return generate_instance(25, seed=0)


def memo_walk(name, dispatch, objective, walk_seed, steps=30):
    """Evaluate a random walk of moves twice with one shared dict of
    route records, retimed memo and candidate memo, and again with
    none; returns per step the shared pair, the dict-free evaluation
    and whether the second shared call returned the candidate memo's
    entry.  On about a quarter of the steps a feasible triple is also
    re-timed by ``schedule_solution``, with the shared retimed memo and
    without, which under ``distance`` fills the shared memo.  Then
    repairs the walk's last candidate with the records the walk filled
    and with none, and evaluates the second with the records it left
    and with none: the last step holds the two repairs and the two
    evaluations."""
    inst = memo_instance(name)
    cfg = SolverConfig(objective=objective)
    weights = cfg.weights.resolved(inst)
    rng = random.Random(walk_seed)
    records, retimed, scored = {}, {}, {}
    solution = initial_solution(inst)
    steps_seen = []

    def reschedule(evaluation, memo):
        return replace(evaluation, solution=schedule_solution(
            evaluation.solution, inst, cfg.m, weights, objective,
            memo=memo))

    for _ in range(steps):
        force = rng.random() < 0.25
        shared = evaluate(solution, inst, cfg, dispatch, weights, records,
                          retimed, scored)
        again = evaluate(solution, inst, cfg, dispatch, weights, records,
                         retimed, scored)
        hit = scored.get(solution.routes) is again
        alone = evaluate(solution, inst, cfg, dispatch, weights)
        if force and shared.feasible:
            shared = reschedule(shared, retimed)
            again = reschedule(again, retimed)
            alone = reschedule(alone, {})
        steps_seen.append((shared, again, alone, hit))
        last = solution
        solution = apply_move(solution, sample_move(solution, rng))
    fixes = {}  # the records a repair from a fresh dict leaves
    fresh = make_feasible(last, inst, dispatch, fixes)
    shared = make_feasible(last, inst, dispatch, records)
    scores = (evaluate(fresh, inst, cfg, dispatch, weights, fixes),
              evaluate(fresh, inst, cfg, dispatch, weights)) \
        if fresh is not None else (None, None)
    steps_seen.append((shared, fresh, *scores))
    return steps_seen


@settings(max_examples=40, deadline=None)
@given(walk_seed=st.integers(0, 2 ** 32 - 1),
       case=st.one_of(st.tuples(st.sampled_from(["case",
                                                 "case less (1, 2)"]),
                                st.integers(0, 23).map(float),
                                st.sampled_from(OBJECTIVES)),
                      st.tuples(st.sampled_from(["RND25", "R101"]),
                                st.sampled_from([0.0, 7.0, 12.0, 17.0]),
                                st.sampled_from(OBJECTIVES))))
def test_route_memo_changes_no_evaluation(walk_seed, case):
    # value, feasibility, routes and timings all equal; a feasible
    # candidate is served from the candidate memo on its second call,
    # and an infeasible one never enters it.  Repair reads the records
    # evaluate left and finds what it finds with none, and evaluate
    # reads the records repair left and scores what it scores with none
    *steps, repair = memo_walk(*case, walk_seed)
    for shared, again, alone, hit in steps:
        assert shared == alone and again == alone
        assert hit == alone.feasible
    shared, fresh, with_records, alone = repair
    assert shared == fresh and with_records == alone


def test_memo_walk_meets_both_kinds_of_rejection():
    # the property above must see a missing arc (untimed rejection) and
    # an audit rejection (timed) on the case study less one arc
    *steps, _ = memo_walk("case less (1, 2)", 7.0, "weighted", walk_seed=3,
                          steps=60)
    rejected = [shared for shared, _, _, _ in steps if not shared.feasible]
    assert any(e.solution.timings is None for e in rejected)
    assert any(e.solution.timings is not None for e in rejected)
    assert all(shared == again == alone and hit == alone.feasible
               for shared, again, alone, hit in steps)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_every_candidate_is_one_evaluate_call(monkeypatch, objective):
    # profilers wrap solver.evaluate by name and expect one call per
    # counted evaluation, candidate memo hits included
    inst = memo_instance("case")
    results = []

    def counted(*args, **kwargs):
        results.append(evaluate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solver, "evaluate", counted)
    for hour in (0.0, 7.0, 17.0):
        results.clear()
        res = solver.solve(inst, SolverConfig(objective=objective), hour)
        assert len(results) == res.evaluations
        # some of them were memo hits: the same stored object again
        assert len({id(e) for e in results}) < len(results)


# --- solve ---------------------------------------------------------------


def test_solver_config_validation():
    with pytest.raises(SolverError):
        SolverConfig(max_outer_iterations=-1)
    with pytest.raises(SolverError):
        SolverConfig(m=0)
    with pytest.raises(SolverError):
        SolverConfig(objective="profit")
    for weights in (None, {"crash": 1.0}):  # solve died reading .resolved
        with pytest.raises(SolverError, match="weights"):
            SolverConfig(weights=weights)
    assert SolverConfig(max_outer_iterations=0).max_outer_iterations == 0


def test_solve_is_deterministic_per_seed():
    rng = random.Random(13)
    inst = build_instance(random_customers(rng, 6), fleet=(2, 300.0))
    cfg = SolverConfig(seed=42, m=2, max_outer_iterations=5)
    a = solve(inst, cfg)
    b = solve(inst, cfg)
    assert a.solution.routes == b.solution.routes
    assert a.value == b.value
    assert a.history == b.history
    assert a.evaluations == b.evaluations


def test_zero_iteration_budget_returns_scheduled_initial():
    rng = random.Random(9)
    inst = build_instance(random_customers(rng, 4), fleet=(2, 200.0))
    cfg = SolverConfig(max_outer_iterations=0, m=2)
    res = solve(inst, cfg)
    assert res.feasible
    assert res.evaluations == 1
    assert res.history == ()
    # the initial solution still gets timed output
    assert any(timing.stops for timing in res.solution.timings)


def test_incumbent_history_is_nonincreasing():
    rng = random.Random(31)
    inst = build_instance(random_customers(rng, 7), fleet=(3, 300.0))
    for seed in range(4):
        res = solve(inst, SolverConfig(seed=seed, m=2))
        assert res.history
        assert all(a >= b - 1e-15 for a, b in zip(res.history,
                                                  res.history[1:]))


def test_solved_solutions_pass_feasibility_audit():
    rng = random.Random(55)
    for trial in range(4):
        inst = build_instance(random_customers(rng, 6),
                              fleet=(3, 300.0))
        res = solve(inst, SolverConfig(seed=trial, m=2,
                                       max_outer_iterations=4))
        assert res.feasible
        assert res.solution.timings is not None
        assert not check_feasibility(res.solution, inst)
        assert res.value < math.inf


def test_solve_flags_unservable_instance():
    # the lone customer's window closes before any vehicle can arrive,
    # so repair gives up and the solve stops after scoring its start
    inst = build_instance([{"x": 6.0, "y": 0.0, "close": 0.1}])
    res = solve(inst, SolverConfig(m=2, max_outer_iterations=3))
    assert not res.feasible
    assert res.value == math.inf
    assert res.evaluations == 1
    assert res.history == ()
    unsearched = solve(inst, SolverConfig(m=2, max_outer_iterations=0))
    assert res.solution == unsearched.solution
    assert res.value == unsearched.value


_WINDOW_CUSTOMER = st.fixed_dictionaries({
    "x": st.floats(-8.0, 8.0), "y": st.floats(-8.0, 8.0),
    "demand": st.floats(5.0, 40.0),
    "open": st.floats(0.0, 1.0),
    # widths from a window shorter than most drives to a whole day
    "width": st.one_of(st.floats(0.0, 0.4), st.floats(0.4, 24.0)),
})


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(_WINDOW_CUSTOMER, min_size=1, max_size=5),
       vehicles=st.integers(1, 3))
@example(specs=[{"x": 6.0, "y": 0.0, "demand": 10.0, "open": 0.0,
                 "width": 0.1}], vehicles=1)
def test_feasibility_is_settled_by_construction_and_repair(specs, vehicles):
    # whether a solve is feasible depends on (instance, dispatch) alone:
    # no objective and no seed can turn a failed repair into a result,
    # so a feasible hour is feasible for every objective solved there
    inst = build_instance(
        [{"x": c["x"], "y": c["y"], "demand": c["demand"],
          "open": c["open"], "close": c["open"] + c["width"]}
         for c in specs], fleet=(vehicles, 60.0))
    start = initial_solution(inst)
    settled = evaluate(start, inst, SolverConfig(objective="distance"),
                       0.0, ObjectiveWeights()).feasible \
        or make_feasible(start, inst, 0.0) is not None
    for objective in OBJECTIVES:
        for seed in (0, 1):
            res = solve(inst, SolverConfig(objective=objective, seed=seed,
                                           m=2, max_outer_iterations=2))
            assert res.feasible == settled
            if not res.feasible:
                assert res.solution.routes == start.routes
                assert res.value == math.inf
                assert res.evaluations == 1
                assert res.history == ()


def test_solve_rejects_bad_dispatch():
    inst = build_instance([{"x": 2.0, "y": 0.0}])
    with pytest.raises(SolverError):
        solve(inst, SolverConfig(m=2), dispatch=-1.0)


def test_case_study_distance_optimum():
    inst = load_case_study(bundled_case_study_dir())
    res = solve(inst, SolverConfig(objective="distance", seed=0, m=2))
    assert res.feasible
    assert abs(res.value - 32.3009) <= 1e-9
    assert res.solution.routes in (((1, 2, 3),), ((3, 2, 1),))


def test_weighted_solve_produces_schedules():
    inst = load_case_study(bundled_case_study_dir())
    res = solve(inst, SolverConfig(seed=3, m=2), dispatch=7.0)
    assert res.feasible
    starts = tuple(stop.service_start
                   for stop in res.solution.timings[0].stops)
    assert starts
    assert all(b >= a - 1e-12 for a, b in zip(starts, starts[1:]))

def _result_fields(res):
    return repr((res.value, res.solution, res.history, res.evaluations,
                 res.feasible))


FRESH_SOLVE = """
from saferoute import SolverConfig, bundled_case_study_dir, load_case_study, solve
res = solve(load_case_study(bundled_case_study_dir()), SolverConfig(seed=5), 7.0)
print(repr((res.value, res.solution, res.history, res.evaluations,
            res.feasible)))
"""


def test_solve_keeps_no_state_between_calls():
    # a new interpreter holds nothing an earlier solve could have left
    src = str(Path(saferoute.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    fresh = subprocess.run([sys.executable, "-c", FRESH_SOLVE], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=120).stdout.strip()
    inst = load_case_study(bundled_case_study_dir())
    # same instance object and dispatch, other objective: a route memo
    # that outlived this solve would hand its retimings to the next one
    solve(inst, SolverConfig(objective="tti", seed=2), 7.0)
    assert _result_fields(solve(inst, SolverConfig(seed=5), 7.0)) == fresh


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_scheduling_only_the_incumbent(objective):
    # every objective but distance serves each loaded route at the DP's
    # starts; distance retimes nothing, not even the incumbent, and keeps
    # the immediate timing; either way the value is that of the timing
    inst = memo_instance("case")
    cfg = SolverConfig(objective=objective)
    weights = cfg.weights.resolved(inst)
    for hour in (0, 6, 7, 12, 17, 23):
        dispatch = float(hour)
        res = solve(inst, cfg, dispatch)
        assert res.feasible
        routes, timings = res.solution.routes, res.solution.timings
        if objective == "distance":
            assert timings == propagate_schedule(routes, inst,
                                                 dispatch).timings
        else:
            for route, timing in zip(routes, timings):
                starts = tuple(stop.service_start for stop in timing.stops)
                assert not route or starts == optimize_schedule(
                    route, inst, dispatch, cfg.m, weights,
                    objective).service_starts
        assert res.value == objective_value(objective, res.solution, inst,
                                            weights)
