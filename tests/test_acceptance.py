"""End-to-end acceptance gate.

Nine numbered criteria, each printing a single PASS/FAIL line (run
pytest with -s to see them).  Tolerances are pinned in each test; the
criteria cover queueing closed forms, flow round trips, scheduling
exactness, solver-vs-enumeration equivalence, anchored case-study
values, benchmark regression bounds, solver internals, and CLI
determinism.
"""

import itertools
import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from saferoute.cli import main as cli_main
from saferoute.instances import (
    bundled_case_study_dir,
    load_case_study,
    load_solomon,
)
from saferoute.model import Arc, TimeProfile, travel_time
from saferoute.oracle import enumerate_routes, enumerate_schedules
from saferoute.phase1 import OBJECTIVES, RoutingSolution, check_feasibility
from saferoute.phase2 import ScheduleInfeasibleError, optimize_schedule
from saferoute.queueing import (
    QueueModel,
    flow_at_speed,
    max_flow,
    speed_from_density,
    speeds_from_flow,
    waiting_time,
)
from saferoute.solver import (
    Move,
    SolverConfig,
    acceptance,
    apply_move,
    cooling_factor,
    solve,
)

from helpers import build_instance
from test_phase2 import random_instance


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {label}")


def test_acceptance_1_exponential_service_closed_form():
    with criterion(1, "queueing closed form at unit service variation"):
        rng = random.Random(101)
        started = time.perf_counter()
        for _ in range(10_000):
            s0 = rng.uniform(10.0, 80.0)
            kj = rng.uniform(50.0, 500.0)
            k = rng.uniform(0.01, 0.99) * kj
            q = QueueModel(s0, kj, 1.0)
            expected = s0 * (1.0 - k / kj)
            assert abs(speed_from_density(q, k) - expected) <= 1e-9
            assert abs((1.0 / kj) / waiting_time(q, k) - expected) <= 1e-9
        assert time.perf_counter() - started < 1.0


def test_acceptance_2_capacity_flow_and_double_root():
    with criterion(2, "segment capacity and coinciding roots"):
        q = QueueModel(60.0, 200.0, 1.0)
        assert max_flow(q) == 3000.0
        lo, hi = speeds_from_flow(q, 3000.0)
        assert abs(lo - 30.0) <= 1e-9
        assert abs(hi - 30.0) <= 1e-9


def test_acceptance_3_flow_speed_round_trip():
    with criterion(3, "speed -> flow -> speed round trip"):
        rng = random.Random(303)
        for _ in range(10_000):
            s0 = rng.uniform(10.0, 80.0)
            kj = rng.uniform(50.0, 500.0)
            q = QueueModel(s0, kj, 1.0)
            s = rng.uniform(1e-6, 1.0 - 1e-6) * s0
            roots = speeds_from_flow(q, flow_at_speed(q, s))
            assert min(abs(r - s) for r in roots) <= 1e-9


def test_acceptance_4_schedule_dp_equals_enumeration():
    with criterion(4, "schedule DP matches exhaustive path enumeration"):
        rng = random.Random(404)
        started = time.perf_counter()
        compared = 0
        while compared < 500:
            inst = random_instance(rng, rng.randint(2, 5))
            pool = list(inst.customers())
            rng.shuffle(pool)
            route = pool[:rng.randint(1, min(4, len(pool)))]
            m = rng.randint(1, 4)
            dispatch = rng.uniform(0.0, 12.0)
            objective = OBJECTIVES[rng.randrange(len(OBJECTIVES))]
            try:
                sched = optimize_schedule(tuple(route), inst, dispatch, m,
                                          objective=objective)
            except ScheduleInfeasibleError:
                with pytest.raises(ScheduleInfeasibleError):
                    enumerate_schedules(tuple(route), inst, m,
                                        dispatch=dispatch,
                                        objective=objective)
                continue
            exact = enumerate_schedules(tuple(route), inst, m,
                                        dispatch=dispatch,
                                        objective=objective)
            assert sched.total_cost == exact.value  # bitwise agreement
            compared += 1
        assert time.perf_counter() - started < 30.0


def test_acceptance_5_solver_matches_oracle_across_scenarios():
    with criterion(5, "annealer equals enumeration on the case study"):
        inst = load_case_study(bundled_case_study_dir())
        worst_oracle = 0.0
        for objective in OBJECTIVES:
            optima = []
            for hour in range(24):
                result = enumerate_routes(inst, objective,
                                          dispatch=float(hour),
                                          schedule_m=2)
                worst_oracle = max(worst_oracle, result.elapsed)
                optima.append(result.value)
            for seed in range(5):
                config = SolverConfig(objective=objective, seed=seed, m=2)
                matched = 0
                for hour in range(24):
                    res = solve(inst, config, dispatch=float(hour))
                    if res.feasible and \
                            abs(res.value - optima[hour]) <= 1e-9:
                        matched += 1
                assert matched >= 22, (objective, seed, matched)
        assert worst_oracle < 2.0


def test_acceptance_6_case_study_distance_anchor():
    with criterion(6, "case-study distance anchor 32.30"):
        inst = load_case_study(bundled_case_study_dir())
        customers = inst.customers()
        matrix_best = min(
            sum(inst.arc(a, b).distance
                for a, b in zip((0, *perm), (*perm, 0)))
            for perm in itertools.permutations(customers))
        for hour in range(24):
            val = enumerate_routes(inst, "distance",
                                   dispatch=float(hour)).value
            assert abs(val - matrix_best) <= 1e-9
            assert round(val, 2) == 32.30


def test_acceptance_7_benchmark_regression_bounds():
    with criterion(7, "R101 distance lands between optimum and 1.35x"):
        inst = load_solomon("R101")
        for seed in (0, 1, 2):
            config = SolverConfig(objective="distance", seed=seed)
            started = time.perf_counter()
            res = solve(inst, config)
            elapsed = time.perf_counter() - started
            assert elapsed <= 600.0
            assert res.feasible
            assert 1645.7 <= res.value <= 1.35 * 1645.7
            assert not check_feasibility(res.solution, inst)


def test_acceptance_8_solver_internal_properties():
    with criterion(8, "solver internals: FIFO, subtours, moves, cooling"):
        rng = random.Random(808)

        # departure order is preserved along any arc
        for _ in range(100):
            speeds = TimeProfile(tuple(rng.uniform(5.0, 70.0)
                                       for _ in range(24)))
            arc = Arc(0, 1, rng.uniform(0.5, 80.0), speeds,
                      TimeProfile.constant(1.0),
                      TimeProfile.constant(1e-4))
            for _ in range(50):
                t1 = rng.uniform(0.0, 40.0)
                t2 = t1 + rng.uniform(1e-6, 10.0)
                assert t1 + travel_time(arc, t1) \
                    <= t2 + travel_time(arc, t2) + 1e-9

        # accepted solutions visit every customer exactly once
        for trial in range(3):
            inst = build_instance(
                [{"x": rng.uniform(-8, 8), "y": rng.uniform(-8, 8),
                  "demand": rng.randint(5, 15), "service": 0.05}
                 for _ in range(6)],
                fleet=(3, 200.0))
            res = solve(inst, SolverConfig(seed=trial, m=2))
            assert res.feasible
            visits = Counter(n for r in res.solution.routes for n in r)
            assert visits == Counter({c: 1 for c in inst.customers()})
            assert all(a >= b - 1e-15
                       for a, b in zip(res.history, res.history[1:]))

        # swap and reversion are involutions
        for _ in range(200):
            routes = []
            pool = list(range(1, 9))
            rng.shuffle(pool)
            cut = rng.randint(1, 7)
            routes = (tuple(pool[:cut]), tuple(pool[cut:]))
            sol = RoutingSolution(routes)
            ra = rng.randrange(2)
            if not sol.routes[ra]:
                continue
            ia = rng.randrange(len(sol.routes[ra]))
            rb = rng.randrange(2)
            if not sol.routes[rb]:
                continue
            ib = rng.randrange(len(sol.routes[rb]))
            if ra == rb and ia == ib:
                continue
            if ra == rb:
                ia, ib = min(ia, ib), max(ia, ib)
            move = Move("swap", (ra, ia, rb, ib, 1))
            assert apply_move(apply_move(sol, move), move).routes \
                == sol.routes
            if len(sol.routes[ra]) >= 2:
                j = rng.randrange(1, len(sol.routes[ra]))
                rev = Move("reversion", (ra, 0, j))
                assert apply_move(apply_move(sol, rev), rev).routes \
                    == sol.routes

        # lateral-or-better moves follow the Boltzmann curve
        mc = random.Random(0)
        hits = sum(acceptance(1.0, 1.0, mc) for _ in range(100_000))
        assert abs(hits / 100_000 - math.exp(-1)) < 0.01

        # geometric cooling ends exactly at the final temperature
        assert abs(10.0 * cooling_factor(10.0, 0.01, 10) ** 10 - 0.01) \
            <= 1e-12
        for _ in range(200):
            t0 = rng.uniform(0.5, 50.0)
            tf = t0 * rng.uniform(1e-4, 0.99)
            n = rng.randint(1, 40)
            assert abs(t0 * cooling_factor(t0, tf, n) ** n - tf) <= 1e-12


def test_acceptance_9_cli_byte_determinism(tmp_path):
    with criterion(9, "CLI reruns are byte-identical per seed"):
        case = str(bundled_case_study_dir())
        flows = str(bundled_case_study_dir() / "flows.csv")
        nominal = str(bundled_case_study_dir() / "nominal_speeds.csv")
        invocations = [
            ["speeds", "--flows", flows, "--nominal", nominal],
            ["solve", "--instance", case, "--objective", "weighted",
             "--scenario", "8", "--seed", "5"],
            ["verify", "--instance", case, "--objective", "tti",
             "--scenario", "11", "--seed", "3"],
            ["generate", "--size", "10", "--seed", "12"],
        ]
        for idx, args in enumerate(invocations):
            first = tmp_path / f"first{idx}.out"
            second = tmp_path / f"second{idx}.out"
            assert cli_main([*args, "--out", str(first)]) == 0
            assert cli_main([*args, "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
            assert first.read_bytes()  # never an empty artifact
