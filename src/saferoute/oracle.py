"""Ground-truth solvers by exhaustive enumeration.

Small instances can be solved exactly: every split of the customers
over the fleet and every visit order is generated and scored by the
solver's own ``evaluate``, and the best feasible candidates are kept.  The same
idea verifies the retiming phase by walking every path of the schedule
graph.  Both enumerations refuse to run past an explicit candidate
budget rather than return a silently truncated answer, which keeps
them trustworthy as test anchors.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

from .model import Instance
from .phase1 import ObjectiveWeights, RoutingSolution
from .phase2 import build_schedule_graph
from .solver import SolverConfig, evaluate

TIE_EPS = 1e-12

DEFAULT_CUSTOMER_CAP = 8


class OracleError(ValueError):
    """Enumeration could not produce a trustworthy answer."""


class OracleSizeError(OracleError):
    """Instance exceeds the enumeration size cap."""


class OracleBudgetError(OracleError):
    """Candidate budget exhausted before the search space was covered."""

    def __init__(self, message: str, enumerated: int) -> None:
        super().__init__(message)
        self.enumerated = enumerated


class OracleInfeasibleError(OracleError):
    """Every candidate violated some constraint."""


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one exhaustive run.

    ``solutions`` holds every optimum within the tie tolerance: timed
    RoutingSolutions for route enumeration, service-start tuples for
    schedule enumeration.
    """

    objective: str
    value: float
    solutions: tuple
    enumerated: int
    elapsed: float


def _partitions(items: tuple[int, ...], max_blocks: int):
    """Yield set partitions of ``items`` into at most ``max_blocks`` blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest, max_blocks):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        if len(part) < max_blocks:
            yield part + [[first]]


def enumerate_routes(instance: Instance, objective: str, *,
                     dispatch: float = 0.0,
                     weights: ObjectiveWeights | None = None,
                     schedule_m: int = SolverConfig().m,
                     budget: int = 2_000_000,
                     max_customers: int = DEFAULT_CUSTOMER_CAP) -> OracleResult:
    """Exact routing optimum by full enumeration.

    Every partition of the customers over at most ``fleet.count``
    vehicles is expanded into all visit orders, and each candidate, an
    ordered partition, is scored once by ``solver.evaluate``, the call
    ``solve`` makes: timed with immediate departures, audited, retimed
    on a ``schedule_m``-point grid (but for distance, which retiming
    cannot change) and measured.  A
    candidate that is infeasible, or drives a missing arc, is skipped.
    No route record is shared between candidates, so the oracle stays
    an independent check of the solver's.

    Raises:
        OracleSizeError: more than ``max_customers`` customers.
        OracleBudgetError: candidate count exceeded ``budget``.
        OracleInfeasibleError: nothing satisfied the constraints.
    """
    started = time.perf_counter()
    customers = instance.customers()
    if len(customers) > max_customers:
        raise OracleSizeError(
            f"{len(customers)} customers exceed the enumeration cap "
            f"{max_customers}")
    config = SolverConfig(objective=objective, m=schedule_m)
    weights = (weights or ObjectiveWeights()).resolved(instance)

    capacity = instance.fleet.capacity
    demand = {c: instance.node(c).demand for c in customers}
    best = math.inf
    optima: list[RoutingSolution] = []
    enumerated = 0

    for part in _partitions(customers, instance.fleet.count):
        if any(sum(demand[c] for c in block) > capacity for block in part):
            continue  # capacity is order-independent, prune the whole block
        for ordered in itertools.product(
                *(itertools.permutations(block) for block in part)):
            enumerated += 1
            if enumerated > budget:
                raise OracleBudgetError(
                    f"enumeration budget {budget} exhausted", budget)
            scored = evaluate(ordered, instance, config, dispatch, weights)
            if not scored.feasible:
                continue
            if scored.value < best - TIE_EPS:
                best, optima = scored.value, [scored.solution]
            elif scored.value <= best + TIE_EPS:
                best = min(best, scored.value)
                optima.append(scored.solution)

    if not optima:
        raise OracleInfeasibleError(
            f"no feasible solution among {enumerated} candidates")
    return OracleResult(objective, best, tuple(optima), enumerated,
                        time.perf_counter() - started)


def enumerate_schedules(route: tuple[int, ...], instance: Instance, m: int, *,
                        dispatch: float = 0.0,
                        weights: ObjectiveWeights | None = None,
                        objective: str = "weighted",
                        budget: int = 1_000_000) -> OracleResult:
    """Exact retiming optimum by walking every schedule-graph path.

    Raises:
        OracleBudgetError: the grid admits more paths than ``budget``.
        ScheduleInfeasibleError: the route has no valid schedule, the
            same error the DP raises.
    """
    started = time.perf_counter()
    graph = build_schedule_graph(route, instance, dispatch, m, weights,
                                 objective)
    bound = graph.path_count_bound()
    if bound > budget:
        raise OracleBudgetError(
            f"up to {bound} schedule paths exceed the budget {budget}", 0)

    succ: list[dict[int, list[tuple[int, float]]]] = []
    for layer in graph.edges:
        adj: dict[int, list[tuple[int, float]]] = {}
        for i, j, cost in layer:
            adj.setdefault(i, []).append((j, cost))
        succ.append(adj)

    last = len(graph.times) - 1
    best = math.inf
    optima: list[tuple[float, ...]] = []
    enumerated = 0
    stack = [(0, 0, 0.0, ())]
    while stack:
        pos, idx, acc, starts = stack.pop()
        if pos == last:
            for i, cost in graph.sink_edges:
                if i != idx:
                    continue
                enumerated += 1
                total = acc + cost
                if total < best - TIE_EPS:
                    best = min(best, total)
                    optima = [starts]
                elif total <= best + TIE_EPS:
                    best = min(best, total)
                    optima.append(starts)
            continue
        for j, cost in succ[pos + 1].get(idx, ()):
            stack.append((pos + 1, j, acc + cost,
                          starts + (graph.times[pos + 1][j],)))

    if not optima:
        raise OracleInfeasibleError(
            f"no complete schedule path among {enumerated} partial paths")
    return OracleResult(objective, best, tuple(optima), enumerated,
                        time.perf_counter() - started)
