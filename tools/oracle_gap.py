"""The solver against enumeration on the Tier-1 oracle matrix, case by case.

Run from the repository root:

    PYTHONPATH=src python tools/oracle_gap.py

The matrix is the Tier-1 oracle matrix
(``tests/test_oracle.py::test_solver_reaches_the_enumerated_optimum_on_the_oracle_matrix``):
``generate_instance(5, g, fleet_count=2)`` for g = 0-9, every
objective, dispatch hour 7 and the default ``SolverConfig``.  Each
optimum comes from ``oracle.enumerate_routes`` with the solver's grid
and weights, over 360 candidates a case, so the 50 cases take about
1.4 s (one core of a 2-vCPU host, Python 3.11).  The test counts the
matches; this tool names each case.

It prints one line per solve, ``match`` or ``miss`` with the value
found, the optimum and the gap, then how many of the solves reach the
optimum within 1e-9.  It is a report, not a check: it exits 0 whatever
the count.  Standard library only.
"""

from __future__ import annotations

import time

from saferoute import (
    OBJECTIVES,
    SolverConfig,
    enumerate_routes,
    generate_instance,
    solve,
)

GENERATOR_SEEDS = range(10)
CUSTOMERS = 5
FLEET = 2
DISPATCH = 7.0
#: A solve within this of the optimum matches it.
MATCH = 1e-9


def matrix():
    """Yield (label, instance, objective) for every case."""
    for g in GENERATOR_SEEDS:
        instance = generate_instance(CUSTOMERS, g, fleet_count=FLEET)
        for objective in OBJECTIVES:
            yield f"g={g} {objective}", instance, objective


def main() -> int:
    started = time.perf_counter()
    matches = cases = 0
    for label, instance, objective in matrix():
        config = SolverConfig(objective=objective)
        optimum = enumerate_routes(
            instance, objective, dispatch=DISPATCH, weights=config.weights,
            schedule_m=config.m).value
        found = solve(instance, config, DISPATCH).value
        gap = found - optimum
        hit = abs(gap) <= MATCH
        cases += 1
        matches += hit
        print(f"{'match' if hit else 'miss'} {label}: {found!r} against "
              f"{optimum!r}, gap {gap:.6g}", flush=True)
    print(f"{matches} of {cases} reach the optimum "
          f"({time.perf_counter() - started:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
