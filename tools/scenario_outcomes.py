"""What `solve` returns on the generated scenario matrix, scenario by scenario.

Run from the repository root:

    PYTHONPATH=src python tools/scenario_outcomes.py

The matrix is ``generate_instance(n, g)`` for n = 25, 50, 80 and
generator seeds g = 0-9, each solved at dispatch hours 7, 12 and 17
under ``weighted`` with the default ``SolverConfig``: 90 scenarios,
about 8 s on one core of a 2-vCPU host (Python 3.11).

It prints one line per scenario: ``feasible`` or ``inf``, the value,
the fleet size, the demand bound ceil(sum d / Q) (total demand over
vehicle capacity, rounded up) and how many customers' one-stop routes
fail their audit at that hour.  A scenario is marked ``certified``
when either proves it cannot be served: the demand bound exceeds the
fleet, or some customer cannot be served even alone.  ``solve``
searches only from a feasible start, so every ``inf`` is a repair that
gave up, and an uncertified one was never shown unservable.  A last line
counts the ``inf`` scenarios per size and the certified ones.  It is
a report, not a check: it exits 0 whatever the counts.  Standard
library only.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

from saferoute import Instance, SolverConfig, generate_instance, solve
from saferoute.phase1 import time_route

SIZES = (25, 50, 80)
GENERATOR_SEEDS = range(10)
HOURS = (7.0, 12.0, 17.0)


class Outcome(NamedTuple):
    """One scenario's solve and its two cheap infeasibility certificates."""

    feasible: bool
    value: float
    fleet: int
    demand_bound: int
    lone_failures: int

    @property
    def certified(self) -> bool:
        return self.demand_bound > self.fleet or self.lone_failures > 0


def outcome(instance: Instance, dispatch: float) -> Outcome:
    """Solve one scenario under the default config and certify it."""
    result = solve(instance, SolverConfig(), dispatch)
    customers = instance.customers()
    demand = sum(instance.node(c).demand for c in customers)
    return Outcome(
        result.feasible, result.value, instance.fleet.count,
        math.ceil(demand / instance.fleet.capacity),
        sum(bool(time_route((c,), instance, dispatch).violations)
            for c in customers))


def main() -> int:
    started = time.perf_counter()
    infeasible = {}
    certified = total = 0
    for n in SIZES:
        infeasible[n] = 0
        for g in GENERATOR_SEEDS:
            instance = generate_instance(n, g)
            for hour in HOURS:
                r = outcome(instance, hour)
                total += 1
                infeasible[n] += not r.feasible
                certified += r.certified
                print(f"{'feasible' if r.feasible else 'inf'} RND{n} g={g} "
                      f"h={hour:g}: value {r.value!r}, fleet {r.fleet}, "
                      f"ceil(sum d/Q) {r.demand_bound}, "
                      f"{r.lone_failures} one-stop failures"
                      f"{', certified' if r.certified else ''}", flush=True)
    per_size = ", ".join(f"RND{n} {k}/{len(GENERATOR_SEEDS) * len(HOURS)}"
                         for n, k in infeasible.items())
    print(f"{sum(infeasible.values())} of {total} inf ({per_size}), "
          f"{certified} certified ({time.perf_counter() - started:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
