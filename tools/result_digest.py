"""One SHA-256 over the results of a fixed matrix of solves.

Two checkouts that print the same digest returned the same value,
solution (routes and timings), incumbent history, evaluation count and
feasibility flag on every solve of the matrix; only ``elapsed`` is left
out.  A route timing is hashed by its depot departure, initial load,
stops and return arrival, the fields every version of
``phase1.RouteTiming`` has; what a timing walk also records (leg
readings, audit verdict) follows from those and would change the
``repr`` without changing any result.  Retiming schedules are not
hashed: a schedule's service starts are its route's recorded starts
and its cost the ``leg_cost`` sum of the recorded legs, so the timings
already hold everything a schedule says.
Use it to show that a change which is meant to alter speed alone left
every result bit-identical.

The package is imported from ``sys.path``, so point ``PYTHONPATH`` at
the checkout to digest:

    PYTHONPATH=src python tools/result_digest.py
    PYTHONPATH=/path/to/other/checkout/src python tools/result_digest.py

``--expect HEX`` turns the run into a check: it exits 1, printing the
expected and the computed digest, when they differ.

The matrix (150 solves, stdlib only):

* the bundled case study at dispatch hours 0-23 under weighted, time,
  crash, tti and distance, solver seed = hour;
* RND25/50/80 (generator seed 0) at hours 7, 12 and 17 under weighted,
  distance and time, solver seed 0;
* Solomon R101 by distance at dispatch 0, solver seeds 0, 1 and 2.
"""

from __future__ import annotations

import argparse
import hashlib

from saferoute import (
    SolverConfig,
    bundled_case_study_dir,
    generate_instance,
    load_case_study,
    load_solomon,
    solve,
)

CASE_STUDY_OBJECTIVES = ("weighted", "time", "crash", "tti", "distance")
RND_SIZES = (25, 50, 80)
RND_HOURS = (7, 12, 17)
RND_OBJECTIVES = ("weighted", "distance", "time")


def matrix():
    """Yield (label, instance, config, dispatch) for every solve."""
    case = load_case_study(bundled_case_study_dir())
    for hour in range(24):
        for objective in CASE_STUDY_OBJECTIVES:
            yield (f"case h{hour} {objective}", case,
                   SolverConfig(objective=objective, seed=hour), float(hour))
    for size in RND_SIZES:
        instance = generate_instance(size, 0)
        for hour in RND_HOURS:
            for objective in RND_OBJECTIVES:
                yield (f"RND{size} h{hour} {objective}", instance,
                       SolverConfig(objective=objective, seed=0), float(hour))
    r101 = load_solomon("R101")
    for seed in range(3):
        yield (f"R101 seed {seed} distance", r101,
               SolverConfig(objective="distance", seed=seed), 0.0)


def timing_record(timing) -> tuple:
    """The times and loads of one timed route."""
    return (timing.depot_departure, timing.initial_load, timing.stops,
            timing.return_arrival)


def result_record(result) -> str:
    """Everything a solve returns except its wall time."""
    solution = result.solution
    timings = None if solution.timings is None \
        else tuple(timing_record(t) for t in solution.timings)
    return repr((result.value, solution.routes, solution.dispatch, timings,
                 result.history, result.evaluations, result.feasible))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true",
                        help="also print one line per solve")
    parser.add_argument("--expect", metavar="HEX",
                        help="exit 1 unless the digest equals HEX")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    count = 0
    for label, instance, config, dispatch in matrix():
        record = result_record(solve(instance, config, dispatch))
        digest.update(record.encode())
        count += 1
        if args.verbose:
            print(label, hashlib.sha256(record.encode()).hexdigest()[:12])
    print(f"{digest.hexdigest()}  ({count} solves)")
    if args.expect is not None and args.expect != digest.hexdigest():
        print(f"mismatch: expected {args.expect}\n"
              f"          computed {digest.hexdigest()}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
