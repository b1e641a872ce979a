"""Write rnd_reference.json: best rnd-rush values at a 27x evaluation budget.

Run from the repository root:

    python3 perfbench/make_reference.py

For every rnd-rush scenario (generated RND25/50/80 at hours 7, 12 and
17, generator seed 0, weighted objective) it solves with solver seeds
0, 1 and 2 at 27 times the default outer-iteration budget and records
the lowest feasible value (null when no seed finds a feasible plan).
The references are fixed numbers, independent of the solver under test;
regenerate them only when the generator or the objective changes on
purpose, and say so where that change is described.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from saferoute import ensure_augmented, generate_instance, solve  # noqa: E402
from saferoute.solver import SolverConfig  # noqa: E402

from workloads import (RND_HOURS, RND_SIZES, REFERENCE_FILE, RndRush,  # noqa: E402
                       instance_fingerprint)

BUDGET_FACTOR = 27
SOLVER_SEEDS = (0, 1, 2)


def main() -> None:
    outer = BUDGET_FACTOR * SolverConfig().max_outer_iterations
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH_DIR,
                            capture_output=True, text=True).stdout.strip()
    out = {
        "about": ("lowest feasible weighted value over solver seeds "
                  f"{list(SOLVER_SEEDS)} at max_outer_iterations={outer}; "
                  "written by perfbench/make_reference.py"),
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "instances": {},
    }
    for size in RND_SIZES:
        instance = ensure_augmented(generate_instance(size,
                                                      RndRush.generator_seed))
        best, evaluations = {}, {}
        for hour in RND_HOURS:
            values, evals = [], []
            for seed in SOLVER_SEEDS:
                started = time.perf_counter()
                result = solve(instance, SolverConfig(
                    seed=seed, max_outer_iterations=outer), float(hour))
                print(f"{instance.name} hour {hour} seed {seed}: "
                      f"{result.value!r} after {result.evaluations} "
                      f"evaluations, {time.perf_counter() - started:.1f} s",
                      flush=True)
                evals.append(result.evaluations)
                if result.feasible:
                    values.append(result.value)
            best[str(hour)] = min(values) if values else None
            evaluations[str(hour)] = evals
        out["instances"][instance.name] = {
            "fingerprint": instance_fingerprint(instance),
            "best": best,
            "evaluations": evaluations,
        }
    REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
