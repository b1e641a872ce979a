"""Regenerate the bundled four-node case-study CSVs.

Run from the repository root:

    python3 tools/build_case_study.py

The script invents nothing at run time: every stream is seeded, so the
output is reproducible byte for byte.  Hourly vehicle counts per arc
feed the package's own queueing pipeline (calibrate + speed roots) to
produce the speed profiles; congestion and risk profiles are noisy
three-level step functions.  Before writing, the script asserts that
the single vehicle can serve all three customers inside their windows
for every one of the 24 dispatch hours and that the shortest tour by
distance is the expected 32.3009 miles.
"""

from __future__ import annotations

import csv
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from saferoute.instances import generate_profiles, load_case_study
from saferoute.phase1 import (check_feasibility, objective_value,
                              propagate_schedule)
from saferoute.queueing import FlowSeries, build_speed_profile, calibrate

OUT = Path(__file__).resolve().parents[1] / "src" / "saferoute" / "data" / "case_study"

NOMINAL_SPEED = 48.0
MASTER_SEED = 20260816

# miles; symmetric, chosen so 0-1-2-3-0 (and its reverse) is the
# unique shortest tour at 32.3009 miles
DISTANCES = {
    (0, 1): 6.8009, (1, 2): 6.9, (2, 3): 9.1, (0, 3): 9.5,
    (0, 2): 11.8, (1, 3): 12.6,
}

NODES = [
    # id, x, y, demand, service, open, close
    (0, 0.0, 0.0, 0.0, 0.0, 0.0, 23.0),
    (1, 6.3, 2.6, 100.0, 0.1, 0.0, 1.3),
    (2, 9.8, 8.6, 120.0, 0.1, 0.0, 1.3),
    (3, 2.4, 9.2, 80.0, 0.1, 0.0, 1.3),
]

META = {
    "name": "four-node-delivery",
    "vehicles": "1",
    "capacity": "300.0",
    "latest": "23.0",
}

TTI_LEVELS = (1.08, 1.4, 1.85)
CRASH_LEVELS = (1.5e-4, 3e-4, 8e-4)
PROFILE_NOISE = 0.08

# fractions of capacity; hours 6-8 and 17 run essentially at capacity,
# which puts them just above the congestion quantile and keeps the low
# speed root near nominal/2 so the day stays driveable
PEAK_FRACTIONS = {6: 0.995, 7: 1.0, 8: 0.998, 17: 0.992}


def hourly_fractions(arc_index: int) -> list[float]:
    out = []
    for h in range(24):
        if h in PEAK_FRACTIONS:
            f = PEAK_FRACTIONS[h]
        elif h < 6:
            f = 0.22 + 0.01 * (arc_index % 4)
        elif h < 15:
            f = 0.55 + 0.015 * (arc_index % 5)
        elif h < 19:
            f = 0.62 + 0.01 * (arc_index % 3)
        else:
            f = 0.38 + 0.012 * (arc_index % 4)
        out.append(f)
    return out


def directed_arcs() -> list[tuple[int, int]]:
    arcs = []
    for (i, j) in sorted(DISTANCES):
        arcs.append((i, j))
        arcs.append((j, i))
    return arcs


def build() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    arcs = directed_arcs()
    flows = {}
    for idx, (i, j) in enumerate(arcs):
        # capacity = s0 * kj / 4; anchoring the peak at capacity makes
        # calibrate() recover kj exactly
        cap = 2400.0
        flows[(i, j)] = FlowSeries(tuple(round(f * cap, 6)
                                         for f in hourly_fractions(idx)))

    speed_profiles = {}
    for (i, j), series in flows.items():
        model = calibrate(series, NOMINAL_SPEED)
        speed_profiles[(i, j)] = build_speed_profile(model, series)

    import random
    rng = random.Random(MASTER_SEED)
    tti_profiles = {}
    crash_profiles = {}
    for (i, j) in arcs:
        tti_profiles[(i, j)] = generate_profiles(
            TTI_LEVELS, "tti", PROFILE_NOISE, rng.getrandbits(32))
        crash_profiles[(i, j)] = generate_profiles(
            CRASH_LEVELS, "crash", PROFILE_NOISE, rng.getrandbits(32))

    with (OUT / "meta.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["key", "value"])
        for k, v in META.items():
            w.writerow([k, v])

    with (OUT / "nodes.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "x", "y", "demand", "service", "open", "close"])
        for row in NODES:
            w.writerow([row[0]] + [repr(float(v)) for v in row[1:]])

    with (OUT / "distances.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tail", "head", "miles"])
        for (i, j) in arcs:
            d = DISTANCES.get((i, j), DISTANCES.get((j, i)))
            w.writerow([i, j, repr(d)])

    with (OUT / "profiles.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tail", "head", "kind"] + [f"h{h}" for h in range(24)])
        for (i, j) in arcs:
            for kind, table in (("speed", speed_profiles),
                                ("tti", tti_profiles),
                                ("crash", crash_profiles)):
                w.writerow([i, j, kind] + [repr(v) for v in table[(i, j)].values])

    with (OUT / "flows.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tail", "head", "hour", "flow"])
        for (i, j) in arcs:
            for h, f in enumerate(flows[(i, j)].flows):
                w.writerow([i, j, h, repr(f)])

    with (OUT / "nominal_speeds.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tail", "head", "nominal_speed"])
        for (i, j) in arcs:
            w.writerow([i, j, repr(NOMINAL_SPEED)])

    verify()


def verify() -> None:
    instance = load_case_study(OUT)
    perms = list(itertools.permutations((1, 2, 3)))
    best = None
    for hour in range(24):
        feasible = []
        for perm in perms:
            sol = propagate_schedule((perm,), instance, float(hour))
            if not check_feasibility(sol, instance):
                feasible.append((objective_value("distance", sol, instance), perm))
        assert feasible, f"no feasible order at dispatch hour {hour}"
        low = min(feasible)[0]
        names = [p for d, p in feasible if abs(d - low) < 1e-9]
        assert any(p in ((1, 2, 3), (3, 2, 1)) for p in names), \
            f"hour {hour}: shortest feasible order is {names}"
        if best is None:
            best = low
        assert abs(low - best) < 1e-9, f"hour {hour}: optimum moved to {low}"
    assert abs(best - 32.3009) < 1e-9, best
    print(f"verified: all 24 dispatch hours feasible, shortest tour {best} mi")


if __name__ == "__main__":
    build()
