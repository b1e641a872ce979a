"""Independent re-derivations used to pin expected values in tests.

Each helper deliberately takes a different computational route than
the library code it checks, so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import math


def euler_travel_time(distance: float, speeds: list[float], depart: float,
                      dt: float = 1e-4) -> float:
    """Traverse by brute-force time stepping at the hourly speeds."""
    t = depart
    covered = 0.0
    while covered < distance:
        v = speeds[int(t) % 24]
        covered += v * dt
        t += dt
    return t - depart


def quadratic_roots(a: float, b: float, c: float) -> tuple[float, float]:
    """Textbook quadratic formula, sorted ascending."""
    disc = b * b - 4 * a * c
    if disc < 0:
        raise ValueError("negative discriminant")
    r1 = (-b - math.sqrt(disc)) / (2 * a)
    r2 = (-b + math.sqrt(disc)) / (2 * a)
    return (min(r1, r2), max(r1, r2))


def golden_section_max(fn, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Maximum of a unimodal function on [lo, hi] by golden-section search."""
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    while abs(b - a) > tol:
        if fn(c) > fn(d):
            b = d
        else:
            a = c
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
    return fn((a + b) / 2)
