"""Shared instance builders for the test suite."""

from __future__ import annotations

import math
from dataclasses import replace

from saferoute.model import (
    Arc,
    Fleet,
    Instance,
    Node,
    TimeProfile,
    augment_depot,
)


def build_instance(
    customers: list[dict],
    *,
    name: str = "test",
    fleet: tuple[int, float] = (2, 100.0),
    latest: float = 24.0,
    depot_window: tuple[float, float] = (0.0, 24.0),
    speed: float | TimeProfile = 30.0,
    tti: float | TimeProfile = 1.0,
    crash: float | TimeProfile = 0.01,
    arc_overrides: dict | None = None,
    dummy_count: int = 0,
) -> Instance:
    """Dense Euclidean instance from terse customer dicts.

    Each customer dict may set x, y, demand, service, open, close.
    ``arc_overrides`` maps (tail, head) to a dict overriding distance,
    speed, tti or crash for that one arc.
    """
    def as_profile(v):
        return v if isinstance(v, TimeProfile) else TimeProfile.constant(float(v))

    nodes = [Node(0, 0.0, 0.0, 0.0, 0.0, depot_window[0], depot_window[1])]
    for i, spec in enumerate(customers, start=1):
        nodes.append(Node(
            i,
            float(spec.get("x", i)),
            float(spec.get("y", 0.0)),
            float(spec.get("demand", 10.0)),
            float(spec.get("service", 0.1)),
            float(spec.get("open", 0.0)),
            float(spec.get("close", latest)),
        ))
    overrides = arc_overrides or {}
    arcs = {}
    for a in nodes:
        for b in nodes:
            if a.id == b.id:
                continue
            spec = overrides.get((a.id, b.id), {})
            dist = spec.get("distance",
                            math.hypot(a.x - b.x, a.y - b.y) or 1.0)
            arcs[(a.id, b.id)] = Arc(
                a.id, b.id, dist,
                as_profile(spec.get("speed", speed)),
                as_profile(spec.get("tti", tti)),
                as_profile(spec.get("crash", crash)),
            )
    return Instance(name, tuple(nodes), arcs, Fleet(*fleet), latest,
                    dummy_count=dummy_count)


def build_augmented(customers: list[dict], m: int = 0, **kwargs) -> Instance:
    return augment_depot(build_instance(customers, **kwargs), m)


def no_return_from_first() -> Instance:
    """Two customers on a line, one vehicle, and no arc from 1 to the depot."""
    base = build_instance([{"x": 1}, {"x": 2}], fleet=(1, 100.0))
    arcs = {key: arc for key, arc in base.arcs.items() if key != (1, 0)}
    return augment_depot(replace(base, arcs=arcs), 0)
