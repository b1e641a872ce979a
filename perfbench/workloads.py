"""The benchmark's workloads: set-up, operations, references and checks.

An operation is one call to ``saferoute.solve``.  A *pass* is the list
of operations a workload makes with one solver seed; the benchmark runs
whole passes, each with the next solver seed, so a run averages over
several search paths.  A workload whose seeds repeat every ``cycle``
passes is run in whole cycles.  Only casestudy-sweep derives its solver
seeds from the workload seed: on r101-distance and rnd-rush the work a
solve does depends so much on its seed that the few solves a run fits
left the run-to-run spread above any usable bound (see their
docstrings).

Set-up calls the package through module attributes (``instances.x``,
``queueing.x``) so that the tracing wrappers, which are installed on
those modules, see it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from saferoute import instances, model, oracle, queueing
from saferoute.phase1 import check_feasibility, objective_value
from saferoute.solver import SolverConfig

#: Objectives of one ``saferoute solve --all-scenarios`` hour, in the
#: order cmd_solve runs them: the chosen objective, then its baselines.
SWEEP_OBJECTIVES = ("weighted", "time", "crash", "distance")

#: Best known R101 distance, the lower bound acceptance criterion 7 uses.
R101_BEST_KNOWN = 1645.7

RND_SIZES = (25, 50, 80)
RND_HOURS = (7, 12, 17)
REFERENCE_FILE = Path(__file__).resolve().parent / "rnd_reference.json"


@dataclass(frozen=True)
class Operation:
    """One solve call and what its result is judged against."""

    instance: model.Instance
    config: SolverConfig
    dispatch: float
    reference: float | None     # value that makes cost_gap 0
    floor: float | None = None  # proven optimum; nothing may beat it

    @property
    def key(self) -> tuple:
        return (self.instance.name, self.dispatch, self.config.objective,
                self.config.seed)


def check(op: Operation, result) -> str | None:
    """Why the result is wrong, or None.  Runs outside the timed region."""
    if result.objective != op.config.objective:
        return f"objective {result.objective!r} != {op.config.objective!r}"
    if result.evaluations < 1:
        return "no evaluation counted"
    if not result.feasible:
        return None if result.value == math.inf \
            else f"infeasible result carries value {result.value!r}"
    if not math.isfinite(result.value):
        return f"feasible result carries value {result.value!r}"
    violations = check_feasibility(result.solution, op.instance)
    if violations:
        return f"audit of the returned plan: {violations[0]}"
    weights = op.config.weights.resolved(op.instance)
    recomputed = objective_value(op.config.objective, result.solution,
                                 op.instance, weights)
    if recomputed != result.value:
        return f"value {result.value!r} != recomputed {recomputed!r}"
    if op.floor is not None and result.value < op.floor - 1e-9:
        return f"value {result.value!r} beats the proven optimum {op.floor!r}"
    return None


def cost_gap(op: Operation, result) -> float:
    """min(1, (value - ref) / ref); 1 when infeasible, 0 without a ref."""
    if not result.feasible:
        return 1.0
    if op.reference is None:
        return 0.0
    return min(1.0, (result.value - op.reference) / op.reference)


# -- casestudy-sweep ----------------------------------------------------


class CaseStudySweep:
    """The bundled case study at all 24 hours under four objectives."""

    name = "casestudy-sweep"
    setup_repeats = 300
    cycle = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.instance = None
        self.optima: dict[tuple[int, str], float] = {}

    def setup(self):
        directory = instances.bundled_case_study_dir()
        instance = instances.load_case_study(directory)
        flows = queueing.read_flow_table(str(directory / "flows.csv"))
        nominal = queueing.read_nominal_speeds(
            str(directory / "nominal_speeds.csv"))
        profiles = {arc: queueing.build_speed_profile(
                        queueing.calibrate(series, nominal[arc]), series)
                    for arc, series in flows.items()}
        return instance, profiles

    def check_setup(self, built) -> str | None:
        instance, profiles = built
        for arc, profile in profiles.items():
            if instance.arc(*arc).speed.values != profile.values:
                return f"speed profile of arc {arc} not rebuilt from its counts"
        return None

    def prepare(self, built) -> None:
        """Exact optimum of every (hour, objective): the solver's m and
        resolved weights, which do not depend on the solver seed."""
        self.instance, _ = built
        base = SolverConfig()
        weights = base.weights.resolved(self.instance)
        for hour in range(24):
            for objective in SWEEP_OBJECTIVES:
                self.optima[hour, objective] = oracle.enumerate_routes(
                    self.instance, objective, dispatch=float(hour),
                    weights=weights, schedule_m=base.m).value

    def pass_ops(self, pass_index: int) -> list[Operation]:
        # workload seed w starts at solver seed 1000 * w
        base = SolverConfig(seed=1000 * self.seed + pass_index)
        return [Operation(self.instance, replace(base, objective=objective),
                          float(hour), self.optima[hour, objective],
                          self.optima[hour, objective])
                for hour in range(24) for objective in SWEEP_OBJECTIVES]


# -- r101-distance ------------------------------------------------------


class R101Distance:
    """Solomon R101 by distance at dispatch 0, one solve a pass.

    Pass ``i`` solves with seed ``i % 3`` whatever the workload seed: the
    seeds 0, 1 and 2 that acceptance criterion 7 runs, each as often as
    the others.  A run fits six to nine solves, and the evaluation count
    of one solve ranges from 52 to 157 over seeds 0-6 while its time
    barely moves, so seed-derived solver seeds made ``evals_per_s`` differ
    by 23% (quartile spread over five workload seeds) between runs of the
    same code, and seeds 0, 1, ... up to however many solves fitted still
    left 12%.
    """

    name = "r101-distance"
    setup_repeats = 10
    cycle = 3

    def __init__(self, seed: int) -> None:
        self.instance = None

    def setup(self):
        return model.ensure_augmented(instances.load_solomon("R101"))

    def check_setup(self, built) -> str | None:
        customers = len(built.customers())
        return None if customers == 100 else f"R101 has {customers} customers"

    def prepare(self, built) -> None:
        self.instance = built

    def pass_ops(self, pass_index: int) -> list[Operation]:
        config = SolverConfig(objective="distance",
                              seed=pass_index % self.cycle)
        return [Operation(self.instance, config, 0.0, R101_BEST_KNOWN)]


# -- rnd-rush -----------------------------------------------------------


def instance_fingerprint(instance: model.Instance) -> list:
    """Cheap identity of a generated instance, to catch generator drift."""
    return [len(instance.nodes), instance.fleet.count, instance.fleet.capacity,
            round(sum(a.distance for a in instance.arcs.values()), 6),
            round(sum(sum(a.speed.values) for a in instance.arcs.values()), 6)]


class RndRush:
    """RND25/50/80 at hours 7, 12 and 17 under the weighted objective.

    Neither the instances nor the solver seeds follow the workload seed:
    pass ``i`` solves generator seed 0's instances with solver seed
    ``i % 3``, the seeds the references were made with, each as often as
    the others.  Across generator seeds 0-8 the feasible share swings
    between 3/9 and 7/9, and the median solve time with it.  With
    seed-derived solver seeds (about five a run) the quartile spread over
    ten workload seeds was 0.25 of the median for ``solve_p50_s`` and 0.20
    for ``evals_per_s``; the time of the RND50 hour-17 solve alone doubles
    between some seeds.  Seeds 0, 1, ... up to however many passes fitted
    (four to six) still left 0.075 on ``solve_p50_s`` at reference speed,
    0.046 over the passes all five runs shared.
    """

    name = "rnd-rush"
    setup_repeats = 3
    cycle = 3
    generator_seed = 0

    def __init__(self, seed: int) -> None:
        self.reference = json.loads(REFERENCE_FILE.read_text())
        self.scenarios: list[tuple[model.Instance, float, float | None]] = []

    def setup(self):
        return {size: model.ensure_augmented(
                    instances.generate_instance(size, self.generator_seed))
                for size in RND_SIZES}

    def check_setup(self, built) -> str | None:
        for size, instance in built.items():
            entry = self.reference["instances"].get(instance.name)
            if entry is None:
                return f"no reference values for {instance.name}"
            if entry["fingerprint"] != instance_fingerprint(instance):
                return f"{instance.name} differs from the referenced instance"
        return None

    def prepare(self, built) -> None:
        for size in RND_SIZES:
            instance = built[size]
            best = self.reference["instances"][instance.name]["best"]
            for hour in RND_HOURS:
                self.scenarios.append((instance, float(hour), best[str(hour)]))

    def pass_ops(self, pass_index: int) -> list[Operation]:
        config = SolverConfig(seed=pass_index % self.cycle)
        return [Operation(instance, config, hour, best)
                for instance, hour, best in self.scenarios]


WORKLOADS = {w.name: w for w in (CaseStudySweep, R101Distance, RndRush)}
