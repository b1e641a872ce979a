"""saferoute benchmark: solve latency, evaluation rate and plan quality.

Run from the repository root:

    python3 perfbench/run.py --workload casestudy-sweep --seed 0 \
        --seconds 40 --trace 0

``--workload all`` runs every workload in turn.  The loop is closed and
single-threaded: one caller, and the next ``saferoute.solve`` starts only
after the previous one returned and was checked.  Whole passes over the
workload's operations, each with its own solver seed (workloads.py), run
in whole cycles of solver seeds for about ``--seconds``.  Set-up and
solve times are reported scaled to a reference machine speed, measured
by a probe around and inside each operation (gauge.py); the wall times
are printed beside them.

With ``--trace 0`` the run reports the end-to-end metrics.  It first
makes the first pass untimed, so that caches inside the instances fill
before timing; the timed first pass repeats it and so checks that
identical inputs give identical results.  With ``--trace 1`` it makes
only the first pass, solving each operation untraced and then at once
again with the tracing wrappers installed (see tracing.py), so the
counts repeat exactly for a seed and the tracing overhead compares
neighbouring solves; its length is set by that pass, not by
``--seconds``.  The traced solves must reproduce the untraced results
bit for bit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same numbers for people.  Details of every operation (and the
spans of a traced run) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


def provenance(root: Path, seed: int) -> dict:
    """Where the numbers came from; the checkout may not be a git tree."""
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    package = root / "src" / "saferoute"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv", ".txt"):
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "workload_seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform()}


def tail_percentile(samples: list[float]):
    """Highest whole percentile with at least ten samples beyond it, if
    that lies above the median (21 samples or more)."""
    n = len(samples)
    if n < 21:
        return None
    ordered = sorted(samples)
    p = math.floor(100 * (n - 10) / n)
    while p > 0:
        rank = math.ceil(p * n / 100)   # nearest-rank percentile
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
        p -= 1
    return None


class Session:
    """Runs operations, checks them, and keeps what each one did."""

    def __init__(self, workloads_module, instrumentation) -> None:
        import saferoute
        self._solve = saferoute.solve
        self._w = workloads_module
        self._instr = instrumentation
        self._first: dict[tuple, tuple] = {}
        self.records: list[dict] = []

    def run(self, op, tracer=None, timed=True, gauge=None) -> dict:
        """One timed solve, then its checks; never lets a failure pass.
        With a ``gauge`` the record also gets the solve's time at reference
        speed, ``scaled``, and ``seconds`` is net of the probes inside."""
        error = None
        result = None
        if tracer is not None:
            tracer.op = len(self.records)
            self._instr.tracer = tracer
            tracer.begin("solver.solve")
        started = time.perf_counter()
        try:
            with gauge.during() if gauge else contextlib.nullcontext():
                result = self._solve(op.instance, op.config, op.dispatch)
        except Exception as exc:  # counted as a failed operation
            error = f"solve raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        scaled = None
        if gauge is not None:
            elapsed, scaled = gauge.charge(elapsed)
        if tracer is not None:
            tracer.end()
            self._instr.tracer = None
        if result is not None:
            try:
                error = self._w.check(op, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            seen = (result.value, result.feasible, result.solution.routes,
                    result.evaluations)
            first = self._first.setdefault(op.key, seen)
            if error is None and first != seen:
                error = "result differs from an identical earlier solve"
        feasible = result is not None and result.feasible and error is None
        record = {
            "key": list(op.key), "traced": tracer is not None,
            "timed": timed,
            "seconds": elapsed,
            "scaled": scaled,
            "evaluations": result.evaluations if result is not None else 0,
            "value": result.value if result is not None else None,
            "feasible": feasible,
            "cost_gap": self._w.cost_gap(op, result) if feasible else 1.0,
            "error": error,
        }
        self.records.append(record)
        return record

    def passes(self, workload, seconds: float, gauge) -> int:
        """Untraced passes, in whole cycles of ``workload.cycle`` passes so
        that every solver seed of a cycle weighs the same, for as many
        cycles as end nearest to ``seconds``; returns the number of passes."""
        started = time.perf_counter()
        done = 0
        gauge.start()
        while True:
            for op in workload.pass_ops(done):
                self.run(op, gauge=gauge)
            done += 1
            if done % workload.cycle:
                continue
            elapsed = time.perf_counter() - started
            if elapsed * (1 + workload.cycle / done / 2) >= seconds:
                return done


def end_to_end(records: list[dict], setup_times: list[float],
               time_key: str = "scaled") -> dict:
    """The end-to-end metrics, timed by ``time_key`` of each record:
    ``scaled`` (reference speed, the reported form) or ``seconds`` (wall)."""
    timed = [r for r in records if r["timed"]]
    seconds = [r[time_key] for r in timed]
    n = len(timed)
    gap = sum(r["cost_gap"] for r in timed) / n
    return {
        "setup_s": statistics.median(setup_times),
        "solve_p50_s": statistics.median(seconds),
        "evals_per_s": sum(r["evaluations"] for r in timed) / sum(seconds),
        "feasible_share": sum(r["feasible"] for r in timed) / n,
        "cost_gap": gap,
        # 1 + cost_gap: the gated form, never 0
        "cost_ratio": 1.0 + gap,
        "failed_share":
            sum(r["error"] is not None for r in records) / len(records),
    }


#: End-to-end metrics that are times, reported at reference speed.
TIMED = ("setup_s", "solve_p50_s", "evals_per_s")

HUMAN_UNITS = {"setup_s": "s", "solve_p50_s": "s", "evals_per_s": "1/s",
               "feasible_share": "ratio", "cost_gap": "ratio",
               "cost_ratio": "ratio", "failed_share": "ratio"}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict, root: Path) -> dict:
    import gauge as speed_gauge
    import tracing
    import workloads

    prov = provenance(root, seed)
    if threading.active_count() != 1:
        raise RuntimeError("another thread is running; measurement refused")
    workload = workloads.WORKLOADS[name](seed)
    instr = tracing.Instrumentation()
    session = Session(workloads, instr)
    problems: list[str] = []

    gauge = speed_gauge.Gauge()
    gauge.start()
    setup_wall, setup_times = [], []
    for _ in range(workload.setup_repeats):
        started = time.perf_counter()
        with gauge.during():
            built = workload.setup()
        net, scaled = gauge.charge(time.perf_counter() - started)
        setup_wall.append(net)
        setup_times.append(scaled)
    setup_tr, reference_tr = tracing.Tracer(), tracing.Tracer()
    if trace:
        instr.install()
        instr.tracer = setup_tr
        built = workload.setup()
        instr.tracer = reference_tr
    try:
        workload.prepare(built)   # reference values, untimed
    finally:
        instr.tracer = None
        instr.restore()
    bad_setup = workload.check_setup(built)
    if bad_setup:
        problems.append(f"set-up: {bad_setup}")
    first_pass = workload.pass_ops(0)

    print(f"== {name}  seed {seed}  trace {int(trace)}  "
          f"{len(first_pass)} operations a pass", flush=True)
    print("   " + "  ".join(f"{k} {v}" for k, v in prov.items()))

    lines = []
    spans = []
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    if not trace:
        for op in first_pass:   # warm-up: instance caches fill untimed
            session.run(op, timed=False)
        passes = session.passes(workload, seconds, gauge)
        e2e = end_to_end(session.records, setup_times)
        wall = end_to_end(session.records, setup_wall, "seconds")
        timed = [r["scaled"] for r in session.records if r["timed"]]
        n = len(timed)
        for key in ("setup_s", "solve_p50_s", "evals_per_s", "feasible_share",
                    "cost_gap", "cost_ratio", "failed_share"):
            lines.append(f"{key:16s} {e2e[key]:.6g} {HUMAN_UNITS[key]}" + (
                f"  (wall {wall[key]:.6g})" if key in TIMED else ""))
        tail = tail_percentile(timed)
        lines.insert(2, f"{'solve_tail_s':16s} " + (
            f"{tail[1]:.6g} s  (p{tail[0]} of n={n}, {tail[2]} beyond)"
            if tail else f"n/a  (only {n} solves; needs 21)"))
        by_pass: dict[int, list[bool]] = {}
        for r in session.records:
            if r["timed"]:
                by_pass.setdefault(r["key"][3], []).append(r["feasible"])
        lines.append(f"{'feasible a pass':16s} " + " ".join(
            f"{sum(v)}/{len(v)}" for v in by_pass.values()))
        lines.append(f"{'machine speed':16s} {gauge.speed():.4f} of the "
                     f"reference (median of {len(gauge.samples)} probes)")
        lines.append(f"{'setup':16s} median of {len(setup_times)} set-ups; "
                     f"{n} solves in {passes} passes (solver seeds "
                     f"{workload.pass_ops(0)[0].config.seed} to "
                     f"{workload.pass_ops(passes - 1)[0].config.seed}), "
                     f"after an untimed warm-up pass that pass 0 repeats")
        metrics = {key: e2e[key] for key in units}
    else:
        run_tr = tracing.Tracer()
        untraced = traced = 0.0
        for op in first_pass:
            untraced += session.run(op)["seconds"]
            instr.install()
            try:
                traced += session.run(op, run_tr)["seconds"]
            finally:
                instr.tracer = None
                instr.restore()
        overhead = traced / untraced - 1.0
        traced_records = [r for r in session.records if r["traced"]]
        problems += tracing.self_checks(
            run_tr, sum(r["evaluations"] for r in traced_records),
            len(first_pass))
        metrics = tracing.per_layer_metrics(setup_tr, reference_tr, run_tr,
                                            overhead)
        lines.append(f"tracing overhead {overhead:.3f} of the untraced pass "
                     f"({traced:.3f} s traced vs {untraced:.3f} s untraced)")
        lines.append("self time by layer (s, one traced pass):")
        for layer, secs in sorted(run_tr.self_seconds().items(),
                                  key=lambda kv: -kv[1]):
            lines.append(f"   {layer:28s} {secs:10.4f}")
        metrics = {key: metrics[key] for key in units}
        for key, value in metrics.items():
            lines.append(f"{key:36s} {value:.6g} {units[key]}")
        spans = run_tr.spans + setup_tr.spans + reference_tr.spans

    failed = sum(r["error"] is not None for r in session.records)
    for r in session.records:
        if r["error"] is not None:
            problems.append(f"{r['key']}: {r['error']}")
    for line in lines:
        print("   " + line)
    for problem in problems[:20]:
        print("   FAIL " + problem)

    summary = {
        "correct": not problems,
        "attempted": len(session.records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with gzip.open(OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json.gz",
                   "wt") as fh:
        json.dump({"provenance": prov, "summary": summary,
                   "problems": problems, "operations": session.records,
                   "setup_seconds": setup_wall, "setup_scaled": setup_times,
                   "probe_seconds": gauge.samples, "spans": spans}, fh)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "saferoute" / "__init__.py").is_file():
        print("run from the repository root: src/saferoute is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    for name in names:
        summary = run_workload(name, args.seed, args.seconds,
                               bool(args.trace), spec, root)
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
