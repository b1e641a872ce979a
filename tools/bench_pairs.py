"""Paired perfbench runs: a parent revision against the working tree.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --name length_table \\
        --workload r101-distance --workload casestudy-sweep --what "..."

The parent revision is extracted with ``git archive REV | tar -x`` into
a temporary directory: no worktree, nothing written under ``.git``.
For each workload, pair k of ten (from 1) runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each tree, with S the workload seed (``--seed``, default 0)
and T the ``run_seconds`` of BENCHMARK.json, the parent first in odd
pairs and the working tree first in even ones, so drift of the host's
speed hits both sides alike.  Ten pairs are the fewest that can back a
claimed gain.  One ``--trace 1`` run a side and workload follows the
pairs.

The result is ``BENCH_<name>.json`` in the repository root:

* ``what`` (from ``--what``), ``seed`` and ``host`` (cpus, python,
  machine);
* ``workloads.<W>.parent`` and ``.change``: one summary per run, with
  ``correct``, ``attempted``, ``failed`` and every end-to-end metric;
* ``workloads.<W>.stats.<metric>``: per side the median and quartiles,
  ``change_better`` (pairs in which the change was better, by the
  metric's ``better`` in BENCHMARK.json, by more than ``TIE`` of the
  larger value) and ``ties`` (pairs within ``TIE`` of each other,
  which count for neither side) out of ``pairs``, and the ``verdict``
  (see ``verdict``), which is also printed, one line per metric;
* ``workloads.<W>.traced.parent`` and ``.change``: ``correct`` and
  every per-layer metric of the traced run.

Standard library only; the perfbench harness of each tree is run as it
is, so the two sides may differ in it only as their commits do.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
#: Relative difference at or below which a pair is a tie: a mean over
#: a different number of identical solves can round apart in the 16th
#: digit, and that is no win for either side.
TIE = 1e-9


def extract(rev: str, into: Path) -> None:
    """Write the files of ``rev`` under ``into`` (``git archive | tar``)."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def run(tree: Path, workload: str, seconds: float, trace: int,
        seed: int) -> dict:
    """One perfbench run in ``tree``; its summary with metrics flattened."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    flat = {k: summary[k] for k in ("correct", "attempted", "failed")}
    flat.update({k: m["value"] for k, m in summary["metrics"].items()})
    return flat


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(entry: dict, direction: str, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``same`` for one metric.

    ``entry`` is one metric's ``stats`` entry, ``bound`` its relative
    bound in BENCHMARK.json.  Checked in this order:

    * ``gain``: the change was better in at least nine tenths of all
      pairs run (a tie is no win), and its median is better than the
      parent's by more than the parent's q3 - q1;
    * ``worse``: its median is worse than the parent's by more than
      ``bound`` times the parent's median;
    * ``unresolved``: the parent's q3 - q1 is wider than that;
    * ``same``: none of these.
    """
    old, new = entry["parent"], entry["change"]
    gained = old["median"] - new["median"]
    if direction != "lower":
        gained = -gained
    spread = old["q3"] - old["q1"]
    allowed = bound * abs(old["median"])
    if 10 * entry["change_better"] >= 9 * entry["pairs"] and gained > spread:
        return "gain"
    if -gained > allowed:
        return "worse"
    if spread > allowed:
        return "unresolved"
    return "same"


def stats(parent: list[dict], change: list[dict], better: dict,
          bound: dict) -> dict:
    """Median and quartiles per metric and side, pairs won and tied, and
    the verdict, by each metric's ``better`` and ``bound``."""
    out = {}
    for metric, direction in better.items():
        old = [r[metric] for r in parent]
        new = [r[metric] for r in change]
        ties = [math.isclose(a, b, rel_tol=TIE) for a, b in zip(old, new)]
        wins = sum(not tie and ((b < a) if direction == "lower" else (b > a))
                   for a, b, tie in zip(old, new, ties))
        entry = out[metric] = {
            "parent": quartiles(old), "change": quartiles(new),
            "change_better": wins, "ties": sum(ties), "pairs": len(old)}
        entry["verdict"] = verdict(entry, direction, bound[metric])
    return out


def verdict_line(workload: str, metric: str, entry: dict) -> str:
    """One printed line: the verdict and the numbers it rests on."""
    old, new = entry["parent"], entry["change"]
    return (f"{workload} {metric}: {entry['verdict']} (median "
            f"{old['median']:.6g} -> {new['median']:.6g}, parent q1-q3 "
            f"{old['q1']:.6g}-{old['q3']:.6g}, change better in "
            f"{entry['change_better']} of {entry['pairs']}, "
            f"{entry['ties']} tied)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare against")
    parser.add_argument("--name", required=True,
                        help="writes BENCH_<name>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--what", default="",
                        help="what the runs compare, for the file")
    parser.add_argument("--seed", type=int, default=0,
                        help="perfbench workload seed of every run")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"what": args.what, "seed": args.seed,
              "host": {"cpus": os.cpu_count(),
                       "python": platform.python_version(),
                       "machine": platform.machine()},
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        extract(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for k in range(1, PAIRS + 1):
                order = ("parent", "change") if k % 2 else ("change", "parent")
                for side in order:
                    runs[side].append(
                        run(trees[side], workload, seconds, 0, args.seed))
                    print(f"{workload} pair {k} {side}: "
                          f"{json.dumps(runs[side][-1])}", flush=True)
            pair_stats = stats(runs["parent"], runs["change"], better, bound)
            for metric, entry in pair_stats.items():
                print(verdict_line(workload, metric, entry), flush=True)
            result["workloads"][workload] = {
                **runs,
                "stats": pair_stats,
                "traced": {side: run(trees[side], workload, seconds, 1,
                                     args.seed)
                           for side in ("parent", "change")}}
    out = ROOT / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
