"""tools/bench_pairs.py: run order, file layout and pair statistics."""

import importlib.util
import json
import shutil
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_alternate_and_file_holds_runs_and_quartiles(monkeypatch,
                                                           tmp_path, capsys):
    tool = load_tool()
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    extracted = []
    monkeypatch.setattr(tool, "extract",
                        lambda rev, into: extracted.append(rev))
    order = []

    def fake_run(tree, workload, seconds, trace, seed):
        side = "change" if tree == tmp_path else "parent"
        order.append((workload, side, trace))
        assert seconds == 40  # BENCHMARK.json's run_seconds
        assert seed == 0  # the default workload seed
        k = sum(1 for w, s, t in order if (w, s, t) == (workload, side, 0))
        # the change is faster in every pair but the third
        solve = (1.0 if side == "parent" else 0.5) + (k == 3 and side == "change")
        metrics = {"solve_p50_s": solve, "evals_per_s": 1 / solve,
                   "feasible_share": 1.0, "cost_ratio": 1.0, "setup_s": 0.1}
        return {"correct": True, "attempted": 3, "failed": 0,
                **({"phase1.audit_calls": 7} if trace else metrics)}

    monkeypatch.setattr(tool, "run", fake_run)
    assert tool.main(["--parent", "abc123", "--name", "t",
                      "--workload", "w"]) == 0
    assert extracted == ["abc123"]
    assert [s for _, s, t in order if not t] == [
        "parent", "change", "change", "parent"] * 5
    assert [s for _, s, t in order if t] == ["parent", "change"]
    data = json.loads((tmp_path / "BENCH_t.json").read_text())
    entry = data["workloads"]["w"]
    assert len(entry["parent"]) == len(entry["change"]) == 10
    solve = entry["stats"]["solve_p50_s"]
    assert solve["change_better"] == 9 and solve["pairs"] == 10
    assert solve["parent"]["median"] == 1.0
    assert solve["change"]["median"] == 0.5
    assert entry["stats"]["evals_per_s"]["change_better"] == 9
    assert entry["stats"]["setup_s"]["change_better"] == 0
    assert entry["stats"]["setup_s"]["ties"] == 10
    assert solve["ties"] == 0
    assert entry["traced"]["change"]["phase1.audit_calls"] == 7
    verdicts = {metric: stat["verdict"]
                for metric, stat in entry["stats"].items()}
    assert verdicts == {"solve_p50_s": "gain", "evals_per_s": "gain",
                        "feasible_share": "same", "cost_ratio": "same",
                        "setup_s": "same"}
    printed = [line for line in capsys.readouterr().out.splitlines()
               if not line.startswith("w pair ")]
    assert [line.split(" (")[0] for line in printed[:5]] == [
        f"w {metric}: {verdict}" for metric, verdict in verdicts.items()]
    assert printed[0] == ("w solve_p50_s: gain (median 1 -> 0.5, parent "
                          "q1-q3 1-1, change better in 9 of 10, 0 tied)")
    assert set(data) == {"what", "seed", "host", "workloads"}
    assert data["seed"] == 0


def test_values_within_tie_count_for_neither_side():
    tool = load_tool()
    cost = 1.1218134732745175
    parent = [{"cost_ratio": cost}, {"cost_ratio": 2.0},
              {"cost_ratio": 2.0}]
    change = [{"cost_ratio": 1.1218134732745195},  # rounding apart
              {"cost_ratio": 2.0}, {"cost_ratio": 1.5}]
    bound = {"cost_ratio": 0.05}
    out = tool.stats(parent, change, {"cost_ratio": "lower"},
                     bound)["cost_ratio"]
    assert out["change_better"] == 1 and out["ties"] == 2
    assert out["pairs"] == 3
    # rounding apart the other way is no win for the change either
    out = tool.stats(change[:2], parent[:2], {"cost_ratio": "lower"}, bound)
    assert out["cost_ratio"]["change_better"] == 0
    assert out["cost_ratio"]["ties"] == 2


def test_seed_reaches_every_run_and_the_file(monkeypatch, tmp_path):
    tool = load_tool()
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "extract", lambda rev, into: None)
    seeds = []

    def fake_run(tree, workload, seconds, trace, seed):
        seeds.append(seed)
        return {"correct": True, "solve_p50_s": 1.0, "evals_per_s": 1.0,
                "feasible_share": 1.0, "cost_ratio": 1.0, "setup_s": 0.1}

    monkeypatch.setattr(tool, "run", fake_run)
    assert tool.main(["--parent", "abc123", "--name", "s", "--seed", "1",
                      "--workload", "w"]) == 0
    assert seeds == [1] * 22  # ten pairs and one traced run a side
    assert json.loads((tmp_path / "BENCH_s.json").read_text())["seed"] == 1


def verdict_of(tool, old, new, better="lower", bound=0.25):
    parent = [{"m": v} for v in old]
    change = [{"m": v} for v in new]
    return tool.stats(parent, change, {"m": better}, {"m": bound})["m"]["verdict"]


def test_verdict_follows_the_pair_rule():
    tool = load_tool()
    steady = [1.0] * 10
    # a gain needs nine tenths of the pairs and a median gain wider than
    # the parent's quartile spread
    assert verdict_of(tool, steady, [0.8] * 9 + [1.1]) == "gain"
    assert verdict_of(tool, steady, [0.8] * 8 + [1.1] * 2) == "same"
    wavy = [1.0, 1.1] * 5  # q1 1.0, q3 1.1
    assert verdict_of(tool, wavy, [v - 0.01 for v in wavy]) == "same"
    assert verdict_of(tool, wavy, [v - 0.2 for v in wavy]) == "gain"
    # identical runs tie: no wins, so no gain however the medians round
    assert verdict_of(tool, steady, [1.0 + 1e-15] * 10, bound=0.05) == "same"
    assert verdict_of(tool, [1e-15 + 1.0] * 10, steady, bound=0.05) == "same"
    # worse by more than the bound, in either direction of better
    assert verdict_of(tool, steady, [1.3] * 10) == "worse"
    assert verdict_of(tool, steady, [1.2] * 10) == "same"
    assert verdict_of(tool, [100.0] * 10, [70.0] * 10, "higher") == "worse"
    assert verdict_of(tool, [100.0] * 10, [130.0] * 10, "higher") == "gain"
    # a parent that spreads wider than the bound cannot tell
    loose = [0.6, 0.7, 0.8, 1.0, 1.0, 1.0, 1.2, 1.3, 1.4, 1.5]
    assert verdict_of(tool, loose, loose[::-1]) == "unresolved"
    assert verdict_of(tool, loose, [v * 1.5 for v in loose]) == "worse"
