"""tools/oracle_gap.py: one case of its matrix, end to end."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "oracle_gap.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("oracle_gap", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_matrix_keeps_the_generators_pass_through_vertices():
    # the generator's instances as it makes them, which is the Tier-1
    # oracle matrix: five customers, two vehicles and the depot, with
    # no copy of it, since every route ends at node 0
    labels = []
    for label, instance, _ in load_tool().matrix():
        labels.append(label)
        assert instance.customers() == (1, 2, 3, 4, 5)
        assert instance.fleet.count == 2
        assert len(instance.nodes) == 6
    assert len(labels) == len(set(labels)) == 50


def test_reports_each_case_and_the_match_count(monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "GENERATOR_SEEDS", [0])
    monkeypatch.setattr(tool, "OBJECTIVES", ["distance"])
    assert tool.main() == 0
    case, total = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"(match|miss) g=0 distance: \S+ against \S+, "
                        r"gap \S+", case)
    assert re.fullmatch(r"[01] of 1 reach the optimum \(\S+ s\)", total)
