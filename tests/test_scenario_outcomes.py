"""tools/scenario_outcomes.py: two scenarios of its matrix, end to end."""

import importlib.util
import re
from pathlib import Path

from saferoute import generate_instance

TOOL = Path(__file__).resolve().parents[1] / "tools" / "scenario_outcomes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("scenario_outcomes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_an_unserved_and_a_served_scenario():
    tool = load_tool()
    # RND25 (generator seed 9) at hour 7: no feasible result, yet its
    # demand fits 2 of the 3 vehicles and every customer can be served
    # alone, so nothing certifies it
    unserved = tool.outcome(generate_instance(25, 9), 7.0)
    assert not unserved.feasible and unserved.value == float("inf")
    assert (unserved.demand_bound, unserved.fleet) == (2, 3)
    assert unserved.lone_failures == 0 and not unserved.certified
    served = tool.outcome(generate_instance(80, 0), 7.0)
    assert served.feasible and served.value < float("inf")


def test_reports_each_scenario_and_the_counts(monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "SIZES", (25,))
    monkeypatch.setattr(tool, "GENERATOR_SEEDS", [9])
    monkeypatch.setattr(tool, "HOURS", (7.0,))
    assert tool.main() == 0
    case, total = capsys.readouterr().out.splitlines()
    assert case == ("inf RND25 g=9 h=7: value inf, fleet 3, "
                    "ceil(sum d/Q) 2, 0 one-stop failures")
    assert re.fullmatch(r"1 of 1 inf \(RND25 1/1\), 0 certified \(\S+ s\)",
                        total)
