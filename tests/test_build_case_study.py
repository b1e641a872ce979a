"""tools/build_case_study.py: it rebuilds the bundled CSVs byte for byte."""

import importlib.util
from pathlib import Path

from saferoute import bundled_case_study_dir

TOOL = Path(__file__).resolve().parents[1] / "tools" / "build_case_study.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("build_case_study", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_builder_reproduces_the_bundle(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "OUT", tmp_path)
    tool.build()
    assert "verified" in capsys.readouterr().out
    bundle = sorted(p.name for p in bundled_case_study_dir().glob("*.csv"))
    assert sorted(p.name for p in tmp_path.iterdir()) == bundle
    for name in bundle:
        assert (tmp_path / name).read_bytes() \
            == (bundled_case_study_dir() / name).read_bytes(), name
