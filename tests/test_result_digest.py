"""tools/result_digest.py: its ``--expect`` check."""

import importlib.util
from pathlib import Path

from saferoute import SolverConfig, bundled_case_study_dir, load_case_study

TOOL = Path(__file__).resolve().parents[1] / "tools" / "result_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("result_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_expect_fails_on_a_mismatch_and_prints_both(monkeypatch, capsys):
    tool = load_tool()
    case = load_case_study(bundled_case_study_dir())
    monkeypatch.setattr(tool, "matrix", lambda: iter(
        [("case h7 weighted", case, SolverConfig(seed=7), 7.0)]))
    assert tool.main([]) == 0
    digest = capsys.readouterr().out.split()[0]
    assert tool.main(["--expect", digest]) == 0
    assert capsys.readouterr().out.split()[0] == digest
    assert tool.main(["--expect", "0" * 64]) == 1
    out = capsys.readouterr().out
    assert "0" * 64 in out and out.count(digest) == 2


#: The digest of the whole matrix.  A change that alters a result on
#: purpose re-pins it and says why in CHANGES.md.
PINNED = "2baeb74d772ea1399d6d54fafdbde0a6afe2fc6141943d47373431c284687ce0"


def test_matrix_digest_is_pinned(capsys):
    # every solve of the matrix returns what it returned when pinned
    assert load_tool().main(["--expect", PINNED]) == 0, capsys.readouterr().out
