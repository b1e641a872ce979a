"""Command-line behavior: outputs, exit codes, determinism, goldens."""

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import saferoute
from saferoute.cli import main
from saferoute.instances import (
    bundled_case_study_dir,
    generate_instance,
    serialize_instance,
)

from helpers import (
    build_instance,
    two_on_a_line_without,
    with_first_arc_repeated,
)

GOLDENS = Path(__file__).parent / "goldens"
CASE_DIR = str(bundled_case_study_dir())
FLOWS = str(bundled_case_study_dir() / "flows.csv")
NOMINAL = str(bundled_case_study_dir() / "nominal_speeds.csv")


def check_golden(request, name: str, data: bytes) -> None:
    path = GOLDENS / name
    if request.config.getoption("--update-goldens"):
        GOLDENS.mkdir(exist_ok=True)
        path.write_bytes(data)
    assert path.read_bytes() == data


# --- speeds ---------------------------------------------------------------


def test_speeds_golden_and_determinism(tmp_path, capsys, request):
    out1 = tmp_path / "a.tsv"
    out2 = tmp_path / "b.tsv"
    assert main(["speeds", "--flows", FLOWS, "--nominal", NOMINAL,
                 "--out", str(out1)]) == 0
    assert main(["speeds", "--flows", FLOWS, "--nominal", NOMINAL,
                 "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    check_golden(request, "speeds.tsv", out1.read_bytes())


def test_speeds_reproduce_bundled_profiles(tmp_path, capsys):
    # the bundled speed profiles came from this same pipeline
    out = tmp_path / "s.tsv"
    assert main(["speeds", "--flows", FLOWS, "--nominal", NOMINAL,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    computed = {}
    with open(out, newline="") as fh:
        for row in csv.DictReader(fh, delimiter="\t"):
            key = (row["tail"], row["head"])
            computed[key] = [row[f"h{h}"] for h in range(24)]
    bundled = {}
    with open(Path(CASE_DIR) / "profiles.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["kind"] == "speed":
                bundled[(row["tail"], row["head"])] = \
                    [row[f"h{h}"] for h in range(24)]
    assert computed == bundled


def test_speeds_rejects_quantile_outside_range():
    with pytest.raises(SystemExit) as err:
        main(["speeds", "--flows", FLOWS, "--nominal", NOMINAL,
              "--quantile", "0.3"])
    assert err.value.code == 2


def test_speeds_input_errors(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("tail,head,hour,flow\n")
    assert main(["speeds", "--flows", str(empty),
                 "--nominal", NOMINAL]) == 3
    assert "no data rows" in capsys.readouterr().err

    bad = tmp_path / "bad.csv"
    bad.write_text("tail,head,hour,flow\n0,1,0,abc\n")
    assert main(["speeds", "--flows", str(bad), "--nominal", NOMINAL]) == 3
    assert "line 2" in capsys.readouterr().err

    short = tmp_path / "short.csv"
    rows = ["tail,head,hour,flow"] + [f"0,1,{h},100.0" for h in range(12)]
    short.write_text("\n".join(rows) + "\n")
    assert main(["speeds", "--flows", str(short), "--nominal", NOMINAL]) == 3
    assert "missing hours" in capsys.readouterr().err

    no_nominal = tmp_path / "nom.csv"
    no_nominal.write_text("tail,head,nominal_speed\n5,6,48.0\n")
    assert main(["speeds", "--flows", FLOWS,
                 "--nominal", str(no_nominal)]) == 3
    assert "no nominal speed" in capsys.readouterr().err

    dup = tmp_path / "dup.csv"
    dup.write_text("tail,head,hour,flow\n0,1,3,10.0\n0,1,3,11.0\n")
    assert main(["speeds", "--flows", str(dup), "--nominal", NOMINAL]) == 3
    assert "duplicate hour" in capsys.readouterr().err

    wrong_cols = tmp_path / "cols.csv"
    wrong_cols.write_text("a,b\n1,2\n")
    assert main(["speeds", "--flows", str(wrong_cols),
                 "--nominal", NOMINAL]) == 3
    assert "missing columns" in capsys.readouterr().err


# --- solve ----------------------------------------------------------------


def test_solve_single_scenario_golden(tmp_path, capsys, request):
    out = tmp_path / "solve.tsv"
    args = ["solve", "--instance", CASE_DIR, "--objective", "distance",
            "--scenario", "17", "--seed", "0", "--out", str(out)]
    assert main(args) == 0
    capsys.readouterr()
    first = out.read_bytes()
    assert main(args) == 0
    capsys.readouterr()
    assert out.read_bytes() == first
    check_golden(request, "solve_case17.tsv", first)
    row = first.decode().splitlines()[1].split("\t")
    assert row[1] == "yes"
    assert row[4] == "32.3009"  # matches the distance-matrix optimum


def test_solve_all_scenarios_emits_24_rows(tmp_path, capsys):
    out = tmp_path / "sweep.tsv"
    assert main(["solve", "--instance", CASE_DIR, "--objective", "weighted",
                 "--all-scenarios", "--seed", "1", "--no-gaps",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 25  # header + one row per dispatch hour
    assert [r.split("\t")[0] for r in lines[1:]] == \
        [str(h) for h in range(24)]
    assert all(r.split("\t")[1] == "yes" for r in lines[1:])


def test_solve_flags_infeasible_scenario(tmp_path, capsys):
    # window closes before any vehicle can arrive: nothing to serve it
    inst = build_instance([{"x": 6.0, "y": 0.0, "close": 0.05}])
    path = tmp_path / "bad.txt"
    path.write_text(serialize_instance(inst))
    out = tmp_path / "res.tsv"
    code = main(["solve", "--instance", str(path), "--objective", "distance",
                 "--scenario", "0", "--no-gaps", "--out", str(out)])
    capsys.readouterr()
    assert code == 4
    row = out.read_text().splitlines()[1].split("\t")
    assert row[1] == "no" and row[4] == "inf"


def test_solve_rejects_unknown_objective():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--instance", CASE_DIR, "--objective", "profit"])
    assert err.value.code == 2


def test_solve_rejects_scenario_conflict():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--instance", CASE_DIR, "--scenario", "3",
              "--all-scenarios"])
    assert err.value.code == 2


def test_solve_missing_instance(capsys):
    assert main(["solve", "--instance", "/nonexistent/file"]) == 3
    assert "cannot read instance" in capsys.readouterr().err


def test_solve_reads_native_and_solomon_files(tmp_path, capsys):
    native = build_instance([{"x": 2.0, "y": 1.0}, {"x": 4.0, "y": 2.0}])
    npath = tmp_path / "native.txt"
    npath.write_text(serialize_instance(native))
    assert main(["solve", "--instance", str(npath), "--objective",
                 "distance", "--no-gaps", "--scenario", "0"]) == 0
    solomon = "\n".join([
        "TOY", "", "VEHICLE", "NUMBER CAPACITY", "  2  100", "",
        "CUSTOMER",
        "CUST NO.  XCOORD.  YCOORD.  DEMAND  READY TIME  DUE DATE"
        "  SERVICE TIME", "",
        "0 0 0 0 0 50 0",
        "1 3 0 5 0 40 1",
        "2 5 1 5 0 40 1", ""])
    spath = tmp_path / "toy.txt"
    spath.write_text(solomon)
    assert main(["solve", "--instance", str(spath), "--objective",
                 "distance", "--no-gaps", "--scenario", "0"]) == 0
    capsys.readouterr()


def test_native_file_may_start_with_a_blank_line(tmp_path, capsys):
    # it was detected as native and then refused: "first line must be
    # 'saferoute-instance v1'"
    text = serialize_instance(generate_instance(4, 0))
    outputs = []
    for name, body in (("plain.txt", text), ("blank.txt", "\n" + text)):
        path = tmp_path / name
        path.write_text(body)
        assert main(["solve", "--instance", str(path), "--objective",
                     "distance", "--no-gaps", "--scenario", "7"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0]


def test_solve_and_verify_an_instance_without_customers(tmp_path, capsys):
    # a lone depot is served by empty routes worth 0.0; there is no move
    # to anneal
    path = tmp_path / "depot.txt"
    path.write_text(serialize_instance(build_instance([])))
    assert main(["solve", "--instance", str(path), "--scenario", "0"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert row.split()[1:5] == ["yes", "-", "weighted", "0.0"]
    assert main(["verify", "--instance", str(path), "--scenario", "0"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert row.split()[1:] == ["0.0", "0.0", "0.0", "yes"]


# --- verify ---------------------------------------------------------------


def test_verify_scenario_golden(tmp_path, capsys, request):
    out = tmp_path / "verify.tsv"
    assert main(["verify", "--instance", CASE_DIR, "--objective", "crash",
                 "--scenario", "7", "--seed", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    data = out.read_bytes()
    check_golden(request, "verify_case7.tsv", data)
    row = data.decode().splitlines()[1].split("\t")
    assert row[3] == "0.0" and row[4] == "yes"


def test_verify_gap_exit_code(tmp_path, capsys):
    # with no annealing the construction misses the crash optimum at
    # hour 8, a real gap
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_outer_iterations": 0}')
    out = tmp_path / "verify.tsv"
    assert main(["verify", "--instance", CASE_DIR, "--scenario", "8",
                 "--objective", "crash", "--config", str(cfg),
                 "--tolerance", "0", "--out", str(out)]) == 1
    capsys.readouterr()
    row = out.read_text().splitlines()[1].split("\t")
    assert float(row[3]) > 0 and row[4] == "no"


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf", "x"])
def test_verify_rejects_bad_tolerance(tolerance):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--instance", CASE_DIR, "--scenario", "0",
              "--tolerance", tolerance])
    assert err.value.code == 2


def test_verify_skips_candidates_with_a_missing_arc(tmp_path, capsys):
    # the oracle meets route (1, 2), which drives the missing arc, and
    # must skip it rather than fail
    sparse = tmp_path / "sparse.txt"
    sparse.write_text(serialize_instance(two_on_a_line_without((1, 2))))
    out = tmp_path / "verify.tsv"
    assert main(["verify", "--instance", str(sparse), "--scenario", "7",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    row = out.read_text().splitlines()[1].split("\t")
    assert row[4] == "yes"


def test_verify_refuses_oversized_instance(tmp_path, capsys):
    big = tmp_path / "big.txt"
    assert main(["generate", "--size", "9", "--seed", "1",
                 "--out", str(big)]) == 0
    capsys.readouterr()
    assert main(["verify", "--instance", str(big), "--scenario", "0"]) == 5
    assert "refused" in capsys.readouterr().err


# --- generate ---------------------------------------------------------


def test_generate_golden_and_roundtrip(tmp_path, capsys, request):
    out1 = tmp_path / "g1.txt"
    out2 = tmp_path / "g2.txt"
    assert main(["generate", "--size", "10", "--seed", "4",
                 "--out", str(out1)]) == 0
    assert main(["generate", "--size", "10", "--seed", "4",
                 "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    check_golden(request, "generated10.txt", out1.read_bytes())


def test_generate_different_seeds_differ(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["generate", "--size", "10", "--seed", "1",
                 "--out", str(a)]) == 0
    assert main(["generate", "--size", "10", "--seed", "2",
                 "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


def test_generate_rejects_zero_size(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--size", "0", "--out", str(tmp_path / "x.txt")])
    assert err.value.code == 2


def _solomon_with(row: str) -> str:
    return "\n".join([
        "TOY", "", "VEHICLE", "NUMBER CAPACITY", "  2  100", "",
        "CUSTOMER",
        "CUST NO.  XCOORD.  YCOORD.  DEMAND  READY TIME  DUE DATE"
        "  SERVICE TIME", "",
        "0 0 0 0 0 50 0", row, ""])


def _case_study_with_zero_miles(tmp_path: Path) -> str:
    case = tmp_path / "case"
    shutil.copytree(CASE_DIR, case)
    distances = case / "distances.csv"
    lines = distances.read_text().splitlines()
    tail, head, _ = lines[1].split(",")
    lines[1] = f"{tail},{head},0"
    distances.write_text("\n".join(lines) + "\n")
    return str(case)


@pytest.mark.parametrize("case", [
    "solomon-negative-demand", "solomon-ready-after-due",
    "case-study-zero-miles", "generate-infinite-latest"])
def test_bad_numbers_in_an_instance_exit_3(tmp_path, capsys, case):
    # the model rejects the values; the CLI reports them as bad input,
    # never as a traceback or the verification-gap exit code
    solve = ["solve", "--scenario", "0", "--no-gaps", "--instance"]
    if case.startswith("solomon"):
        row = "1 3 0 -5 0 40 1" if case.endswith("demand") \
            else "1 3 0 5 45 40 1"
        path = tmp_path / "toy.txt"
        path.write_text(_solomon_with(row))
        argv = [*solve, str(path)]
    elif case.startswith("case-study"):
        argv = [*solve, _case_study_with_zero_miles(tmp_path)]
    else:
        argv = ["generate", "--size", "3", "--latest", "inf",
                "--out", str(tmp_path / "g.txt")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("column, name", [(1, "x"), (3, "demand"),
                                          (4, "service_time")])
def test_non_finite_node_value_exits_3(tmp_path, capsys, column, name):
    # a NaN coordinate used to crash the construction with a traceback,
    # a NaN demand escaped the capacity check, and a NaN service time
    # was reported as a bad departure time
    source = tmp_path / "g.txt"
    assert main(["generate", "--size", "5", "--seed", "1",
                 "--out", str(source)]) == 0
    lines = source.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("1 "))
    fields = lines[row].split()
    fields[column] = "nan"
    lines[row] = " ".join(fields)
    source.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["solve", "--instance", str(source), "--scenario", "7",
                 "--no-gaps"]) == 3
    assert capsys.readouterr().err == "error: line 7: bad node row " \
        f"(node 1: {name} must be finite, got nan)\n"


def test_case_study_with_a_repeated_distance_exits_3(tmp_path, capsys):
    case = tmp_path / "case"
    shutil.copytree(CASE_DIR, case)
    with (case / "distances.csv").open("a") as fh:
        fh.write("0,1,99.0\n")
    assert main(["solve", "--scenario", "0", "--instance", str(case)]) == 3
    assert capsys.readouterr().err == \
        "error: distances.csv line 14: duplicate entry (0, 1)\n"


@pytest.mark.parametrize("repeat", [True, False],
                         ids=["repeated-arc", "extra-row"])
def test_native_file_with_a_repeated_or_extra_arc_row_exits_3(tmp_path, capsys,
                                                              repeat):
    # both used to solve: the repeated row as a 5-arc instance, the
    # extra row dropped
    text = serialize_instance(build_instance([{"x": 1}, {"x": 2}]))
    if repeat:
        text, line = with_first_arc_repeated(text)
        err = f"error: line {line}: duplicate entry (0, 1)\n"
    else:
        line = len(text.splitlines()) + 1
        text += "0 1 1.0 30.0 1.0 0.5\n"
        err = f"error: line {line}: text after the 6 declared arcs\n"
    path = tmp_path / "native.txt"
    path.write_text(text)
    assert main(["solve", "--scenario", "0", "--no-gaps",
                 "--instance", str(path)]) == 3
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("name, edit, err", [
    ("meta.csv", lambda text: text.replace("key,value", "k,v"),
     "error: meta.csv line 1: missing columns: key, value; expected header"),
    ("profiles.csv", lambda text: text + "0,1,speeeed" + ",1.0" * 24 + "\n",
     "error: profiles.csv line 38: unknown profile kind 'speeeed'"),
    ("nodes.csv", lambda text: text.replace("1,6.3,2.6,100.0,0.1,0.0,1.3",
                                            "1,6.3,2.6,100.0"),
     "error: nodes.csv line 3: expected 7 fields, got 4\n"),
    ("distances.csv", lambda text: text.replace("0,1,6.8009\n",
                                                "0,1,6.8009,5\n", 1),
     "error: distances.csv line 2: expected 3 fields, got 4\n"),
    ("nodes.csv", lambda text: text.replace("id,x,y", "id,y,x"),
     "error: nodes.csv line 1: expected header "
     "'id,x,y,demand,service,open,close', got ['id', 'y', 'x',"),
    ("meta.csv", lambda text: text.splitlines()[0] + "\n",
     "error: meta.csv: no data rows\n"),
    ("profiles.csv", lambda text: text.replace("0,1,speed,45.196226079186836",
                                               "0,1,speed,nan", 1),
     "error: profiles.csv line 2: profile values must be finite\n"),
], ids=["meta-header", "profile-kind", "short-row", "extra-field",
        "reordered-header", "header-only", "nan-profile"])
def test_case_study_with_a_bad_header_or_kind_exits_3(tmp_path, capsys, name,
                                                       edit, err):
    # a wrong meta header used to end in a KeyError traceback, a misspelt
    # kind used to solve as if its row were absent, a short row ended in
    # a TypeError traceback with exit 1, an extra field and a reordered
    # header solved, and a NaN profile value exited 3 without its place
    case = tmp_path / "case"
    shutil.copytree(CASE_DIR, case)
    (case / name).write_text(edit((case / name).read_text()))
    assert main(["solve", "--scenario", "0", "--instance", str(case)]) == 3
    assert capsys.readouterr().err.startswith(err)


# --- configuration and seeds -----------------------------------------------


def test_config_file_controls_solver(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_outer_iterations": 2, "seed": 5,'
                   ' "objective": "distance",'
                   ' "weights": {"w_crash": 0.7, "w_tti": 0.3}}')
    out = tmp_path / "r.tsv"
    assert main(["solve", "--instance", CASE_DIR, "--scenario", "0",
                 "--config", str(cfg), "--no-gaps", "--out",
                 str(out)]) == 0
    capsys.readouterr()
    row = out.read_text().splitlines()[1].split("\t")
    assert row[3] == "distance" and row[4] == "32.3009"


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"cooling_rate": 0.5}')
    assert main(["solve", "--instance", CASE_DIR, "--config",
                 str(cfg)]) == 3
    assert "unknown config keys: cooling_rate" in capsys.readouterr().err

    # the annealing schedule is fixed, not configured
    cfg.write_text('{"population_size": 4}')
    assert main(["solve", "--instance", CASE_DIR, "--config",
                 str(cfg)]) == 3
    assert "unknown config keys: population_size" in capsys.readouterr().err

    cfg.write_text('{"weights": {"alpha": 1.0}}')
    assert main(["solve", "--instance", CASE_DIR, "--config",
                 str(cfg)]) == 3
    assert "unknown weight keys: alpha" in capsys.readouterr().err

    cfg.write_text('[1, 2]')
    assert main(["solve", "--instance", CASE_DIR, "--config",
                 str(cfg)]) == 3
    assert "JSON object" in capsys.readouterr().err

    # weights that break their own rules, or are not numbers at all,
    # are input errors, never a traceback
    cfg.write_text('{"weights": {"w_crash": 0.7, "w_tti": 0.7}}')
    assert main(["solve", "--instance", CASE_DIR, "--config",
                 str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: bad solver configuration:")
    assert "sum to 1" in err

    cfg.write_text('{"weights": {"w_crash": "x"}}')
    assert main(["solve", "--instance", CASE_DIR, "--config",
                 str(cfg)]) == 3
    assert capsys.readouterr().err.startswith(
        "error: bad solver configuration:")

    # JSON as Python reads it takes NaN and Infinity; such weights used
    # to solve every scenario to an infeasible inf
    for text in ('{"weights": {"w_crash": NaN, "w_tti": 0.5}}',
                 '{"weights": {"crash_scale": Infinity}}'):
        cfg.write_text(text)
        assert main(["solve", "--instance", CASE_DIR, "--scenario", "7",
                     "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith(
            "error: bad solver configuration:")


@pytest.mark.parametrize("text", [
    '{"max_outer_iterations": 2.5}', '{"m": 2.5}', '{"m": true}',
    '{"seed": [1]}',
])
def test_config_file_rejects_non_integer_counts(tmp_path, capsys, text):
    # a count or seed that is not an integer is an input error, never a
    # traceback mid-solve nor silently read as a number
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["solve", "--instance", CASE_DIR, "--scenario", "0",
                 "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith(
        "error: bad solver configuration:")


def test_readme_config_block_is_the_default_config():
    # the documented keys and defaults are the fields of SolverConfig
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration file", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == dataclasses.asdict(saferoute.SolverConfig())


def test_seed_precedence_flag_env_config(tmp_path, capsys, monkeypatch):
    # the flag beats the config file, and the environment sets no seed;
    # on this generated instance seeds 0, 3 and 99 find three solutions
    inst = tmp_path / "rnd8.txt"
    assert main(["generate", "--size", "8", "--seed", "1",
                 "--out", str(inst)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 99}))

    def solved(*flags) -> bytes:
        out = tmp_path / "out.tsv"
        assert main(["solve", "--instance", str(inst), "--objective",
                     "weighted", "--scenario", "7", "--no-gaps", *flags,
                     "--out", str(out)]) == 0
        return out.read_bytes()

    flagged = solved("--config", str(config), "--seed", "3")
    assert flagged == solved("--seed", "3") \
        != solved("--config", str(config))  # flag beats config
    unset = solved()
    monkeypatch.setenv("SAFEROUTE_SEED", "3")
    assert solved() == unset != flagged  # the environment sets no seed
    capsys.readouterr()


def test_stdout_table_is_aligned(capsys):
    assert main(["solve", "--instance", CASE_DIR, "--objective", "distance",
                 "--scenario", "0", "--seed", "0", "--no-gaps"]) == 0
    shown = capsys.readouterr().out.splitlines()
    assert shown[0].startswith("scenario  feasible")
    assert "32.3009" in shown[1]


def test_package_needs_neither_scipy_nor_numpy(tmp_path):
    # a None entry in sys.modules makes every import of that name fail
    out = tmp_path / "speeds.tsv"
    script = f"""
import sys
sys.modules["scipy"] = None
sys.modules["numpy"] = None
import saferoute
from saferoute.cli import main
instance = saferoute.load_case_study(saferoute.bundled_case_study_dir())
result = saferoute.solve(instance, saferoute.SolverConfig(seed=0), 7.0)
assert result.feasible, result
assert main(["speeds", "--flows", {FLOWS!r}, "--nominal", {NOMINAL!r},
             "--out", {str(out)!r}]) == 0
"""
    src = str(Path(saferoute.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == (GOLDENS / "speeds.tsv").read_bytes()
