import argparse
import dataclasses
import json
import os
import subprocess
import sys

import pytest

import rdpdescent
from rdpdescent import cli, ideals
from rdpdescent.catalog import table_records
from rdpdescent.cli import EXIT_OUTPUT_CLOSED, main

from test_gbasis import COORDS_E8_2_P3


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def subprocess_env(**extra):
    """The environment of a child interpreter that imports the rdpdescent
    under test, whether it is installed or only on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rdpdescent.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def test_analyze_nondescent_example(capsys):
    code, payload, err = run_json(capsys, "analyze", "--char", "2",
                                  "--vars", "x,y,z", "--poly", "z^2+x^3+y^5+y^3*z")
    assert code == 1
    assert payload["verdict"]["outcome"] == "BLOCKED"
    lf = next(c for c in payload["criteria"] if c["id"] == "LENGTH_FORMULA")
    assert lf["witness"]["len_jacobian"] == 10
    assert lf["witness"]["len_bracket"] == 44
    assert err.strip(), "nonzero exits must leave a structured note on stderr"
    json.loads(err.splitlines()[0])


def test_analyze_shape_descends(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--char", "2", "--poly", "z^2+x^3+y^5")
    assert code == 0
    assert payload["verdict"]["outcome"] == "DESCENDS"
    assert payload["verdict"]["reasons"] == ["SHAPE_WITNESS"]


def test_analyze_nonisolated_is_undetermined(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--char", "2", "--poly", "x*y")
    assert code == 0
    assert payload["verdict"]["outcome"] == "UNDETERMINED"
    statuses = {c["id"]: c["status"] for c in payload["criteria"]}
    assert statuses["TJURINA_P_DIVISIBLE"] == "NOT_APPLICABLE"
    assert statuses["LENGTH_FORMULA"] == "NOT_APPLICABLE"


def test_analyze_two_variables(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--char", "2",
                                "--vars", "u,v", "--poly", "u^2+v^3")
    assert code == 0
    statuses = {c["id"]: c["status"] for c in payload["criteria"]}
    assert statuses["INVERTIBLE_SUMMAND"] == "NOT_APPLICABLE"
    assert statuses["THETA_FREE"] == "NOT_APPLICABLE"
    assert statuses["TJURINA_P_DIVISIBLE"] == "PASS"
    assert payload["verdict"]["outcome"] == "DESCENDS"  # u^2 + v^3 splits off u^2


@pytest.mark.parametrize("poly", ["z^2+(x", "x^\u00b2", "\u00b2"])
def test_parse_error_exit_code_and_position(capsys, poly):
    # Non-ASCII digits are not integers: a parse error, never a traceback.
    code, out, err = run(capsys, "analyze", "--char", "2", "--poly", poly)
    assert code == 2
    assert len(err.splitlines()) == 1
    note = json.loads(err)
    assert note["error"] == "parse error"
    assert isinstance(note["position"], int)


def test_variable_power_overflow_is_a_parse_error(capsys):
    code, _, err = run(capsys, "analyze", "--char", "2", "--poly", "z^70000", "--json")
    assert code == 2
    assert len(err.splitlines()) == 1
    note = json.loads(err)
    assert (note["error"], note["position"]) == ("parse error", 2)


def test_product_exponent_overflow_is_a_parse_error(capsys):
    code, _, err = run(capsys, "analyze", "--char", "2", "--poly", "x^40000*x^40000", "--json")
    assert code == 2
    assert len(err.splitlines()) == 1
    note = json.loads(err)
    assert (note["error"], note["position"]) == ("parse error", 7)


def test_bad_characteristic_is_usage_error(capsys):
    code, out, err = run(capsys, "analyze", "--char", "4", "--poly", "x^2")
    assert code == 2


def test_engine_limit_exit_code(capsys):
    code, out, err = run(capsys, "analyze", "--char", "2",
                         "--poly", "z^2+x^3+y^5+y^3*z", "--step-cap", "1")
    assert code == 3
    # No partial report: perfbench/checks.py counts an exit 3 with empty
    # stdout as a failed germ, and a report without its lengths as wrong.
    assert out == ""
    assert len(err.splitlines()) == 1
    note = json.loads(err)
    assert note["error"] == "engine limit"


def test_coords_e8_2_germ_is_decided_blocked(capsys):
    # Its three permuted ideals complete far below this cap, so
    # INVERTIBLE_SUMMAND is decided; J^[p], which needs 71,800 units, fits.
    code, payload, err = run_json(capsys, "analyze", "--char", "3", "--poly", COORDS_E8_2_P3,
                                  "--step-cap", "100000")
    assert code == 1
    assert payload["verdict"]["outcome"] == "BLOCKED"
    summand = next(c for c in payload["criteria"] if c["id"] == "INVERTIBLE_SUMMAND")
    assert summand["status"] == "FAIL"
    assert "INVERTIBLE_SUMMAND" in payload["verdict"]["reasons"]


def test_tables_char2_all_match(capsys):
    code, payload, _ = run_json(capsys, "tables", "--char", "2")
    assert code == 0
    assert payload["all_match"] is True
    assert len(payload["rows"]) == 11
    pairs = [(row["len_j"], row["len_jp"]) for row in payload["rows"]]
    assert pairs == [(8, 32), (6, 28), (14, 56), (12, 48), (10, 40), (8, 35),
                     (16, 64), (14, 56), (12, 48), (10, 44), (8, 37)]


def test_tables_char5_fits_the_work_gate(capsys):
    # The E_8^1 bracket at p = 5 is the largest published completion
    # (1,532 units of work). It fits this cap only with the
    # Gebauer-Moeller pair criteria; a completion over it exits 3.
    code, payload, _ = run_json(capsys, "tables", "--char", "5", "--step-cap", "2000")
    assert code == 0
    assert payload["all_match"] is True


def test_tables_row_of_a_non_isolated_equation():
    # x*y is singular along the z-axis: neither J nor J^[p] is m-primary.
    rec = dataclasses.replace(table_records()[0], equation="x*y")
    row = cli._recompute_row(rec, None)
    assert row["len_j"] == row["len_jp"] == "INFINITE"
    assert row["theta_free"] is None
    assert row["match"] is False


def test_analyze_smooth_germ_is_not_blocked(capsys):
    code, payload, err = run_json(capsys, "analyze", "--char", "3", "--poly", "x+y^2+z^2")
    assert code == 0 and err == ""
    assert payload["verdict"] == {"outcome": "UNDETERMINED", "reasons": []}
    summand = next(c for c in payload["criteria"] if c["id"] == "INVERTIBLE_SUMMAND")
    assert summand == {"id": "INVERTIBLE_SUMMAND", "status": "NOT_APPLICABLE",
                       "witness": {"detail": "the origin is a smooth point"}}


def test_tables_rejects_characteristic_seven(capsys):
    code, out, err = run(capsys, "tables", "--char", "7")
    assert code == 2
    note = json.loads(err.splitlines()[0])
    assert note["error"] == "usage error"
    assert note["message"] == "tables exist for characteristics 2, 3, 5; got 7"


def test_classify_rejects_characteristic_seven(capsys):
    code, out, err = run(capsys, "classify", "--char", "7")
    assert code == 2
    note = json.loads(err.splitlines()[0])
    assert note["error"] == "usage error"
    assert note["message"] == "catalog covers characteristics 2, 3, 5; got 7"


def test_tables_max_n_below_every_row_is_its_own_usage_error(capsys):
    code, out, err = run(capsys, "tables", "--char", "2", "--max-n", "5", "--json")
    assert code == 2
    assert out == ""
    note = json.loads(err.splitlines()[0])
    assert note["error"] == "usage error"
    assert note["message"] == "--max-n must be at least 6, the smallest E-type index; got 5"


def test_tables_honours_step_cap(capsys):
    code, out, err = run(capsys, "tables", "--char", "2", "--step-cap", "1", "--json")
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "engine limit"


def test_classify_char2_summary(capsys):
    code, payload, _ = run_json(capsys, "classify", "--char", "2", "--max-n", "8")
    assert code == 0
    assert payload["all_match"] is True
    assert payload["descending"] == ["A_1", "A_3", "A_7", "D_4^0", "D_5^0",
                                     "D_6^0", "D_7^0", "D_8^0", "E_7^0", "E_8^0"]
    assert payload["notes"] and payload["notes"][0]["label"] == "E_6^0"


def test_classify_char2_fits_the_work_gate(capsys):
    # The largest single completion of the sweep up to n = 30 at p = 2
    # spends 46 units of work; a completion over this cap exits 3.
    code, payload, _ = run_json(capsys, "classify", "--char", "2", "--max-n", "30",
                                "--step-cap", "60")
    assert code == 0
    assert payload["all_match"] is True


def test_classify_finishes_under_an_engine_limit(capsys):
    # A limit in one record's battery marks that row and the run goes on.
    _, full, _ = run_json(capsys, "classify", "--char", "2", "--max-n", "8")
    code, payload, err = run_json(capsys, "classify", "--char", "2", "--max-n", "8",
                                  "--step-cap", "40")
    assert code == 3
    assert [json.loads(line) for line in err.splitlines()] == \
        [{"error": "engine limit during classification"}]
    assert [row["label"] for row in payload["rows"]] == [row["label"] for row in full["rows"]]
    limited = [row for row in payload["rows"] if "engine_limit" in row]
    assert limited and payload["all_match"] is False
    for row in limited:
        assert row["verdict"] == "UNDETERMINED" and row["reasons"] == [] and row["match"] is False
        assert row["engine_limit"].startswith("engine step cap of 40 exceeded")


def test_oracle_subcommand(capsys):
    code, payload, _ = run_json(capsys, "oracle", "--char", "2",
                                "--gens", "x^2,y^4+y^2*z,y^3,z^2+x^3+y^5+y^3*z")
    assert code == 0
    assert payload["engine_length"] == 10
    assert payload["oracle_length"] == 10
    assert payload["agree"] is True


def test_oracle_trivial(capsys):
    code, payload, _ = run_json(capsys, "oracle", "--char", "2", "--gens", "x,y,z")
    assert code == 0
    assert payload["engine_length"] == 1 and payload["oracle_length"] == 1


@pytest.mark.parametrize("gens, position", [("x^2,y^^2", 6), ("x,", 2)])
def test_oracle_parse_error_positions_are_offsets_into_gens(capsys, gens, position):
    code, out, err = run(capsys, "oracle", "--char", "2", "--gens", gens, "--json")
    assert code == 2 and out == ""
    [line] = err.splitlines()
    note = json.loads(line)
    assert note["error"] == "parse error" and note["position"] == position


@pytest.mark.parametrize("gens, cap", [("1+x", "2"), ("0", "-7")])
def test_oracle_degree_cap_is_checked_for_trivial_ideals(capsys, gens, cap):
    code, out, err = run(capsys, "oracle", "--char", "2", "--gens", gens,
                         "--degree-cap", cap, "--json")
    assert code == 2 and out == ""
    [line] = err.splitlines()
    note = json.loads(line)
    assert note["error"] == "usage error" and "degree cap" in note["message"]


def test_oracle_degree_cap_is_checked_before_the_engine_runs(capsys, monkeypatch):
    completions = []
    complete_basis = ideals.complete_basis

    def counted(*args, **kwargs):
        completions.append(args)
        return complete_basis(*args, **kwargs)

    monkeypatch.setattr(ideals, "complete_basis", counted)
    code, out, err = run(capsys, "oracle", "--char", "2",
                         "--gens", "x^2,y^4+y^2*z,y^3,z^2+x^3+y^5+y^3*z", "--degree-cap", "2")
    assert code == 2 and out == "" and completions == []
    assert json.loads(err)["error"] == "usage error"


def test_oracle_bad_degree_cap_wins_over_an_engine_limit(capsys):
    code, out, err = run(capsys, "oracle", "--char", "2", "--gens", "x^2+y^3,x*y^2+x^2*z,z^2",
                         "--degree-cap", "2", "--step-cap", "3", "--json")
    assert code == 2 and out == ""
    [line] = err.splitlines()
    note = json.loads(line)
    assert note["error"] == "usage error" and "degree cap" in note["message"]


def test_oracle_on_the_zero_ideal(capsys):
    code, payload, err = run_json(capsys, "oracle", "--char", "2", "--gens", "0")
    assert code == 0 and err == ""
    assert payload["engine_length"] == "INFINITE"
    assert payload["oracle_length"] == "UNSTABLE"
    assert payload["agree"] is None


def test_oracle_e6_0_bracket(capsys):
    code, payload, _ = run_json(
        capsys, "oracle", "--char", "2",
        "--gens", "x^4,y^4,z^2+x^3+y^2*z")  # squares of E_6^0 partials, plus f
    assert code == 0
    assert payload["engine_length"] == 32 and payload["oracle_length"] == 32


def _both_routes(report):
    return report["engine_length"], report["oracle_length"]


def _tjurina(report):
    tj = next(c for c in report["criteria"] if c["id"] == "TJURINA_P_DIVISIBLE")
    return tj["witness"]["tjurina"]


TEN = [f"v{i}" for i in range(10)]

# Each entry is a command line run with --json, its exit code and, where no
# other test pins it, a figure of its report with the figure's value.  Only
# the analyze entries exit 1 (BLOCKED); for tables, classify and oracle, 1
# means a mismatch or a disagreement.
CROSS_PROCESS = [
    ("tables --char 5", 0, None, None),
    ("classify --char 3 --max-n 30", 0, None, None),
    ("classify --char 5 --max-n 30", 0, None, None),
    # wall-clock timings appear only in text mode
    ("analyze --char 2 --vars x,y,z --poly z^2+x^3+y^5+y^3*z", 1,
     lambda report: report["timings_ms"], {}),
    # a staircase in ten variables: at p = 2, J = (v_i^2)
    (f"analyze --char 2 --vars {','.join(TEN)} --poly {'+'.join(v + '^3' for v in TEN)}", 1,
     _tjurina, 2 ** 10),
    ("oracle --char 2 --gens x^2,y^4+y^2*z,y^3,z^2+x^3+y^5+y^3*z", 0, None, None),
    # the E_8^1 J^[p]: runs at degrees 22 and 33, coefficients other than 1
    ("oracle --char 5 --gens 3*x^10+y^20,4*x^5*y^15,2*z^5,z^2+x^3+x*y^4+y^5", 0,
     _both_routes, (239, 239)),
    # oracle columns keyed in one and in four variables
    ("oracle --char 3 --vars x --gens x^5", 0, _both_routes, (5, 5)),
    ("oracle --char 2 --vars a,b,c,d --gens a^2,b^2,c^2,d^2+a*b", 0, _both_routes, (16, 16)),
    # a four-variable J^[p]
    ("oracle --char 2 --vars a,b,c,d --gens a^4,b^4,c^4,d^4,a^3+b^3+c^3+d^3", 0, None, None),
]


@pytest.mark.parametrize("command, expected, figure, value", CROSS_PROCESS,
                         ids=[entry[0].replace(" ", "_") for entry in CROSS_PROCESS])
def test_json_output_is_byte_identical_across_processes(command, expected, figure, value):
    # Two fresh interpreters with different string hashes: no order that
    # hangs on a hash, or state that one process keeps, may reach the report.
    argv = [sys.executable, "-m", "rdpdescent.cli", *command.split(), "--json"]
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=subprocess_env(PYTHONHASHSEED=seed))
             for seed in ("0", "1")]
    (first, err), (second, _) = (proc.communicate(timeout=120) for proc in procs)
    assert [proc.returncode for proc in procs] == [expected, expected], err
    assert first == second
    if figure is not None:
        assert figure(json.loads(first)) == value


def test_text_output_mentions_note_for_e6_0(capsys):
    code, out, err = run(capsys, "classify", "--char", "2", "--max-n", "4")
    assert code == 0
    assert "E_6^0" in out
    assert "discrepancy" in out or "note" in out.lower()


def test_analyze_text_mode(capsys):
    code, out, err = run(capsys, "analyze", "--char", "2", "--vars", "x,y,z",
                         "--poly", "z^2+x^3+y^5+y^3*z")
    assert code == 1
    assert out.startswith("equation: z^2+x^3+y^3*z+y^5   (p = 2, vars = x,y,z)\n")
    assert "verdict: BLOCKED  [LENGTH_FORMULA, THETA_FREE, INVERTIBLE_SUMMAND]\n" in out
    assert "elapsed: " in out
    [line] = err.splitlines()
    assert json.loads(line)["verdict"] == "BLOCKED"


def test_analyze_over_the_step_cap_prints_the_report_and_exits_3(capsys):
    code, out, err = run(capsys, "analyze", "--char", "2",
                         "--poly", "z^2+x^3+y^5+y^3*z", "--step-cap", "6")
    assert code == 3
    statuses = {line.split()[0]: line.split()[1] for line in out.splitlines()
                if line.startswith("  ")}
    assert len(statuses) == 8
    assert statuses["INVERTIBLE_SUMMAND"] == "UNDECIDED"
    assert "verdict: BLOCKED  [LENGTH_FORMULA, THETA_FREE]\n" in out
    [line] = err.splitlines()
    assert json.loads(line) == {"error": "engine limit", "verdict": "BLOCKED"}


# E_8^0, z^2 + x^3 + y^5, at p = 5 after the change of coordinates
# [[4, 3, 3], [3, 4, 0], [4, 4, 0]], expanded over F_5.  Its J^[p]
# completion fits the default step cap only because the reduction below
# its corner is plain division; Mora's rule there runs past the cap.
E8_0_P5_MOVED = ("3*x*x*x*x*x+4*x*x*x+4*x*x*y+4*x*x*z+x*x+3*x*y*y+x*y*z+2*x*y+3*x*z*z"
                 "+4*y*y*y*y*y+2*y*y*y+y*y*z+y*y+y*z*z+2*z*z*z")


def test_analyze_e8_0_in_moved_coordinates_at_p5(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--char", "5", "--vars", "x,y,z",
                                "--poly", E8_0_P5_MOVED)
    assert code == 0
    witness = next(c["witness"] for c in payload["criteria"] if c["id"] == "LENGTH_FORMULA")
    # the published E_8^0 row at p = 5: tau = 10, l(O/J^[p]) = 250
    assert (witness["len_jacobian"], witness["len_bracket"]) == (10, 250)
    tjurina = next(c["witness"] for c in payload["criteria"] if c["id"] == "TJURINA_P_DIVISIBLE")
    assert tjurina["tjurina"] == 10


def test_tables_text_mode(capsys):
    code, out, err = run(capsys, "tables", "--char", "3")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "E-type rational double points, characteristic 3"
    assert lines[1].split() == ["class", "equation", "pi1", "computed", "stored", "theta", "match"]
    assert lines[3].split() == ["E_6^0", "z^2+x^3+y^4", "0", "9,81", "9,81", "yes/yes", "ok"]
    assert lines[-1] == "all rows match"


def test_oracle_text_mode(capsys):
    code, out, err = run(capsys, "oracle", "--char", "2",
                         "--gens", "x^2,y^4+y^2*z,y^3,z^2+x^3+y^5+y^3*z")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "generators: x^2, y^2*z+y^4, y^3, z^2+x^3+y^3*z+y^5  (p = 2)",
        "engine length: 10", "oracle length: 10", "lengths agree"]
    code, out, err = run(capsys, "oracle", "--char", "2", "--gens", "x,y")
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == [
        "engine length: INFINITE",
        "oracle length: UNSTABLE (no stabilization below degree cap 64)"]


def test_group_power_is_accepted(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--char", "2", "--poly", "(x+y)^2+z^3")
    _, expanded, _ = run_json(capsys, "analyze", "--char", "2", "--poly", "(x+y)*(x+y)+z^3")
    assert code != 2
    assert payload == expanded


def test_deep_nesting_is_a_parse_error(capsys):
    code, out, err = run(capsys, "analyze", "--char", "2",
                         "--poly", "(" * 3000 + "x" + ")" * 3000, "--json")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    note = json.loads(lines[0])
    assert note["error"] == "parse error"
    assert "nested" in note["message"]


def test_nonpositive_step_cap_is_a_usage_error(capsys):
    for cap in ("0", "-1"):
        code, out, err = run(capsys, "analyze", "--char", "2",
                             "--poly", "z^2+x^3+y^5+y^3*z", "--step-cap", cap, "--json")
        assert code == 2, cap
        assert out == "", cap
        note = json.loads(err.splitlines()[0])
        assert note["error"] == "usage error" and "--step-cap" in note["message"], cap


@pytest.mark.parametrize("argv", [
    ("tables", "--char", "2", "--vars", "a,b"),
    ("classify", "--char", "3", "--max-n", "5", "--vars", "q"),
])
def test_vars_is_refused_where_the_catalog_fixes_the_variables(capsys, argv):
    # tables and classify run the catalog's x, y, z equations, so a --vars
    # there could only be ignored.
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2
    assert out == "" and "--vars" in err



@pytest.mark.parametrize("argv", [
    ("analyze", "--char", "2", "--json"),
    ("tables", "--char", "2", "--vars", "a,b", "--json"),
    ("classify", "--char", "x"),
    (),
])
def test_command_line_errors_leave_one_json_note(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert json.loads(line)["error"] == "usage error"


def test_help_exits_zero_and_quietly(capsys):
    code, out, err = run(capsys, "tables", "--help")
    assert code == 0
    assert "--max-n" in out and err == ""

def test_oracle_reads_vars(capsys):
    code, payload, _ = run_json(capsys, "oracle", "--char", "2", "--vars", "u,v",
                                "--gens", "u^2,v^3")
    assert code == 0
    assert payload["input"]["vars"] == ["u", "v"]
    assert payload["engine_length"] == payload["oracle_length"] == 6


def test_analyze_in_twelve_variables(capsys):
    # at p = 2, J = (v_i^2), so the Tjurina number is 2^12
    names = [f"v{i}" for i in range(12)]
    code, payload, _ = run_json(capsys, "analyze", "--char", "2", "--vars", ",".join(names),
                                "--poly", "+".join(f"{v}^3" for v in names))
    assert code == 1
    assert payload["verdict"]["outcome"] == "BLOCKED"
    tj = next(c for c in payload["criteria"] if c["id"] == "TJURINA_P_DIVISIBLE")
    assert tj["witness"]["tjurina"] == 4096


def test_oracle_on_a_four_variable_bracket(capsys):
    code, payload, _ = run_json(capsys, "oracle", "--char", "2", "--vars", "a,b,c,d",
                                "--gens", "a^4,b^4,c^4,d^4,a^3+b^3+c^3+d^3")
    assert code == 0
    assert payload["engine_length"] == payload["oracle_length"] == 136


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        assert run(capsys, "oracle", "--char", "3", "--gens", "x+1,y", "--json")[0] == 0
    assert built == []


def test_closed_stdout_ends_with_a_note_and_no_traceback():
    # The reader takes one line and closes the pipe, as `| head -1` does.
    # The pipe holds one page, less than the report, so the writer is
    # still writing when the pipe closes.
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("sizing a pipe needs Linux")
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "rdpdescent.cli", "classify", "--char", "2", "--max-n", "30"],
        stdout=write_end, stderr=subprocess.PIPE, env=subprocess_env())
    os.close(write_end)
    with os.fdopen(read_end, "rb") as out:
        assert out.readline().startswith(b"classification, characteristic 2")
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_OUTPUT_CLOSED == 141
    assert b"Traceback" not in err
    lines = err.decode().splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "output closed"


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# Runs in a child, since the tracer rewraps module attributes for good:
# argv[1] is the perfbench directory, argv[2] the command lines as JSON.
TRACED = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import spans, workloads
from rdpdescent import cli
tracer = spans.Tracer()
spans.install(tracer)
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv + ["--json"]))
print(json.dumps({
    "codes": codes,
    "row_functions": {name: hasattr(cli, name)
                      for _, name in workloads.WORKLOADS.values() if name},
    "layers": spans.layer_metrics(tracer),
}))
"""


def test_traced_runs_find_every_name_the_benchmark_wraps():
    # perfbench/spans.py wraps rdpdescent functions by module attribute
    # (criteria.contains, cli.local_length, ideals.normal_form, ...), and
    # perfbench/workloads.py names the cli function timed per row, so a
    # rename in src/ breaks the benchmark's traced runs.  Nothing is written
    # under perfbench/.
    commands = {"analyze --char 2 --poly z^2+x^3+y^5+y^3*z": 1,
                "tables --char 2": 0,
                "classify --char 2 --max-n 4": 0,
                "oracle --char 2 --gens x^2,y^4+y^2*z,y^3,z^2+x^3+y^5+y^3*z": 0}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED, PERFBENCH, json.dumps([c.split() for c in commands])],
        capture_output=True, text=True, timeout=120,
        env=subprocess_env(PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == list(commands.values())
    assert report["row_functions"] == {"_recompute_row": True, "run_battery": True}
    for name in ("parse.calls", "ideals.completions", "gbasis.normal_form_calls",
                 "gbasis.count_calls", "oracle.calls"):
        assert report["layers"][name] > 0, name
