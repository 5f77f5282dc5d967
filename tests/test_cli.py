import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cozero
from cozero import report as report_mod
from cozero.cli import main
from cozero.report import WienerReport
from cozero.ringspec import parse_ring_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wiener_plain(capsys):
    code, out, _ = run(capsys, "wiener", "Z(100)")
    assert code == 0
    assert "wiener=2954" in out
    assert "status=value" in out


def test_wiener_json_keeps_value_as_string(capsys):
    code, out, _ = run(capsys, "wiener", "F(289,343)", "--method", "closed", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["wiener"] == "297774"
    assert payload[0]["status"] == "value"


def test_wiener_json_roundtrips_beyond_float_precision(capsys):
    # A value past 2**53 would silently lose digits as a JSON number.
    code, out, _ = run(capsys, "wiener", "F(10007,10009,10037)", "--format", "json")
    assert code == 0
    value = int(json.loads(out)[0]["wiener"])
    assert value > 2**53
    from cozero.closedform import wiener_reduced

    assert value == wiener_reduced((10007, 10009, 10037)).wiener


def test_wiener_disconnected_exit_code(capsys):
    code, out, _ = run(capsys, "wiener", "Z(8)")
    assert code == 2
    assert "disconnected" in out


def test_wiener_empty_graph_exit_code(capsys):
    code, out, _ = run(capsys, "wiener", "Z(7)")
    assert code == 0
    assert "empty_graph" in out


def test_wiener_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "wiener", "F(6,25)")
    assert code == 1
    assert "6 is not a prime power" in err


def test_wiener_unprovable_prime_fails_fast(capsys):
    # 2**89 - 1 is prime but lies beyond the Miller-Rabin bound psi_13.
    start = time.perf_counter()
    code, out, err = run(capsys, "wiener", f"F({2**89 - 1})")
    elapsed = time.perf_counter() - start
    assert code == 1
    assert out == ""
    assert "3317044064679887385961981" in err
    assert elapsed < 1.0


def test_wiener_unknown_method_is_usage_error(capsys):
    code, _, err = run(capsys, "wiener", "Z(6)", "--method", "magic")
    assert code == 1
    assert "invalid choice" in err


def test_wiener_brute_limit_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("COZERO_BRUTE_LIMIT", "50")
    code, _, err = run(capsys, "wiener", "Z(100)", "--method", "brute")
    assert code == 1
    assert "limit" in err
    code, out, _ = run(capsys, "wiener", "Z(100)", "--method", "brute", "--brute-limit", "200")
    assert code == 0
    assert "wiener=2954" in out


def test_negative_brute_limit_is_rejected(capsys, monkeypatch):
    code, out, err = run(capsys, "wiener", "Z(12)", "--method", "brute", "--brute-limit", "-5")
    assert code == 1
    assert out == ""
    assert "--brute-limit" in err and "non-negative" in err
    monkeypatch.setenv("COZERO_BRUTE_LIMIT", "-5")
    code, out, err = run(capsys, "wiener", "Z(12)", "--method", "brute")
    assert code == 1
    assert out == ""
    assert "COZERO_BRUTE_LIMIT" in err and "non-negative" in err


def test_compare_agreement(capsys):
    code, out, _ = run(capsys, "compare", "ZxZ(2,4,9)")
    assert code == 0
    assert out.count("2611") >= 3
    assert "all methods agree" in out


def test_compare_includes_crt_cross_check(capsys):
    code, out, _ = run(capsys, "compare", "Z(36)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    methods = [r["method"] for r in payload["records"]]
    assert "quotient[crt]" in methods
    assert {r["wiener"] for r in payload["records"]} == {"420"}


def test_compare_empty_graph(capsys):
    code, out, _ = run(capsys, "compare", "Z(7)")
    assert code == 0
    assert "empty_graph" in out


def test_compare_skips_brute_over_limit(capsys):
    code, out, _ = run(capsys, "compare", "Z(150)", "--brute-limit", "100")
    assert code == 0
    assert "brute skipped" in out


def test_compare_detects_mismatch(capsys, monkeypatch):
    import cozero.cli as cli_mod

    def bogus(spec):
        return WienerReport(
            status=report_mod.STATUS_VALUE,
            method="quotient",
            vertex_count=59,
            class_count=7,
            component_count=1,
            wiener=1,
            diameter=3,
        )

    monkeypatch.setattr(cli_mod, "wiener_quotient", bogus)
    code, out, _ = run(capsys, "compare", "Z(100)")
    assert code == 3
    assert "MISMATCH" in out


def test_table_zn_default_markdown(capsys):
    code, out, _ = run(capsys, "table", "zn")
    assert code == 0
    assert "| 2954 | 77174 | 306202 | 930248 | 1222530 | 1946274 |" in out


def test_table_zn_custom_param(capsys):
    code, out, _ = run(capsys, "table", "zn", "12", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,wiener", "12,34"]


def test_table_fields3_csv(capsys):
    code, out, _ = run(capsys, "table", "fields3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q1,q2,q3,wiener"
    assert "289,343,361,71251552134" in lines
    assert "7,8,13,35196" in lines


def test_table_ppprod_defaults(capsys):
    code, out, _ = run(capsys, "table", "ppprod")
    assert code == 0
    assert "| ZxZ(2,4,9,9) | 232937 |" in out
    assert "| ZxZ(3,4,8,8) | 333963 |" in out
    assert out.count("|") > 20


def test_table_rejects_bad_tuple(capsys):
    code, _, err = run(capsys, "table", "fields2", "9", "--format", "csv")
    assert code == 1
    assert "expects 2" in err


def test_table_zn_rejects_non_integer(capsys):
    code, _, err = run(capsys, "table", "zn", "abc")
    assert code == 1
    assert "zn: 'abc' is not an integer" in err
    assert "invalid literal" not in err


def test_classes_listing(capsys):
    code, out, _ = run(capsys, "classes", "Z(12)")
    assert code == 0
    assert "4 classes" in out
    assert "key=2  size=2" in out
    assert "2~3" in out


def test_classes_json(capsys):
    code, out, _ = run(capsys, "classes", "F(3,5,7)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 6
    sizes = sorted(c["size"] for c in payload["classes"])
    assert sizes == [2, 4, 6, 8, 12, 24]


def test_classes_md_table(capsys):
    code, out, _ = run(capsys, "classes", "Z(12)", "--format", "md")
    assert code == 0
    assert out.splitlines() == [
        "| key | size | degree |",
        "| --- | --- | --- |",
        "| 2 | 2 | 1 |",
        "| 3 | 2 | 2 |",
        "| 4 | 2 | 2 |",
        "| 6 | 1 | 1 |",
    ]


def test_classes_md_without_classes_prints_the_header(capsys):
    code, out, _ = run(capsys, "classes", "Z(2)", "--format", "md")
    assert code == 0
    assert out == "| key | size | degree |\n| --- | --- | --- |\n"


def test_export_graph_edgelist(capsys):
    code, out, _ = run(capsys, "export-graph", "Z(6)", "--graph-format", "edgelist")
    assert code == 0
    assert out == "2 3\n3 4\n"


def test_export_graph_dot(capsys):
    code, out, _ = run(capsys, "export-graph", "Z(4)")
    assert code == 0
    assert out == 'graph {\n  "2";\n}\n'


@pytest.mark.parametrize(
    "argv",
    [
        ("export-graph", "Z(6)", "--format", "json"),
        ("table", "zn", "12", "--brute-limit", "3"),
        ("classes", "Z(6)", "--brute-limit", "3"),
        ("bench", "zn", "--max", "5"),
        ("bench", "fields2", "--n", "5"),
    ],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "wiener", "Z(100)", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["wiener"] == "2954"


def test_out_to_missing_directory_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "wiener", "Z(100)", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.exists()


def test_bench_zn_csv(capsys):
    code, out, _ = run(capsys, "bench", "zn", "100", "500", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("ring,method,")
    rows = [line.split(",") for line in lines[1:]]
    assert {r[0] for r in rows} == {"Z(100)", "Z(500)"}
    assert {r[1] for r in rows} == {"brute", "quotient", "closed"}
    assert all(r[3] in ("2954", "77174") for r in rows)


def test_bench_only_method(capsys):
    code, out, _ = run(capsys, "bench", "zn", "2500", "--only", "quotient", "--format", "csv")
    assert code == 0
    assert "Z(2500),quotient,value,1946274" in out


def test_bench_takes_the_table_params(capsys):
    for argv, ring, wiener in ((("fields2", "9,25"), "F(9,25)", "800"), (("ppprod", "4,9"), "ZxZ(4,9)", "420")):
        code, out, _ = run(capsys, "bench", *argv, "--only", "closed", "--format", "json")
        assert code == 0
        assert [(r["ring"], r["method"], r["wiener"]) for r in json.loads(out)] == [(ring, "closed", wiener)]
    code, out, err = run(capsys, "bench", "fields2", "9", "--only", "closed")
    assert code == 1
    assert out == ""
    assert "expects 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("wiener", "F(9,25)"),
        ("wiener", "ZxZ(2,4,9)", "--method", "brute"),
        ("compare", "Z(36)"),
        ("compare", "ZxZ(2,4,9)"),
        ("bench", "fields2", "9,25", "--only", "closed"),
        ("bench", "ppprod", "4,9", "2,4,9"),
        ("table", "fields3"),
        ("table", "ppprod"),
    ],
    ids=" ".join,
)
def test_csv_rows_have_the_header_width(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    if argv[0] == "compare":
        # The csv table sits between a title line and the agreement line.
        lines = lines[1:-1]
    rows = list(csv.reader(lines))
    assert len(rows) > 1
    assert all(len(row) == len(rows[0]) for row in rows)
    if rows[0][0] == "ring":
        # Each ring cell holds one whole ring name.
        assert all(str(parse_ring_spec(row[0])) == row[0] for row in rows[1:])


def test_bench_defaults_are_the_reference_tables(capsys):
    tables = {
        "zn": {
            "Z(100)": 2954,
            "Z(500)": 77174,
            "Z(1000)": 306202,
            "Z(1500)": 930248,
            "Z(2000)": 1222530,
            "Z(2500)": 1946274,
        },
        "fields2": {
            "F(9,25)": 800,
            "F(49,81)": 12416,
            "F(101,121)": 36180,
            "F(125,139)": 51270,
            "F(163,169)": 81354,
            "F(289,343)": 297774,
        },
        "fields3": {
            "F(7,8,13)": 35196,
            "F(9,25,49)": 2500400,
            "F(53,64,81)": 108637254,
            "F(83,101,121)": 620456582,
            "F(125,131,169)": 2355211790,
            "F(289,343,361)": 71251552134,
        },
        "ppprod": {
            "ZxZ(4,9)": 420,
            "ZxZ(9,25)": 8808,
            "ZxZ(16,25)": 48870,
            "ZxZ(27,49)": 268022,
            "ZxZ(2,4,4)": 521,
            "ZxZ(5,7,11)": 14948,
            "ZxZ(8,9,16)": 666221,
            "ZxZ(4,9,25)": 327394,
            "ZxZ(2,4,9,9)": 232937,
            "ZxZ(3,4,8,8)": 333963,
        },
    }
    for family, table in tables.items():
        code, out, _ = run(capsys, "bench", family, "--only", "closed", "--format", "json")
        assert code == 0, family
        assert [(r["ring"], int(r["wiener"])) for r in json.loads(out)] == list(table.items())


def test_bad_brute_limit_env_fails_only_where_brute_runs(capsys, monkeypatch):
    monkeypatch.setenv("COZERO_BRUTE_LIMIT", "abc")
    for only in ("closed", "quotient"):
        code, out, err = run(capsys, "bench", "fields2", "--only", only)
        assert (code, err) == (0, ""), only
        assert "F(289,343)" in out
    code, out, err = run(capsys, "compare", "Z(12)")
    assert code == 1
    assert out == ""
    assert err == "error: COZERO_BRUTE_LIMIT must be an integer, got 'abc'\n"


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "wiener" in out and "compare" in out and "bench" in out


def test_python_dash_m_runs_the_cli():
    # The package's own parent directory goes first on the path, so this runs
    # the checkout under test whether or not cozero is installed.
    src = str(Path(cozero.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "cozero", "wiener", "Z(100)"], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "wiener=2954" in proc.stdout


def test_missing_command_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
