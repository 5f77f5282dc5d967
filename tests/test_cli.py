import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import SEMIPRIME_300_DIGITS
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cozero
from cozero import report as report_mod
from cozero.cli import main
from cozero.closedform import wiener_closed
from cozero.numtheory import PSI_13
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
    code, out, err = run(capsys, "wiener", "Z(12)", "--method", "brute", "--brute-limit", "abc")
    assert code == 1
    assert out == ""
    assert "--brute-limit" in err and "invalid int value: 'abc'" in err
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
            excess=0,
        )

    monkeypatch.setattr(cli_mod, "wiener_quotient", bogus)
    code, out, _ = run(capsys, "compare", "Z(100)")
    assert code == 3
    assert "MISMATCH" in out
    code, out, err = run(capsys, "bench", "zn", "100", "--format", "csv")
    assert code == 3
    assert out.count("Z(100),") == 3
    assert err.startswith("MISMATCH on Z(100): ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "field, ring, step",
    [
        pytest.param("edge_count", "Z(36)", 1, id="edge_count"),
        # A report's status must match its component count, so the planted
        # count keeps the status: Z(27) has 8 isolated vertices, and 7
        # components still read "disconnected".
        pytest.param("component_count", "Z(27)", -1, id="component_count"),
        # ZxZ(8,9,16) has 1304 vertex pairs at distance 3.
        pytest.param("excess", "ZxZ(8,9,16)", 1, id="excess"),
    ],
)
def test_compare_checks_every_outcome_field(capsys, monkeypatch, field, ring, step):
    import cozero.cli as cli_mod

    def off_by_one(spec):
        report = wiener_closed(spec)
        return dataclasses.replace(report, **{field: getattr(report, field) + step})

    monkeypatch.setattr(cli_mod, "wiener_closed", off_by_one)
    code, out, _ = run(capsys, "compare", ring)
    assert code == 3
    mismatches = out.split("MISMATCH:\n")[1].splitlines()
    assert [line.split(":")[0].strip() for line in mismatches] == [field]


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


# A spec's body and a table or bench param follow one integer rule: decimal
# digits only, and at most 4300 of them (`ringspec.MAX_DIGITS`), refused at
# once by the length of the text with the number cut to its ends.
@pytest.mark.parametrize(
    "argv,message",
    [
        (["table", "zn", "1_000"], "zn: '1_000' is not an integer"),
        (["table", "zn", "+12"], "zn: '+12' is not an integer"),
        (["table", "zn", " 12"], "zn: ' 12' is not an integer"),
        (["table", "fields2", "9,+25"], "fields2: '9,+25' is not a comma-separated integer tuple"),
        (["bench", "ppprod", "2,1_0"], "ppprod: '2,1_0' is not a comma-separated integer tuple"),
        (["wiener", "Z(1_000)"], "'1_000' is not a positive integer"),
        (["table", "zn", "1" + "0" * 4400], "error: 100000...000000 (4401 digits) is over the limit of 4300 digits"),
        (["bench", "fields2", "9," + "1" * 4301], "error: 111111...111111 (4301 digits) is over the limit of 4300 digits"),
        (["wiener", "Z(" + "7" * 5000 + ")"], "error: 777777...777777 (5000 digits) is over the limit of 4300 digits"),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_specs_and_params_share_one_integer_rule(capsys, argv, message):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert message in err and err.count("\n") == 1 and len(err) < 200, err
    assert time.perf_counter() - t0 < 1


@contextlib.contextmanager
def _digit_limit(limit):
    """The interpreter's limit on the decimal digits of an int set to `limit` (0: none), then restored."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "spec",
    [f"Z({3 * 2**14000})", "F(" + ",".join(["2"] * 8000) + ")"],
    ids=["Z(3*2^14000)", "F(2)^8000"],
)
def test_a_wiener_index_past_the_digit_limit_is_printed_whole(capsys, spec):
    # W has more than the 4300 digits Python writes by default; the spec does not.
    expected = wiener_closed(parse_ring_spec(spec))
    limit = sys.get_int_max_str_digits()
    plain = run(capsys, "wiener", spec)
    as_json = run(capsys, "wiener", spec, "--format", "json")
    assert sys.get_int_max_str_digits() == limit
    with _digit_limit(0):
        assert len(str(expected.wiener)) > 4300
        assert plain[0] == 0 and f"wiener={expected.wiener} " in plain[1], plain[2]
        record = json.loads(as_json[1])[0]
        assert (record["wiener"], record["vertices"]) == (str(expected.wiener), expected.vertex_count)


def test_every_format_renders_past_a_lowered_digit_limit_and_keeps_it(capsys):
    # W of Z(3 * 2**2000) has 1206 digits, past a limit of 1000; the spec's 603 digits are not.
    spec = f"Z({3 * 2**2000})"
    expected = wiener_closed(parse_ring_spec(spec)).wiener
    with _digit_limit(1000):
        outputs = [run(capsys, "wiener", spec, "--format", fmt) for fmt in ("plain", "json", "csv", "md")]
        outputs.append(run(capsys, "table", "zn", str(3 * 2**2000), "--format", "json"))
        assert sys.get_int_max_str_digits() == 1000
    with _digit_limit(0):
        for code, out, err in outputs:
            assert code == 0 and str(expected) in out, err


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


@pytest.mark.parametrize("fmt", ["csv", "md"])
def test_classes_tables_list_no_edges(capsys, monkeypatch, fmt):
    # csv and md print no class edge, so they never list them: on F(2)^14
    # the list is 129 M pairs.
    from cozero.quotient import QuotientGraph

    code, expected, _ = run(capsys, "classes", "ZxZ(4,6)", "--format", fmt)
    assert code == 0

    def no_edges(self):
        raise AssertionError("edges listed for a format that prints none")

    monkeypatch.setattr(QuotientGraph, "edges", no_edges)
    assert run(capsys, "classes", "ZxZ(4,6)", "--format", fmt) == (0, expected, "")


@pytest.mark.parametrize(
    "argv, route, named",
    [
        (["wiener", "F(2,2,2)", "--method", "quotient"], "wiener_quotient", "wiener F(2,2,2)"),
        (["classes", "Z(12)"], "build_quotient_graph", "classes Z(12)"),
        (["table", "zn", "100"], "wiener_closed", "table zn 100"),
    ],
)
def test_out_of_memory_is_one_error_line(capsys, monkeypatch, argv, route, named):
    # A route that runs out of memory exits 1 with one `error:` line naming
    # the command and the ring, not a traceback.
    import cozero.cli as cli_mod

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli_mod, route, exhausted)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {named}: out of memory\n"


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
    ("argv", "exit_code"),
    [
        pytest.param(argv, exit_code, id=" ".join(argv))
        for argv, exit_code in (
            (("wiener", "F(9,25)"), 0),
            (("wiener", "ZxZ(2,4,9)", "--method", "brute"), 0),
            (("wiener", "Z(8)"), 2),  # disconnected
            (("wiener", "Z(7)"), 0),  # empty graph
            (("compare", "Z(36)"), 0),
            (("compare", "ZxZ(2,4,9)"), 0),
            (("bench", "fields2", "9,25", "--only", "closed"), 0),
            (("bench", "ppprod", "4,9", "2,4,9"), 0),
            (("table", "fields3"), 0),
            (("table", "ppprod"), 0),
            (("classes", "ZxZ(2,4,9)"), 0),  # tuple keys hold commas
        )
    ],
)
def test_csv_rows_have_the_header_width(capsys, argv, exit_code):
    # The output contract of every format: json parses, and every csv or md
    # row has as many cells as its header.
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == exit_code
    json.loads(out)
    for fmt in ("csv", "md"):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == exit_code
        lines = out.splitlines()
        if argv[0] == "compare":
            # The table sits between a title line and the agreement line.
            lines = lines[1:-1]
        if fmt == "md":
            assert lines[1].startswith("| --- |")
            rows = [[cell.strip() for cell in line.split("|")[1:-1]] for line in lines if line != lines[1]]
        else:
            rows = list(csv.reader(lines))
        assert len(rows) > 1
        assert all(len(row) == len(rows[0]) for row in rows), fmt
        if rows[0][0] == "ring":
            # Each ring cell holds one whole ring name.
            assert all(str(parse_ring_spec(row[0])) == row[0] for row in rows[1:]), fmt


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


def test_a_300_digit_modulus_fails_within_seconds(capsys):
    # Rho's step budget shrinks with the square of the piece's length, so a
    # modulus it cannot split fails in under a second, not a minute.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "wiener", f"Z({SEMIPRIME_300_DIGITS})")
    elapsed = time.perf_counter() - t0
    assert code == 1
    assert out == ""
    assert err.startswith("error: Pollard rho did not split ") and err.count("\n") == 1
    assert len(err) < 200 and "(300 digits)" in err, err
    assert elapsed < 5, f"took {elapsed:.1f} s"


def test_an_unprovable_prime_of_386_digits_fails_on_one_short_line(capsys):
    # The Mersenne prime 2**1279 - 1 passes Miller-Rabin far above psi_13;
    # the message names it by its ends and its length, not all its digits.
    code, out, err = run(capsys, "wiener", f"Z({2**1279 - 1})")
    assert code == 1
    assert out == ""
    assert err == (
        "error: 104079...729087 (386 digits) passes Miller-Rabin over bases 2..41, "
        f"which proves primality only below psi_13 = {PSI_13}\n"
    )
    assert len(err) < 200


# Each number of components with the largest value it may take, so that no
# drawn ring has more than 625 elements: every route stays fast, and the
# numbers stay far below the range where factoring needs rho.  The huge
# values fail at once in Miller-Rabin: psi_13 and the prime 2**89 - 1 are
# past the range where it proves primality.
_FUZZ_VALUE_MAX = {1: 300, 2: 24, 3: 8, 4: 5}
_HUGE = (str(PSI_13), str(2**89 - 1))
_FORMATS = ("plain", "json", "csv", "md")
# Arabic-Indic and fullwidth digits, which the spec grammar's `\d` and `int` accept.
_ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


@st.composite
def fuzz_tokens(draw, count):
    """`count` parameter tokens: small integers, zero, negatives, Unicode digits, huge integers or junk."""
    tokens = []
    for _ in range(count):
        value = str(draw(st.integers(0, _FUZZ_VALUE_MAX[count])))
        junk = draw(st.text(st.characters(blacklist_categories=("Nd",)), max_size=3))  # no digits: no large values
        odd = ["0", "-" + value, value.translate(_ARABIC), value.translate(_FULLWIDTH), value + ".5", junk, *_HUGE]
        tokens.append(draw(st.sampled_from([value] * 12 + odd)))
    return tokens


@st.composite
def fuzz_argv(draw):
    """One in-process command line: every command, every format, drawn spec or param strings."""
    command = draw(st.sampled_from(["wiener", "compare", "classes", "export-graph", "table", "bench"]))
    tokens = draw(st.integers(1, 4).flatmap(fuzz_tokens))
    if command in ("table", "bench"):
        family = draw(st.sampled_from(["zn", "fields2", "fields3", "ppprod", "zz"]))
        params = tokens if family == "zn" else [",".join(tokens)]
        argv = [command, family, *params]
    else:
        prefix = draw(st.sampled_from(["Z", "ZxZ", "ZxZ", "F", "zxz", "f", "Q", ""]))
        spec = f"{prefix}({','.join(tokens)})"
        argv = [command, draw(st.sampled_from([spec] * 6 + [spec[:-1], spec.replace("(", "( "), ""]))]
    if command == "export-graph":
        argv += ["--graph-format", draw(st.sampled_from(["dot", "edgelist"]))]
    else:
        argv += ["--format", draw(st.sampled_from(_FORMATS))]
    if command == "wiener":
        argv += ["--method", draw(st.sampled_from(["auto", "brute", "quotient", "closed"]))]
    return argv


@settings(max_examples=200, deadline=None)
@given(fuzz_argv())
@example(["wiener", "Z(٣٦)", "--format", "json", "--method", "brute"])
@example(["compare", "ZxZ(0,4)", "--format", "md"])
@example(["table", "fields2", "4,-9", "--format", "csv"])
@example(["bench", "ppprod", "2,3,4,5", "--format", "plain"])
@example(["export-graph", "F(4,5,5,3)", "--graph-format", "edgelist"])
@example(["compare", f"ZxZ({SEMIPRIME_300_DIGITS},4)", "--format", "json"])
@example(["classes", f"F({SEMIPRIME_300_DIGITS})", "--format", "plain"])
def test_cli_fuzz_fails_cleanly(argv):
    # Whatever the input, main returns a documented exit code, prints no
    # traceback, and a failure (exit 1) prints exactly one `error:` line.
    # A csv answer (exit 0, or 2 for a graph without a value) has the
    # header's width on every row; compare's table sits between two more
    # lines, which test_csv_rows_have_the_header_width strips.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue() + err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, text)
    assert "Traceback" not in text, argv
    if code == 1:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, (argv, err.getvalue())
    csv_answer = "--format" in argv and argv[argv.index("--format") + 1] == "csv"
    if csv_answer and code in (0, 2) and argv[0] != "compare":
        rows = list(csv.reader(out.getvalue().splitlines()))
        assert all(len(row) == len(rows[0]) for row in rows), (argv, out.getvalue())
