"""Byte-for-byte CLI transcripts: every command in every format on small rings.

Each case runs `cozero.cli.main` in-process and records its exit code,
stdout and stderr, with elapsed times masked.  A stdout that is exactly
`json.dumps(data, indent=2)` plus a newline is stored as compact `data`
after a `> json` line, which keeps the check byte-exact and the file
short.  The expected transcript lives in `tests/golden/cli_transcript.txt`;
after a deliberate output change, rewrite it with
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
"""

import contextlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from cozero.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_transcript.txt"
FORMATS = ("plain", "json", "csv", "md")
RINGS = ("Z(2)", "Z(8)", "Z(12)", "Z(36)", "ZxZ(2,4,9)", "F(3,5,7)", "F(9,25)")
# Elapsed milliseconds are the only non-integer numbers the CLI prints.
_ELAPSED = re.compile(r"\d+\.\d+")
_HEADER = "$ cozero "


def _cases() -> list[list[str]]:
    cases = [[cmd, ring, "--format", fmt] for cmd in ("wiener", "compare", "classes") for ring in RINGS for fmt in FORMATS]
    cases += [["table", family, "--format", fmt] for family in ("zn", "fields2", "fields3", "ppprod") for fmt in FORMATS]
    cases += [["bench", "zn", "12", "36", "--format", fmt] for fmt in FORMATS]
    cases += [["bench", "fields2", "--only", "closed", "--format", fmt] for fmt in FORMATS]
    cases += [["export-graph", "Z(12)", "--graph-format", gf] for gf in ("dot", "edgelist")]
    # Notes on a skipped brute route (stdout for compare, stderr for bench) and an error exit.
    cases += [
        ["compare", "Z(150)", "--brute-limit", "100"],
        ["bench", "zn", "100", "--brute-limit", "50", "--format", "csv"],
        ["wiener", "F(6,25)"],
    ]
    return cases


def _transcript(argv: list[str]) -> str:
    """One case's block: the command, its exit code, stdout and stderr, elapsed masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    if text.startswith(("[", "{")) and json.dumps(data := json.loads(text), indent=2) + "\n" == text:
        text = f"> json\n{json.dumps(data)}\n"
    block = f"{_HEADER}{shlex.join(argv)}\n> exit {code}\n{text}"
    if err.getvalue():
        block += f"> stderr\n{err.getvalue()}"
    if not block.endswith("\n"):
        block += "\n> no newline at end\n"
    return _ELAPSED.sub("<ms>", block)


def _golden_blocks() -> dict[str, str]:
    chunks = re.split(f"(?m)^(?={re.escape(_HEADER)})", GOLDEN.read_text(encoding="utf-8"))
    return {chunk.split("\n", 1)[0]: chunk for chunk in chunks if chunk}


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return _golden_blocks()


def test_golden_covers_every_case(golden):
    assert list(golden) == [_HEADER + shlex.join(argv) for argv in _cases()]


@pytest.mark.parametrize("argv", _cases(), ids=shlex.join)
def test_cli_output_matches_golden(argv, golden):
    block = _transcript(argv)
    assert block == golden[block.split("\n", 1)[0]]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(_transcript(argv) for argv in _cases()), encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
