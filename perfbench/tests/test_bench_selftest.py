"""A planted mismatch must count as a failed ring and make the command exit nonzero."""

import json
import os
import shutil
import subprocess
import sys

import rings
import run
from spans import NULL_TRACER

RUN_PY = os.path.join(run.ROOT, "perfbench", "run.py")


class FakeWorkload:
    """Three rings: one right, one wrong, one whose route raises."""

    api = None

    def next_pass(self):
        return [rings.z_ring(n, "zn") for n in (6, 8, 10)]

    def solve(self, ring, tr):
        if ring.components == (10,):
            raise ArithmeticError("route failed")
        return ring.components[0]

    def check(self, ring, answer):
        return answer == 6, answer


def test_mismatch_and_raise_are_counted_not_swallowed():
    tally = run.Tally()
    latencies, ring_list = run.run_pass(FakeWorkload(), NULL_TRACER, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert len(latencies.raw) == len(latencies.scaled) == len(ring_list) == 3


def test_planted_pinned_value_fails_the_run():
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", "oracle_sweep", "--seed", "1", "--seconds", "0", "--plant-mismatch"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1
    assert result["failed"] == 1 and result["correct"] is False
    assert result["attempted"] > len(rings.oracle_sweep(1))
    assert "PINNED VALUE MISSED: ZxZ(8,9,16)" in proc.stderr


def test_without_sources_it_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.dirname(RUN_PY)):
        if name.endswith(".py"):
            shutil.copy(os.path.join(os.path.dirname(RUN_PY), name), bench / name)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_auto", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
