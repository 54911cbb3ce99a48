"""The benchmark's workloads still run against the program and pass their checks.

``bench/`` is imported the way ``bench/tests/conftest.py`` does. Each
workload runs its set-up once, one round and its check on the seed-3 corpus;
every operation that fails must be one its check counts as a known fault of
the program. This catches a break in the interface the benchmark reads
(function names, options, result shapes) in about 12 s.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import synth  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def bench_corpus(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("bench_corpus")
    synth.generate(root, SEED)
    return root


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_fails_only_known_operations(bench_corpus, name):
    workload = workloads.WORKLOADS[name]()
    inp = workloads.Inputs(bench_corpus, workload.bases, reps=False)
    failed, known = workload.check(inp, workload.run(inp), SEED)
    assert failed == known
