"""Benchmark command: generate the seeded corpus, run one workload, print its metrics.

    python3 bench/run.py --workload extract_graph --seed 1 --seconds 20 --trace 0

Run from the repository root. The corpus is generated into ``.bench_out/``
before anything is timed; the workload then runs in a fresh process (see
``workloads.py``) with BLAS/OpenMP pinned to one thread and a fixed hash seed.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 1`` the
metrics are the per-layer ones, and the spans are written to
``.bench_out/spans-<workload>-<seed>.npz``.

Exits non-zero without a result line if the program's sources are missing,
the workload process fails, or it runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("extract_graph", "cv_svm_full", "grid_nb")
TIME_LIMIT_S = 170.0

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    started = time.perf_counter()

    src = ROOT / "src"
    if not (src / "subjcut" / "__init__.py").is_file():
        print(f"bench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import synth

    corpus_dir = OUT / f"corpus-{args.workload}-{args.seed}"
    shutil.rmtree(corpus_dir, ignore_errors=True)
    try:
        digests = synth.generate(corpus_dir, args.seed)
        print(f"# corpus seed {args.seed} sha256 {synth.tree_digest(digests)}", flush=True)
        env = dict(os.environ, **PINNED_ENV)
        env["PYTHONPATH"] = os.pathsep.join([str(BENCH), str(src)])
        cmd = [
            sys.executable, str(BENCH / "workloads.py"),
            "--workload", args.workload, "--corpus", str(corpus_dir),
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        budget = TIME_LIMIT_S - (time.perf_counter() - started)
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=budget, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} exceeded {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"bench: {args.workload} failed with exit code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
