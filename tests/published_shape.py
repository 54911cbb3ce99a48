"""Run the CLI on the published-shape corpus and check its pinned outputs.

Usage: python tests/published_shape.py DATA OUT

Writes the seed-1 synthetic corpus of the published shape (1000+1000
reviews, 5000+5000 detector sentences) under DATA with ``bench/synth.py``,
then runs each command as ``python -m subjcut.cli`` with its outputs under
OUT, on the ``src/`` of this checkout. It checks that full-review SVM reports
are byte-equal whatever the process and BLAS thread counts, and that every
output named in ``tests/published_shape.sha256`` has its digest. A failed
command stops the run; every mismatch is printed, and any exits with 1.
"""

from __future__ import annotations

import filecmp
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "published_shape.sha256"


def main(data: Path, out: Path) -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    import synth

    synth.generate(data, 1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def cli(*args: str, **extra_env: str) -> None:
        print("subjcut", *args, flush=True)
        subprocess.run([sys.executable, "-m", "subjcut.cli", *args, "--data-root", str(data)],
                       env={**env, **extra_env}, check=True)

    mismatches = []

    def same(a: str, b: str) -> None:
        if not filecmp.cmp(out / a, out / b, shallow=False):
            mismatches.append(f"{a} and {b} differ")

    with tempfile.TemporaryDirectory() as specs:
        def spec(name: str, **fields: str) -> str:
            path = Path(specs) / f"{name}.json"
            path.write_text(json.dumps(fields))
            return str(path)

        basic, paragraph = spec("basic", extractor="basic"), spec("paragraph", extractor="paragraph")
        full_svm = spec("full_svm", extractor="full_review", classifier="svm")
        cli("verify-data", "--output-dir", str(out))
        cli("train-detector", "--output-dir", str(out), "--base", "nb")
        cli("extract", "--output-dir", str(out / "extract"), "--model-dir", str(out),
            "--mode", "graph", "--threshold", "3", "--strength", "0.5")
        cli("run", "--spec", basic, "--output-dir", str(out / "run"))
        cli("run", "--spec", paragraph, "--output-dir", str(out / "run_paragraph"))
        for threads in ("1", "2"):
            cli("run", "--spec", full_svm, "--output-dir", str(out / f"run_svm_{threads}"),
                "--threads", threads)
        same("run_svm_1/report.json", "run_svm_2/report.json")
        for blas in ("1", "2"):
            cli("run", "--spec", full_svm, "--output-dir", str(out / f"run_svm_blas{blas}"),
                OPENBLAS_NUM_THREADS=blas)
            same("run_svm_1/report.json", f"run_svm_blas{blas}/report.json")
    cli("train-detector", "--output-dir", str(out), "--base", "svm")
    cli("extract", "--output-dir", str(out / "extract_svm"), "--model-dir", str(out),
        "--base", "svm")
    cli("grid", "--output-dir", str(out / "grid"), "--thresholds", "1,3",
        "--decays", "exponential", "--strengths", "0,0.5", "--threads", "2")
    cli("sweep", "--output-dir", str(out / "sweep"), "--methods", "top_n,first_n",
        "--n-values", "1,5")

    for line in DIGESTS.read_text().splitlines():
        want, name = line.split(maxsplit=1)
        path = out / name
        got = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
        print(f"{name}: {'OK' if got == want else 'FAILED'}")
        if got != want:
            mismatches.append(f"{name}: sha256 {got}, want {want}")
    for mismatch in mismatches:
        print("MISMATCH", mismatch, file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(main(Path(sys.argv[1]), Path(sys.argv[2])))
