"""The benchmark's own checks: tracing must not change results, and the
benchmark must refuse to run without the package sources.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["n20-ablation", "n100-improved", "n10-batch"])
def test_traced_and_untraced_runs_agree(workload):
    digests = []
    for trace in (0, 1):
        out = run_bench(workload, trace)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, out.stdout
        record = json.loads(
            (ROOT / "perfbench_out" / f"{workload}-seed3-trace{trace}.json").read_text())
        digests.extend(record["digests"].values())
    # untraced run, then the untraced and traced passes of the traced run
    assert len(digests) == 3 and len(set(digests)) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("n10-batch", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
