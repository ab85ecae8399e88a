"""Smoke test of the benchmark itself.

Runs every workload at a tiny size, untraced and traced, and checks that
each run prints every metric ``BENCHMARK.json`` names, with its unit.
Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in
                SPEC["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if trace:
        from repro.obs import load_jsonl

        path = os.path.join(ROOT, ".perfbench_out", f"trace-{workload}-3.jsonl")
        with open(path, encoding="utf-8") as fh:
            roots = load_jsonl(fh)
        assert sum(1 for r in roots for _ in r.walk()) == result["metrics"]["obs.spans"]["value"]


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "serve_zipf", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_seed_determines_inputs():
    import inputs

    def fingerprint(seed):
        return [(A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes())
                for _, _, A in inputs.serve_matrices(seed, True)]

    assert fingerprint(5) == fingerprint(5)
    assert fingerprint(5) != fingerprint(6)
