"""Every benchmark workload still writes its recorded outputs.

``perfbench/golden.json`` holds the sha256 of each file a workload writes,
per workload seed. One sweep of each workload at seed 0 must reproduce
them byte for byte, so a change that alters any simulated result fails
here, not only in a manual benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_matches_its_golden_digests(name, tmp_path):
    w = workloads.build(name, 0)
    result = workloads.run_sweep(w, tmp_path / name)
    assert workloads.failed_operations(w, result, GOLDEN[name]["0"]) == set()
