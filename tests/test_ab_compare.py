"""The interleaved A/B timing tool runs end to end."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_compare.py"
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=600)


def test_a_checkout_against_itself_writes_identical_outputs():
    done = _run(ROOT, ROOT, "quiet-link", 1)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == [f"A {ROOT}", f"B {ROOT}"]
    assert lines[2].startswith(f"quiet-link at seed {workloads.DEFAULT_SEED}: ")
    assert "of 60 operations, 1 repeats; outputs identical" in lines[2]
    # one operation named with both medians and their ratio
    worst = re.fullmatch(r"largest B/A median ratio: quiet-link/\d+us/\d+: "
                         r"A (\d+\.\d\d) ms, B (\d+\.\d\d) ms, ratio (\d+\.\d{3})",
                         lines[3])
    assert worst, lines[3]
    a, b, ratio = map(float, worst.groups())
    assert abs(b / a - ratio) < 0.01


def test_the_configs_workload_runs_each_side_on_its_own_modules():
    # cli imports harness at call time, and reads config files from the
    # side's own inputs directory
    done = _run(ROOT, ROOT, "configs", 1)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "of 7 operations, 1 repeats; outputs identical" in lines[2]
    assert lines[3].startswith("largest B/A median ratio: ")


def test_a_fifth_argument_is_the_workload_seed():
    done = _run(ROOT, ROOT, "slow-ramp", 1, 23)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[2].startswith("slow-ramp at seed 23: B faster on ")
    assert "of 3 operations, 1 repeats; outputs identical" in lines[2]
    # the operation it names is one of the seed-23 runs
    worst = re.match(r"largest B/A median ratio: (\S+): ", lines[3]).group(1)
    assert worst in {op.name for op in workloads.build("slow-ramp", 23).operations}
    assert worst not in {op.name for op in workloads.build("slow-ramp", 1).operations}
