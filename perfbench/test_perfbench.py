"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has c [2, 3];
    # b has d [5, 6] and e [7, 9].
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0]
    end = [10.0, 4.0, 3.0, 9.0, 6.0, 9.0]
    parent = [-1, 0, 1, 0, 3, 3]
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]


def test_tracer_records_nested_spans_inside_items_only():
    tracer = Tracer()

    def leaf():
        return 1

    def mid():
        return tracer.span("m.leaf", leaf) + tracer.span("m.leaf", leaf)

    assert tracer.span("m.leaf", leaf) == 1  # outside an item: not recorded
    assert tracer.run_item("kind", tracer.wrap("m.mid", mid)) == 2
    names, start, end, parent, name, item = tracer.arrays()
    assert [names[i] for i in name] == ["bench.item", "m.mid", "m.leaf", "m.leaf"]
    assert parent.tolist() == [-1, 0, 1, 1]
    assert item.tolist() == [0, 0, 0, 0]
    assert tracer.item_kinds == ["kind"]
    # Self times partition the root span.
    assert self_times(start, end, parent).sum() == pytest.approx(end[0] - start[0])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
