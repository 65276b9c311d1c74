"""Smoke check of the benchmark at tiny sizes.

    python3 -m pytest -q bench/smoke_check.py

The file name keeps it out of the default test collection, so the package's
test suite does not grow by the benchmark's run time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload of run.py, including those BENCHMARK.json does not list.
NAMES = ["verify-all", "husimi-field", "io-roundtrip", "grid-operators"]

# Per-layer metrics each workload must move, showing the tracer saw its layers.
EXERCISED = {
    "verify-all": ["oscillator.hamiltonian_matrix.self_s", "polarizations.quad_nodes",
                   "polarizations.bargmann.self_s", "orbifold.loop_points",
                   "bundles.calls", "oscillator.husimi.terms", "cli.bytes_written"],
    "husimi-field": ["oscillator.husimi.calls", "oscillator.husimi.bytes_computed",
                     "cli.self_s", "cli.bytes_written"],
    "io-roundtrip": ["classical.self_s", "sections.csv_write_s", "sections.csv_read_s",
                     "sections.bin_write_s", "sections.bin_read_s",
                     "sections.bytes_written", "sections.bytes_read", "cli.bytes_written"],
    "grid-operators": ["bundles.cells", "polarizations.dolbeault.self_s",
                       "oscillator.laplacian.self_s", "oscillator.husimi.terms"],
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr        # no unexpected failure
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        assert all(values[k] > 0 for k in EXERCISED[workload]), values
        assert all(values[k] == 0 for k in values if k.endswith(".errors"))
    else:
        assert all(values[m["name"]] > 0 for m in spec)
        assert "error_rate" in done.stdout


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_inputs_depend_only_on_the_seed(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    for name in NAMES:
        wl = workloads.WORKLOADS[name](tmp_path)
        assert wl.inputs(7) == wl.inputs(7)
        if len(wl.inputs(7)) > 1:
            assert wl.inputs(7) != wl.inputs(8)
