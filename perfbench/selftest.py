"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/selftest.py

The last tests run the benchmark once per workload and take a few minutes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
from catcodes import catcode, channels, cli, concat, degradable, search  # noqa: E402
from catcodes.catcode import CatCodeSpec  # noqa: E402
from catcodes.channels import Basis, make_family  # noqa: E402
from catcodes.concat import ConcatSpec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def brute_cells(n: int, big_m: int) -> int:
    return sum(math.prod(k + 1 for k in comp)
               for comp in itertools.product(range(big_m + 1), repeat=n) if sum(comp) == big_m)


@pytest.mark.parametrize("n,big_m", [(1, 1), (1, 7), (2, 3), (3, 4), (2, 6), (4, 3)])
def test_concat_cells_match_brute_count(n, big_m):
    spec = ConcatSpec(CatCodeSpec(n, Basis.Z), CatCodeSpec(big_m, Basis.X))
    assert tracing.concat_cells(spec) == brute_cells(n, big_m)


def test_concat_cells_of_paper_codes():
    assert tracing.concat_cells(ConcatSpec(CatCodeSpec(3), CatCodeSpec(19))) == 42_504
    assert tracing.concat_cells(ConcatSpec(CatCodeSpec(5), CatCodeSpec(16))) == 2_042_975


def calls_through_every_layer() -> list:
    depol = make_family("depolarizing")
    ch = channels.evaluate_family(depol, 0.19)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["rate", "--channel", "depolarizing:p=0.19", "--code", "cat:m=5"])
    rows, best = search.best_threshold_scan(
        make_family("independent_xz_ratio", {"ratio": 9.0}), Basis.Z, range(1, 4), tol=1e-4)
    return [
        search.threshold(depol, CatCodeSpec(3), tol=1e-4).p_star,
        concat.concat_rate(ch, ConcatSpec(CatCodeSpec(2, Basis.Z), CatCodeSpec(3, Basis.X))),
        catcode.cat_rate(ch, CatCodeSpec(33)),
        degradable.degradability_verdict(degradable.kraus_from_pauli(ch)).status,
        code, out.getvalue(), best, [row.threshold for row in rows],
    ]


def bindings() -> dict:
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name == "catcodes" or name.startswith("catcodes.")
            for attr, value in vars(module).items()}


def test_traced_calls_return_identical_values_and_leave_nothing_behind():
    before = bindings()
    untraced = calls_through_every_layer()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = calls_through_every_layer()
    assert traced == untraced
    assert tracing.leftover_wrappers() == []
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    for layer, names in tracing.LAYERS.items():
        for name in names:
            assert tracer.stats[f"{layer}.{name}"][0] > 0, f"{layer}.{name} never traced"
    assert tracer.counts["concat.cells"] == tracing.concat_cells(
        ConcatSpec(CatCodeSpec(2), CatCodeSpec(3)))


def test_wrappers_are_removed_when_the_traced_code_raises():
    with pytest.raises(channels.InvalidDistributionError):
        with tracing.Tracer().installed():
            channels.entropy4([0.5, 0.5, 0.5, 0.5])
    assert tracing.leftover_wrappers() == []


def test_each_operation_counts_once_however_many_passes_repeat_it():
    import speed
    import worker
    from workloads import Op

    def broken():
        raise ValueError("broken")

    recorder = worker.Recorder({"fixed": {}, "seeded": {}}, 0, speed.SpeedProbe())
    ops = [Op("fine", "fine", lambda: 1.0), Op("broken", "broken", broken)]
    for _ in range(3):
        recorder.run_pass(ops)
        assert (recorder.attempted, recorder.failed) == (2, 1)
    assert recorder.errors == {"broken: ValueError": 3}


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    done = run_bench(ROOT, workload, 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert math.isfinite(metrics["trace.overhead"]["value"])
    assert metrics["trace.coverage"]["value"] >= 0.9


def test_untraced_run_reports_every_end_to_end_metric():
    done = run_bench(ROOT, "length_scan_9to1", 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work-*"))
    done = run_bench(tmp_path, "length_scan_9to1", 0)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "catcodes" in done.stderr
