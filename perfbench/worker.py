"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Prints
one JSON line: the pass times, the component times, the operation tallies
and, in a traced run, the per-layer metrics.  With --setup-only it stops once
the inputs are built and prints the ready time instead (time.monotonic,
comparable with the parent's clock).
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import catcodes.cli  # noqa: E402  (first, so the import is timed cold)

CLI_IMPORT_S = time.perf_counter() - _t0

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

import catcodes  # noqa: E402

if Path(catcodes.__file__).resolve().parent != (ROOT / "src" / "catcodes").resolve():
    sys.exit(f"error: catcodes was imported from {catcodes.__file__}, "
             f"not from this checkout's {ROOT / 'src'}")

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Recorder:
    """Runs passes of operations, timing each, and checks their outputs.

    Times are kept normalized to the reference speed (speed.py), using the
    probes taken during each pass; raw_wall keeps the pass's wall time.
    Each operation is attempted once however many passes repeat it, and
    failed if it failed in any pass, so that attempted and failed depend on
    the seed only, not on how many passes fit in the run.
    """

    def __init__(self, references: dict, seed: int, probe: speed.SpeedProbe,
                 in_process: bool = True):
        self.references = references
        self.in_process = in_process
        self.default_seed = seed == workloads.DEFAULT_SEED
        self.probe = probe
        self.outcomes: dict[str, bool] = {}  # label -> ok in every pass
        self.errors: Counter = Counter()  # "label: ExceptionClass" -> count
        self.misses: Counter = Counter()  # "label: problem" -> count
        self.drift = 0.0
        self.passes: list[dict] = []

    def run_pass(self, ops) -> float:
        times, values = [], {}
        start = perf_counter()
        for op in ops:
            if not self.in_process:
                self.probe.burst()
            t0 = perf_counter()
            try:
                values[op.label] = op.run()
            except Exception as exc:  # a failed operation is counted, never aborts the run
                self.errors[f"{op.label}: {type(exc).__name__}"] += 1
            times.append(perf_counter() - t0)
        if not self.in_process:
            self.probe.burst()
        end = perf_counter()
        factor = self.probe.factor(start, end)
        raw_wall = sum(times)
        record = {"raw_wall": raw_wall, "wall": raw_wall * factor, "factor": factor,
                  "values": values, "ops": []}
        for op, seconds in zip(ops, times):
            ok = op.label in values and self._check(op, values)
            self.outcome(op.label, ok)
            record["ops"].append((op.kind, seconds * factor, ok))
        self.passes.append(record)
        return record["raw_wall"]

    def outcome(self, label: str, ok: bool) -> None:
        self.outcomes[label] = self.outcomes.get(label, True) and ok

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.outcomes.values())

    def _check(self, op, values) -> bool:
        """True if the value passes its reference, finiteness and target checks."""
        value = values[op.label]
        problem = None
        if workloads.non_finite(value):
            problem = "non-finite value"
        table = self.references["seeded" if op.seeded else "fixed"]
        if problem is None and (self.default_seed or not op.seeded):
            ref = table.get(op.ref or op.label)
            if ref is not None:
                problem, drift = workloads.mismatch(value, ref, op.tol)
                self.drift = max(self.drift, drift)
        if problem is None and op.target is not None:
            problem = op.target(value, values)
        if problem:
            self.misses[f"{op.label}: {problem}"] += 1
        return not problem

    def measure(self, ops, budget: float) -> None:
        """Back-to-back passes while the next one should end within budget seconds."""
        raw = []
        start = perf_counter()
        while True:
            raw.append(self.run_pass(ops))
            if perf_counter() - start + statistics.median(raw) > budget:
                return

    def median_wall(self) -> float:
        return statistics.median(p["wall"] for p in self.passes)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(tracer, passes: int, scale: float) -> dict:
    """Per-pass layer metrics from the tracer, seconds scaled by `scale`;
    every LAYERS function is reported, with 0 where the workload never calls it."""
    out = {}
    for key in (f"{layer}.{name}" for layer, names in tracing.LAYERS.items() for name in names):
        calls, seconds, self_s = tracer.stats.get(key, (0, 0.0, 0.0))
        out[f"{key}.calls"] = calls / passes
        out[f"{key}.s"] = seconds * scale / passes
        out[f"{key}.self_s"] = self_s * scale / passes
    for key in ("concat.cells", "catcode.classes", "search.evals") + tuple(
            f"degradable.verdicts.{s}" for s in workloads.STATUSES):
        out[key] = tracer.counts.get(key, 0) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    out["concat.cells_per_s"] = ratio(out["concat.cells"], out["concat.concat_rate.s"])
    out["concat.ns_per_cell"] = 1e9 * ratio(out["concat.concat_rate.s"], out["concat.cells"])
    out["catcode.classes_per_s"] = ratio(out["catcode.classes"], out["catcode.cat_rate.s"])
    out["search.evals_per_threshold"] = ratio(out["search.evals"], out["search.threshold.calls"])
    out["degradable.degradability_verdict.us_per_call"] = 1e6 * ratio(
        out["degradable.degradability_verdict.s"], out["degradable.degradability_verdict.calls"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="_work-", dir=Path(__file__).parent))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        return run(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload, args) -> int:
    start = perf_counter()
    references = workloads.load_references()
    cli = args.workload == "cli_figures"
    probe = speed.SpeedProbe()
    # Operations that run in child processes are probed between operations,
    # all others on the timer (see speed.py).
    measured = Recorder(references, args.seed, probe, in_process=not cli)
    recorders = [measured]
    with probe.running() if not cli else contextlib.nullcontext():
        measured.measure(workload.ops(in_process=False), (0.4 if args.trace else 1.0) * args.seconds)
    csv_bytes = workload.tally["csv_bytes"] / len(measured.passes)
    rss = peak_rss_mb(children=cli)
    if args.trace:
        with probe.running():
            base = measured
            if cli:  # the traced pass runs in-process; time it untraced too
                base = Recorder(references, args.seed, probe)
                recorders.append(base)
                base.measure(workload.ops(in_process=True), 0.0)
            traced = Recorder(references, args.seed, probe)
            recorders.append(traced)
            tracer = tracing.Tracer()
            traced_start = perf_counter()
            with tracer.installed():
                traced.measure(workload.ops(in_process=True), args.seconds - (traced_start - start))
            traced_factor = probe.factor(traced_start, perf_counter())

    components = {name: reduce(measured.passes)
                  for name, (_, reduce) in workload.components.items()}
    result = {
        "walls": [p["wall"] for p in measured.passes],
        "raw_walls": [p["raw_wall"] for p in measured.passes],
        "factors": [p["factor"] for p in measured.passes],
        "components": components,
        "units": {name: unit for name, (unit, _) in workload.components.items()},
        "peak_rss_mb": rss,
    }
    if args.trace:
        leftover = tracing.leftover_wrappers()
        for name in leftover:
            traced.misses[f"{name}: wrapper left installed after the traced run"] += 1
        traced.outcome("trace.wrappers_removed", not leftover)
        want, got = base.passes[-1]["values"], traced.passes[0]["values"]
        for label in sorted(set(want) | set(got)):
            if want.get(label) != got.get(label):
                traced.misses[f"{label}: traced value differs from untraced"] += 1
                traced.outcome(label, False)
        per_layer = layer_metrics(tracer, len(traced.passes), traced_factor)
        traced_wall = traced.median_wall()
        compute_self = sum(v for k, v in per_layer.items()
                           if k.split(".")[0] in tracing.COMPUTE_LAYERS and k.endswith(".self_s"))
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.coverage"] = compute_self / traced_wall
        per_layer["trace.overhead"] = traced_wall / base.median_wall() - 1.0
        per_layer["cli.import_s"] = CLI_IMPORT_S * speed.burst_factor() if cli else 0.0
        per_layer["cli.pool_speedup"] = (
            components["figure1_jobs1_s"] / components["figure1_s"] if cli else 0.0)
        per_layer["cli.csv_bytes"] = csv_bytes if cli else 0.0
        for other in workloads.WORKLOADS.values():  # other workloads' components read 0
            per_layer.update({name: 0.0 for name in other.components})
        per_layer.update(components)
        result["per_layer"] = per_layer
    result["attempted"] = sum(r.attempted for r in recorders)
    result["failed"] = sum(r.failed for r in recorders)
    result["errors"] = dict(sum((r.errors for r in recorders), Counter()))
    result["misses"] = dict(sum((r.misses for r in recorders), Counter()))
    result["max_abs_drift"] = max(r.drift for r in recorders)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
