"""catcodes benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each run starts fresh interpreters: seven
set-up-only ones, whose median time from spawn to ready is `setup_s` (for
cli_figures: seven `catcodes degradability` commands, spawn to exit), then one
worker that repeats the workload's pass back to back for --seconds.  With
--trace 0 it reports the end-to-end metrics; with --trace 1, the per-layer
metrics of a traced run, in which timing wrappers are installed around the
public functions of each module (see tracing.py).  Every time reported is
normalized to a reference machine speed by a probe taken during the run
(see speed.py); raw pass seconds are printed beside them.

Every output is checked (workloads.py); failed operations are counted and
named, never hidden.  An operation is attempted once per run, however many
passes repeat it (see worker.Recorder).  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Exits non-zero, printing no
result, when catcodes cannot be imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 7
STARTUP_ARGS = ["degradability", "--channel", "two-pauli:p=0.25"]  # as in workloads.py
RUN_LIMIT_S = 170.0
PROBE = ("import json, os, catcodes, numpy; print(json.dumps("
         "[os.path.realpath(catcodes.__file__), catcodes.__version__, numpy.__version__]))")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def run_child(cmd: list, timeout: float, env: dict) -> subprocess.CompletedProcess:
    """Run cmd from the checkout root in its own process group, killed on timeout."""
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, 9)
            proc.communicate()
            raise BenchError(f"{' '.join(cmd[1:3])} ran past its time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}: {err.strip()[-400:]}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def probe(env: dict) -> dict:
    """Check that catcodes imports from this checkout; return provenance."""
    if not (SRC / "catcodes" / "__init__.py").is_file():
        raise BenchError(f"no catcodes sources under {SRC}; run from a catcodes checkout")
    path, version, numpy_version = json.loads(
        run_child([sys.executable, "-c", PROBE], 60.0, env).stdout)
    expected = os.path.realpath(SRC / "catcodes" / "__init__.py")
    if path != expected:
        raise BenchError(f"catcodes imports from {path}, not from this checkout's {expected}")
    digest = hashlib.sha256()
    for source in sorted(SRC.rglob("*.py")):
        digest.update(source.relative_to(SRC).as_posix().encode() + b"\0" + source.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = done.stdout.strip() or None
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "catcodes": version,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def setup_seconds(args, env: dict, deadline: float) -> list[float]:
    """Spawn-to-ready seconds of SETUP_SAMPLES fresh interpreters, each
    normalized by probe bursts taken just before and just after it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = speed.burst_factor()
        t0 = time.monotonic()
        if args.workload == "cli_figures":
            run_child([sys.executable, "-m", "catcodes.cli", *STARTUP_ARGS], deadline - t0, env)
            seconds = time.monotonic() - t0
        else:
            done = run_child(worker_cmd(args) + ["--setup-only"], deadline - t0, env)
            seconds = json.loads(done.stdout.splitlines()[-1])["ready"] - t0
        samples.append(seconds * (before + speed.burst_factor()) / 2.0)
    return samples


def worker_cmd(args) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        provenance = probe(env)
        setup = setup_seconds(args, env, deadline)
        done = run_child(worker_cmd(args), deadline - time.monotonic(), env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    res = json.loads(done.stdout.splitlines()[-1])

    provenance.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace)
    print("provenance " + json.dumps(provenance))
    for what in ("errors", "misses"):
        for label, count in sorted(res[what].items()):
            print(f"failed x{count} {label}")
    failure_ratio = res["failed"] / res["attempted"]
    print(f"passes {len(res['walls'])}  attempted {res['attempted']}  failed {res['failed']}"
          f"  max_abs_drift {res['max_abs_drift']:.3g}")
    print("raw pass seconds " + " ".join(f"{w:.4g}" for w in res["raw_walls"])
          + "  speed factors " + " ".join(f"{f:.3g}" for f in res["factors"]))

    if args.trace:
        metrics = dict(res["per_layer"])
        metrics["cli.startup_s"] = statistics.median(setup) if args.workload == "cli_figures" else 0.0
        metrics["check.max_abs_drift"] = res["max_abs_drift"]
        metrics["check.failure_ratio"] = failure_ratio
    else:
        metrics = {
            "wall_s": statistics.median(res["walls"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "failure_ratio": failure_ratio,
        }
        metrics.update(res["components"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units.get(name) or res['units'].get(name, 'ratio')}")
    reported = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": not res["misses"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
