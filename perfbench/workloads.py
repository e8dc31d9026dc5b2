"""The benchmark's workloads: inputs made from the seed, the operations one
pass runs, and the checks on their outputs.

Each workload is a closed loop: one client runs its operations back to back.
The seed moves only the noise levels of the concat points and the
degradability sweep of `rate_points`; every other input is fixed, so those
outputs are checked against the frozen references at any seed.  Seeded outputs are checked against the references
only at DEFAULT_SEED, and against invariants (finite, no exception) at any
other seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# Layers are called through their modules, so that the traced run's
# wrappers (tracing.py) see the benchmark's own calls too.
from catcodes import catcode, channels, cli, concat, degradable, search
from catcodes.catcode import CatCodeSpec
from catcodes.channels import Basis, make_family
from catcodes.concat import ConcatSpec

DEFAULT_SEED = 0
REFERENCES = Path(__file__).with_name("references.json")
STATUSES = ("degradable", "not_degradable", "inconclusive")
CHILD_TIMEOUT_S = 150.0

DEPOLARIZING = make_family("depolarizing")
NINE_TO_ONE = make_family("independent_xz_ratio", {"ratio": 9.0})
HUNDRED_TO_ONE = make_family("independent_xz_ratio", {"ratio": 100.0})
FIVE_IN_SIXTEEN = ConcatSpec(CatCodeSpec(5, Basis.Z), CatCodeSpec(16, Basis.X))
CAT_4096 = CatCodeSpec(4096, Basis.Z)
# Channel lines of the degradability sweep, as rays (ex, ey, ez) of total noise p.
VERDICT_LINES = {
    "dephasing": make_family("custom_ray", {"ez": 1.0}),
    "bit_flip": make_family("custom_ray", {"ex": 1.0}),
    "two_pauli": make_family("two_pauli"),
    "depolarizing": DEPOLARIZING,
}
VERDICTS_PER_LINE = 500
# m = 4096 points of rate_points: p drawn once from [0.005, 0.05] (100:1),
# [0.005, 0.02] and [0.025, 0.075] (9:1) with the default seed, then frozen.
CAT_POINTS = (
    ("cat_100to1", HUNDRED_TO_ONE, 0.01665125376318335),
    ("cat_9to1_low", NINE_TO_ONE, 0.012669120820529128),
    ("cat_9to1_high", NINE_TO_ONE, 0.04524670687252071),
)

FIGURE1_ARGS = ["figure1", "--channel", "indep:ratio=9,p=0.2", "--code", "cat:m=1,basis=Z"]
FIGURE2_ARGS = ["figure2", "--channel", "depolarizing:p=0", "--inner", "3",
                "--m-range", "2:8", "--tol", "1e-5"]
STARTUP_ARGS = ["degradability", "--channel", "two-pauli:p=0.25"]


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    run returns a JSON-like value (number, string or list of them).  ref names
    its reference entry (default: label); tol is the absolute tolerance on
    numbers; target checks a paper target or an invariant, given the value and
    the values returned earlier in the same pass, and returns a problem or None.
    """

    label: str
    kind: str
    run: Callable[[], object]
    tol: float = 0.0
    seeded: bool = False
    ref: Optional[str] = None
    target: Optional[Callable[[object, dict], Optional[str]]] = None


def load_references() -> dict:
    """Reference values by label: {"fixed": {...}, "seeded": {...}}.

    Verdict statuses are stored one letter per channel and line (d, n, i)
    and expanded here into one label per channel.
    """
    data = json.loads(REFERENCES.read_text())
    seeded = dict(data["seeded"])
    letters = {status[0]: status for status in STATUSES}
    for line, codes in seeded.pop("verdicts").items():
        for i, code in enumerate(codes):
            seeded[f"verdict.{line}.{i}"] = letters[code]
    return {"fixed": data["fixed"], "seeded": seeded}


def mismatch(value, ref, tol: float) -> tuple[Optional[str], float]:
    """(problem or None, largest absolute numeric difference) of value vs ref."""
    if isinstance(ref, str) or isinstance(value, str):
        return (None if value == ref else f"{value!r} != reference {ref!r}"), 0.0
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return "shape differs from the reference", 0.0
        drift, problem = 0.0, None
        for v, r in zip(value, ref):
            p, d = mismatch(v, r, tol)
            drift = max(drift, d)
            problem = problem or p
        return problem, drift
    diff = abs(value - ref)
    if not diff <= tol:
        return f"{value!r} differs from reference {ref!r} by {diff:.3g} > {tol:g}", diff
    return None, diff


def non_finite(value) -> bool:
    if isinstance(value, list):
        return any(non_finite(v) for v in value)
    return isinstance(value, float) and not math.isfinite(value)


def median_op(kind: str):
    """Median seconds of the successful operations of one kind, over all passes."""
    def reduce(passes):
        times = [t for p in passes for k, t, ok in p["ops"] if k == kind and ok]
        return statistics.median(times) if times else math.nan
    return reduce


def median_pass_sum(kind: str):
    """Median over passes of the seconds spent in the operations of one kind."""
    def reduce(passes):
        return statistics.median(sum(t for k, t, _ in p["ops"] if k == kind) for p in passes)
    return reduce


class Workload:
    """Inputs of one workload and the operations of one pass."""

    name = ""
    # End-to-end metrics of this workload beyond the common ones:
    # name -> (unit, reducer over the recorded passes).
    components: dict = {}

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.tally: Counter = Counter()

    def ops(self, in_process: bool) -> list[Op]:
        raise NotImplementedError


def _threshold_op(label, code, tol, target=None) -> Op:
    return Op(label, label, lambda: search.threshold(DEPOLARIZING, code, tol=tol).p_star,
              tol=tol, target=target)


def _three_in_nineteen_target(value, values) -> Optional[str]:
    if not abs(value - 0.19086) <= 5e-5:
        return f"3-in-19 threshold {value} outside the paper's 0.19086 +/- 5e-5"
    order = [values.get(f"threshold_{n}") for n in ("hashing", "5cat", "5in5")] + [value]
    if None in order or not order[0] < order[1] < order[2] < order[3]:
        return f"thresholds not ordered hashing < 5-cat < 5-in-5 < 3-in-19: {order}"
    return None


class PaperThresholds(Workload):
    """Depolarizing thresholds of the paper's reference codes (5-in-16 is left
    out: one threshold takes about two minutes)."""

    name = "paper_thresholds"
    components = {"threshold_3in19_s": ("s", median_op("threshold_3in19"))}

    def ops(self, in_process: bool) -> list[Op]:
        return [
            _threshold_op("threshold_hashing", None, 1e-6),
            _threshold_op("threshold_5cat", CatCodeSpec(5, Basis.Z), 1e-6),
            _threshold_op("threshold_5in5",
                          ConcatSpec(CatCodeSpec(5, Basis.Z), CatCodeSpec(5, Basis.X)), 1e-6),
            _threshold_op("threshold_3in19",
                          ConcatSpec(CatCodeSpec(3, Basis.Z), CatCodeSpec(19, Basis.X)), 1e-5,
                          target=_three_in_nineteen_target),
        ]


def _status_target(value, values) -> Optional[str]:
    return None if value in STATUSES else f"unknown verdict status {value!r}"


class RatePoints(Workload):
    """Rates at fixed noise with no search: the largest single evaluations.

    At m = 4096 cat_rate raises InvalidDistributionError for many p on the
    9:1 family in [0.005, 0.02], and for some on the 100:1 family (the
    conditional probabilities sum to 1 -/+ 1.5e-12, past SUM_TOL); whether a
    given p raises depends on its rounding.  So the cat points are not
    seeded: CAT_POINTS are the draws of the default seed, on which the 100:1
    and the low 9:1 point raise.  Those points stay in the workload and count
    as failed operations, the same number in every run.
    """

    name = "rate_points"
    components = {
        "concat_point_s": ("s", median_op("concat_point")),
        "cat_point_s": ("s", median_op("cat_point")),
        "degradability_sweep_s": ("s", median_pass_sum("verdict")),
    }

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = random.Random(seed)
        self.concat_ps = [rng.uniform(0.19, 0.1915) for _ in range(3)]
        self.kraus = {
            line: [degradable.kraus_from_pauli(channels.evaluate_family(family, p))
                   for p in (rng.uniform(0.0, 0.5) for _ in range(VERDICTS_PER_LINE))]
            for line, family in VERDICT_LINES.items()
        }

    def ops(self, in_process: bool) -> list[Op]:
        def concat_point(p):
            return concat.concat_rate(channels.evaluate_family(DEPOLARIZING, p), FIVE_IN_SIXTEEN)

        def cat_point(family, p):
            return catcode.cat_rate(channels.evaluate_family(family, p), CAT_4096)

        ops = [Op(f"concat_5in16.{i}", "concat_point", functools.partial(concat_point, p),
                  tol=1e-12, seeded=True)
               for i, p in enumerate(self.concat_ps)]
        ops += [Op(label, "cat_point", functools.partial(cat_point, family, p), tol=1e-12)
                for label, family, p in CAT_POINTS]
        ops += [Op(f"verdict.{line}.{i}", "verdict",
                   lambda k=k: degradable.degradability_verdict(k).status,
                   seeded=True, target=_status_target)
                for line, sets in self.kraus.items()
                for i, k in enumerate(sets)]
        return ops


def _best_m_target(value, values) -> Optional[str]:
    return None if value[0] == 33 else f"best length {value[0]}, paper's is 33"


class LengthScan(Workload):
    """Threshold of every cat length m = 1..40 on the 9:1 family: many small,
    distinct codes and long refinements; concat does nothing."""

    name = "length_scan_9to1"

    def ops(self, in_process: bool) -> list[Op]:
        def scan():
            rows, best = search.best_threshold_scan(NINE_TO_ONE, Basis.Z, range(1, 41), tol=1e-8)
            return [best] + [row.threshold for row in rows]
        return [Op("scan_9to1", "scan", scan, tol=1e-8, target=_best_m_target)]


def read_csv(text: str) -> list:
    """Data cells of a catcodes CSV, numbers parsed, flattened row by row."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith(f"# {cli.CSV_SCHEMA} "):
        raise ValueError("CSV lacks the catcodes schema header")
    cells = []
    for line in lines[2:]:
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
    return cells


def _same_as_jobs1(value, values) -> Optional[str]:
    if values.get("figure1_jobs1") != value:
        return "figure1 output differs between --jobs 1 and --jobs 2"
    return None


def _startup_status(stdout: str) -> str:
    return (stdout.split() or [""])[0]


class CliFigures(Workload):
    """The CLI as users run it, as subprocesses: start-up, figure1 on its
    default 840-cell grid with one and two workers, and a small figure2.
    At most two workers, since the reference machine has two cores.  The
    traced pass calls cli.main in-process with --jobs 1 instead."""

    name = "cli_figures"
    components = {
        "figure1_s": ("s", median_op("figure1_jobs2")),
        "figure1_jobs1_s": ("s", median_op("figure1_jobs1")),
        "figure2_s": ("s", median_op("figure2")),
    }

    def _csv(self, path: Path) -> list:
        text = path.read_text()
        self.tally["csv_bytes"] += len(text.encode())
        return read_csv(text)

    def _subprocess(self, argv: list) -> str:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        # The child stays in this process group, so that run.py's kill on
        # timeout reaches it and its pool workers.
        done = subprocess.run([sys.executable, "-m", "catcodes.cli", *argv], cwd=self.root,
                              env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"exit code {done.returncode}: {done.stderr.strip()[-200:]}")
        return done.stdout

    def _in_process(self, argv: list) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return out.getvalue()

    def ops(self, in_process: bool) -> list[Op]:
        call = self._in_process if in_process else self._subprocess
        out = self.workdir / "out.csv"

        def figure(args, jobs):
            call([*args, "--jobs", str(jobs), "--out", str(out)])
            return self._csv(out)

        ops = [
            Op("startup", "startup", lambda: _startup_status(call(STARTUP_ARGS))),
            Op("figure1_jobs1", "figure1_jobs1", lambda: figure(FIGURE1_ARGS, 1), tol=1e-12),
        ]
        if in_process:
            ops.append(Op("figure2_jobs1", "figure2", lambda: figure(FIGURE2_ARGS, 1),
                          tol=1e-5, ref="figure2"))
        else:
            ops += [
                Op("figure1_jobs2", "figure1_jobs2", lambda: figure(FIGURE1_ARGS, 2),
                   tol=1e-12, ref="figure1_jobs1", target=_same_as_jobs1),
                Op("figure2", "figure2", lambda: figure(FIGURE2_ARGS, 2), tol=1e-5),
            ]
        return ops


WORKLOADS = {w.name: w for w in (PaperThresholds, RatePoints, LengthScan, CliFigures)}
