"""Command-line surface: rates, thresholds, scans, figure data, degradability.

Commands: rate, threshold, scan-m, figure1, figure2, degradability, verify.
Exit codes: 0 ok, 1 failed verify check, 2 usage/parse error or an --out that
cannot be opened, 3 numeric-domain error, 4 resource cap, 141 (nothing on
stderr) when stdout closes early, as under `| head`.
CSV outputs start with a schema-version comment line echoing the full config,
so every figure is reproducible from the file alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional, Union

import numpy as np

from .channels import (
    Basis,
    ChannelFamily,
    PauliChannel,
    evaluate_family,
    family_probs,
    make_family,
)
from .catcode import UV_ORDER, CatCodeSpec, _cat_rates, cat_rate
from .concat import CompositionLimitError, ConcatSpec, _counts, concat_rate
from .degradable import degradability_verdict, kraus_from_pauli
from .search import NoBracketError, best_length_scan, code_rate, threshold

CSV_SCHEMA = "catcodes-csv v1"
MAX_CAT_LENGTH = 4096

# Serial seconds of the rate kernel per composition per batch (its Python loop) and per
# cell per noise point (its numpy work), fitted to the serial times of 5-in-6..10
# depolarizing thresholds and of 400- to 4096-cat batches of 21 to 1,000 points on a
# 2-vCPU Xeon (Python 3.11, numpy 2.4): the estimates read 0.6-1.7x those times.
COMPOSITION_S = 5e-6
CELL_POINT_S = 65e-9
# Estimated seconds a pool must save before `_map` starts one: what starting it costs.
# Run as a subprocess on the same machine, figure1 on its default grid (about 10 ms of
# work) took a median 44 ms longer at --jobs 2 than at --jobs 1 over 10 pairs, and the
# small figure2 of the benchmark (about 50 ms, of which a second worker could save
# 25 ms) 22 ms longer.
POOL_LINE_S = 0.05
# Largest estimated serial seconds of one figure1, its lengths' `_seconds` summed: ten minutes.
# The largest grid the parser admits, --m-range 1:4096 --p-grid 0:1:4096, is estimated at
# 2,235 s; 1:4096 over 21 points at 11 s, and every length to 40 over 4,096 points at 0.2 s.
MAX_FIGURE1_S = 600.0

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer whose reader closed


class CommandLimitError(RuntimeError):
    """A command's estimated serial work exceeds its cap (exit 4, as for a code over a cap)."""


class SpecParseError(ValueError):
    """A CLI value (spec, length list or p-grid) failed to parse; includes the
    column where the offending field starts."""

    def __init__(self, message: str, text: str, column: int):
        super().__init__(f"{message} (line 1, column {column + 1}): {text!r}")
        self.column = column


@dataclass(frozen=True)
class ChannelSpec:
    """A parsed --channel argument: a family plus an optional noise level."""

    family: ChannelFamily
    p: Optional[float]
    canonical: str

    def noise(self) -> float:
        if self.p is None:
            raise SpecParseError("channel spec needs p=<noise>", self.canonical, len(self.canonical))
        return self.p

    def channel(self) -> PauliChannel:
        return evaluate_family(self.family, self.noise())


# CLI channel name -> (family kind, the fields its spec takes).  pauli's
# px, py, pz are the family's direction scaled by the noise level; without
# one they are the direction, normalized to sum 1.
CHANNELS = {
    "depolarizing": ("depolarizing", ("p",)),
    "two-pauli": ("two_pauli", ("p",)),
    "indep": ("independent_xz_ratio", ("ratio", "p")),
    "pauli": ("custom_ray", ("px", "py", "pz")),
}
# Code spec name -> the fields it takes.
CODES = {"hashing": (), "cat": ("m", "basis"), "concat": ("inner", "outer")}


def _parts(text: str, sep: str = ",", col: int = 0):
    """(part, column where it starts) of each sep-separated part of text."""
    for part in text.split(sep):
        yield part, col
        col += len(part) + len(sep)


def _fields(spec: str, names: dict) -> tuple[str, dict[str, tuple[str, int]]]:
    """Split name:key=value,... into the name, which must be in `names`, and
    key -> (value text, column where the field starts), for keys in names[name]."""
    raw, sep, body = spec.partition(":")
    name, fields = raw.strip(), {}
    if name not in names:
        raise SpecParseError(f"unknown name {name!r}, expected one of {', '.join(names)}", spec, 0)
    for part, col in _parts(body, col=len(raw) + len(sep)) if body else ():
        key, eq, val = part.partition("=")
        key = key.strip()
        if not eq:
            raise SpecParseError(f"expected key=value, got {part!r}", spec, col)
        if key not in names[name]:
            takes = ", ".join(names[name]) or "no fields"
            raise SpecParseError(f"{name} takes {takes}, not {key!r}", spec, col)
        if key in fields:
            raise SpecParseError(f"repeated field {key!r}", spec, col)
        fields[key] = (val, col)
    return name, fields


def _number(text: str, col: int, spec: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise SpecParseError(f"bad number {text!r}", spec, col) from None


def _length(text: str, col: int, spec: str) -> int:
    """A cat length, or a --p-grid count: an integer in [1, MAX_CAT_LENGTH]."""
    m = _number(text, col, spec, int)
    if not 1 <= m <= MAX_CAT_LENGTH:
        raise SpecParseError(f"{m} outside [1, {MAX_CAT_LENGTH}]", spec, col)
    return m


def _basis(text: str, col: int, spec: str) -> Basis:
    try:
        return Basis[text.strip().upper()]
    except KeyError:
        raise SpecParseError(f"basis must be Z, X, or Y, got {text!r}", spec, col) from None


def parse_channel_spec(spec: str) -> ChannelSpec:
    """Parse grammars like depolarizing:p=0.19, two-pauli:p=0.2,
    indep:ratio=9,p=0.29, pauli:px=0.1,py=0.0,pz=0.1."""
    name, fields = _fields(spec, {name: keys for name, (_, keys) in CHANNELS.items()})
    values = {key: _number(val, col, spec) for key, (val, col) in fields.items()}
    kind, p = CHANNELS[name][0], values.pop("p", None)
    if kind == "custom_ray":
        values = {f"e{key[1]}": values.get(key, 0.0) for key in ("px", "py", "pz")}
        p = values["ex"] + values["ey"] + values["ez"]
    try:
        family = make_family(kind, values)
    except ValueError as exc:  # reported at the first of the family's parameters
        start = min((col for key, (_, col) in fields.items() if key != "p"), default=len(spec))
        raise SpecParseError(str(exc), spec, start) from None
    return ChannelSpec(family, p, format_channel_spec(family, p))


def _exact(x: float) -> str:
    """x as text that reads back to the same float: its repr, without a trailing .0."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def format_channel_spec(family: ChannelFamily, p: Optional[float]) -> str:
    name = next(name for name, (kind, _) in CHANNELS.items() if kind == family.kind)
    if family.kind == "custom_ray":
        scale = 1.0 if p is None else p
        fields = [f"p{key[1]}={_exact(scale * e)}" for key, e in family.params]
    else:
        fields = [f"{key}={_exact(v)}" for key, v in family.params]
        fields += [] if p is None else [f"p={_exact(p)}"]
    return f"{name}:{','.join(fields)}" if fields else name


def parse_code_spec(spec: str) -> Union[CatCodeSpec, ConcatSpec]:
    """Parse cat:m=5,basis=Z | concat:inner=3Z,outer=19X | hashing."""
    name, fields = _fields(spec, CODES)
    if name == "concat":
        if len(fields) < 2:
            raise SpecParseError("concat needs inner=<mB> and outer=<mB>", spec, len(spec))
        return ConcatSpec(*(_mini_cat(*fields[key], spec) for key in ("inner", "outer")))
    m, basis = fields.get("m", ("1", 0)), fields.get("basis", ("Z", 0))
    return CatCodeSpec(_length(*m, spec), _basis(*basis, spec))


def _mini_cat(text: str, col: int, spec: str) -> CatCodeSpec:
    text = text.strip()
    if len(text) < 2:
        raise SpecParseError(f"expected <length><basis> like 3Z, got {text!r}", spec, col)
    return CatCodeSpec(_length(text[:-1], col, spec), _basis(text[-1], col, spec))


def format_code_spec(code: Union[CatCodeSpec, ConcatSpec]) -> str:
    if isinstance(code, ConcatSpec):
        return (
            f"concat:inner={code.inner.m}{code.inner.basis.value},"
            f"outer={code.outer.m}{code.outer.basis.value}"
        )
    return f"cat:m={code.m},basis={code.basis.value}"


def _lengths(text: str) -> list[int]:
    """--inner, or --m-range without lo:hi: a comma list of lengths, each checked as cat:m= is,
    read as the distinct lengths in increasing order."""
    return sorted({_length(part, col, text) for part, col in _parts(text)})


def _m_range(text: str) -> list[int]:
    """--m-range: lo:hi with lo <= hi, checked before the range is built, or a comma list."""
    lo, sep, hi = text.partition(":")
    if not sep:
        return _lengths(text)
    first, last = _length(lo, 0, text), _length(hi, len(lo) + 1, text)
    if last < first:
        raise SpecParseError(f"range end {last} is below its start {first}", text, len(lo) + 1)
    return list(range(first, last + 1))


def _p_grid(text: str) -> list[float]:
    """--p-grid: lo:hi:count, evenly spaced, the count checked as a length is; or a comma list."""
    parts = list(_parts(text, ":"))
    if len(parts) != 3:
        return [_number(part, col, text) for part, col in _parts(text)]
    lo, hi = (_number(part, col, text) for part, col in parts[:2])
    count = _length(*parts[2], text)
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _jobs(text: str) -> int:
    """--jobs: a worker count N >= 0, where 0 means all cores."""
    n = _number(text, 0, text, int)
    if n < 0:
        raise SpecParseError(f"worker count {n} is negative", text, 0)
    return n


def _write_csv(args, command: str, config: str, header: list[str], rows) -> None:
    """The schema line, the header and the rows, floats through repr, to --out or stdout."""
    to_file = args.out not in (None, "-")
    try:
        sink = open(args.out, "w") if to_file else contextlib.nullcontext(sys.stdout)
    except OSError as exc:  # here only: a BrokenPipeError from stdout is not a bad --out
        raise SpecParseError(f"cannot open --out: {exc.strerror}", args.out, 0) from None
    with sink as out:
        out.write(f"# {CSV_SCHEMA} | command={command} | {config}\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _record(result) -> dict:
    """A result dataclass's fields that are not None, in field order: its --json record."""
    return {key: value for key, value in asdict(result).items() if value is not None}


def _work(code) -> dict:
    """The exact compositions and cells of one rate evaluation of `code`, for --json."""
    compositions, cells = _counts(code)
    return {"compositions": compositions, "cells": cells}


def _seconds(code, points: int, batches: int) -> float:
    """Estimated serial seconds of `batches` rate evaluations of `code` over `points` noise
    points in all, from its exact counts; a code over a cap raises here, before any rate."""
    compositions, cells = _counts(code)
    return COMPOSITION_S * compositions * batches + CELL_POINT_S * cells * points


def _map(args, fn, items, seconds):
    """[fn(item) for item in items], given each item's estimated serial seconds.

    Serial unless a pool of min(--jobs, cores, items) workers is estimated to save at least
    `POOL_LINE_S`: the total less the larger of the largest item and an even share.  The
    pool takes the items largest first (R. L. Graham, SIAM J. Appl. Math. 17, 1969), so
    no large item starts last, and the results come back in item order."""
    cores = os.cpu_count() or 1
    jobs = min(_jobs(args.jobs) or cores, cores, len(items))  # no more workers than cores or tasks
    total = sum(seconds)
    if jobs <= 1 or total - max(max(seconds), total / jobs) < POOL_LINE_S:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # local: only a pool needs multiprocessing

    order = sorted(range(len(items)), key=lambda i: -seconds[i])  # stable: ties in item order
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = dict(zip(order, pool.map(fn, [items[i] for i in order])))
    return [results[i] for i in range(len(items))]  # item order keeps outputs canonical


def _scan_basis(args) -> Basis:
    """The basis of --code for a command that takes its lengths from --m-range."""
    code = parse_code_spec(args.code)
    if isinstance(code, ConcatSpec) or code.m != 1:
        message = f"{args.command} takes lengths from --m-range; use cat:basis=..."
        raise SpecParseError(message, args.code, 0)
    return code.basis


def cmd_rate(args) -> int:
    chspec = parse_channel_spec(args.channel)
    code = parse_code_spec(args.code)
    value = code_rate(chspec.family, code, chspec.noise())
    if args.json:
        print(json.dumps({"rate": value, "channel": chspec.canonical, "code": format_code_spec(code),
                          **_work(code)}))
    else:
        print(f"{value:.12g}")
    return EXIT_OK


def cmd_threshold(args) -> int:
    chspec = parse_channel_spec(args.channel)
    code = parse_code_spec(args.code)
    res = threshold(chspec.family, code, tol=args.tol)
    if args.json:
        channel = format_channel_spec(chspec.family, None)
        print(json.dumps({**_record(res), "channel": channel, "code": format_code_spec(code),
                          **_work(code)}))
    else:
        print(f"{res.p_star:.12g}")
        if res.warning:
            print(f"warning: {res.warning}", file=sys.stderr)
    return EXIT_OK


def cmd_scan_m(args) -> int:
    chspec = parse_channel_spec(args.channel)
    basis = _scan_basis(args)
    rows, best_m = best_length_scan(chspec.family, chspec.noise(), basis, _m_range(args.m_range))
    if args.json:
        print(
            json.dumps(
                {
                    "rows": [_record(r) for r in rows],
                    "best_m": best_m,
                    "channel": chspec.canonical,
                }
            )
        )
    else:
        config = f"channel={chspec.canonical} | basis={basis.value} | m-range={args.m_range}"
        _write_csv(args, "scan-m", config, ["m", "rate"], [(r.m, r.rate) for r in rows])
    return EXIT_OK


def cmd_figure1(args) -> int:
    chspec = parse_channel_spec(args.channel)
    basis = _scan_basis(args)
    ms, ps = _m_range(args.m_range), _p_grid(args.p_grid)
    probs = family_probs(chspec.family, ps)  # a p outside [0, 1] exits 3 here
    # One column per length: the cat code's rates at every channel of the grid, as one batch.
    codes = [CatCodeSpec(m, basis) for m in ms]
    seconds = [_seconds(code, len(ps), 1) for code in codes]
    if sum(seconds) > MAX_FIGURE1_S:
        cells = sum(_counts(code)[1] for code in codes) * len(ps)
        raise CommandLimitError(f"figure1 sums {cells} (cell, noise point) terms, an estimated "
                                f"{sum(seconds):.0f} s serially, past the cap of {MAX_FIGURE1_S:.0f} s")
    columns = _map(args, functools.partial(_cat_rates, probs), codes, seconds)
    columns = [col.tolist() for col in columns]
    rows = [(p, m, col[i]) for i, p in enumerate(ps) for m, col in zip(ms, columns)]
    config = (
        f"channel={format_channel_spec(chspec.family, None)} | basis={basis.value}"
        f" | m-range={args.m_range} | p-grid={args.p_grid}"
    )
    _write_csv(args, "figure1", config, ["p", "m", "rate"], rows)
    return EXIT_OK


def cmd_figure2(args) -> int:
    family = parse_channel_spec(args.channel).family
    ms, inners = _m_range(args.m_range), _lengths(args.inner)
    # Row label -> (outer_m, code), so each distinct code is evaluated and written once.  Labels
    # stay comma-free so the CSV needs no quoting: bare references use outer_m=0 with inner_spec
    # "hashing" or "<m><basis>"; concatenated rows read "<inner>Z-in-<outer>X".
    tasks = {
        "hashing": (0, CatCodeSpec(1)),
        "5Z": (0, CatCodeSpec(5)),
        "5Z-in-5X": (5, ConcatSpec(CatCodeSpec(5, Basis.Z), CatCodeSpec(5, Basis.X))),
    }
    for n in inners:
        for m in ms:
            tasks[f"{n}Z-in-{m}X"] = (m, ConcatSpec(CatCodeSpec(n, Basis.Z), CatCodeSpec(m, Basis.X)))
    codes = [code for _, code in tasks.values()]
    # Each code's caps are checked here, before the first threshold, which counts as a typical
    # one: the default figure2's take 31-37 points in 3 batches.
    seconds = [_seconds(code, 34, 3) for code in codes]
    results = _map(args, functools.partial(threshold, family, tol=args.tol), codes, seconds)
    rows = [(m, label, res.p_star) for (label, (m, _)), res in zip(tasks.items(), results)]
    config = (
        f"channel={format_channel_spec(family, None)} | inner={args.inner}"
        f" | m-range={args.m_range} | tol={_exact(args.tol)}"
    )
    _write_csv(args, "figure2", config, ["outer_m", "inner_spec", "threshold"], rows)
    return EXIT_OK


def cmd_degradability(args) -> int:
    chspec = parse_channel_spec(args.channel)
    verdict = degradability_verdict(kraus_from_pauli(chspec.channel()))
    if args.json:
        rec = verdict.to_record()
        rec["channel"] = chspec.canonical
        print(json.dumps(rec))
    else:
        print(
            f"{verdict.status} residual={verdict.residual:.3e} "
            f"min_choi_eigenvalue={verdict.min_choi_eigenvalue:.9g}"
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    """Oracle self-checks: analytic distributions and rates vs brute force."""
    from .catcode import syndrome_classes  # local: off the rate path
    from .oracle import (  # local: only verify reads the oracles
        _rate_from_table,
        enumerate_joint,
        oracle_concat_rate,
        oracle_concat_rate_physical,
    )

    rng = np.random.default_rng(20260826)
    chs = [PauliChannel(*(float(x) for x in rng.dirichlet([1.0] * 4))) for _ in range(16)]
    checks = []  # (name, |delta|)
    for i, m in enumerate((2, 3, 4)):
        worst_rate = worst_joint = 0.0
        for ch in chs[5 * i : 5 * i + 5]:
            table = enumerate_joint([ch] * m)  # one brute-force table for both checks
            worst_rate = max(worst_rate, abs(cat_rate(ch, CatCodeSpec(m)) - _rate_from_table(table)))
            for sc in syndrome_classes(ch, m):
                s = tuple([1] * sc.r + [0] * (m - 1 - sc.r))
                for (u, v), j in zip(UV_ORDER, sc.joint):
                    worst_joint = max(worst_joint, abs(j.to_float() - table.probs.get((s, u, v), 0.0)))
        checks += [(f"cat rate vs oracle, m={m}", worst_rate),
                   (f"joint distribution vs oracle, m={m}", worst_joint)]

    spec, ch = ConcatSpec(CatCodeSpec(2, Basis.Z), CatCodeSpec(3, Basis.X)), chs[15]
    rate = concat_rate(ch, spec)
    for name, oracle in (("composed oracle", oracle_concat_rate),
                         ("physical 4^6 oracle", oracle_concat_rate_physical)):
        checks.append((f"concat rate vs {name} (2 in 3)", abs(rate - oracle(ch, spec.inner, spec.outer))))

    failures = 0
    for name, delta in checks:
        ok = delta <= 1e-10
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: |delta| = {delta:.3e} (tol 1e-10)")
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    return EXIT_OK


# Flags shared by several subcommands; each subcommand takes only those it reads.
FLAGS = {
    "channel": dict(required=True, help="channel spec, e.g. depolarizing:p=0.19"),
    "code": dict(required=True, help="code spec, e.g. cat:m=5,basis=Z"),
    "json": dict(action="store_true", help="emit a JSON record"),
    "out": dict(help="output file (default stdout)"),
    "jobs": dict(default="0", help="parallel workers N >= 0 (0 = all cores; at most cores and "
                 "tasks); serial unless a pool is estimated to save its start-up cost"),
    "tol": dict(type=float, default=1e-6, help="threshold tolerance in p"),
}


def _add_flags(p, *names: str) -> None:
    """Add the named FLAGS to a parser or to one of its argument groups."""
    for name in names:
        p.add_argument(f"--{name}", **FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="catcodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="rate of a code on a channel")
    _add_flags(p_rate, "channel", "code", "json")
    p_rate.set_defaults(func=cmd_rate)

    p_thr = sub.add_parser("threshold", help="zero-rate noise threshold of a code")
    _add_flags(p_thr, "channel", "code", "tol", "json")
    p_thr.set_defaults(func=cmd_threshold)

    p_scan = sub.add_parser("scan-m", help="cat rate vs length at fixed noise")
    _add_flags(p_scan, "channel", "code")
    _add_flags(p_scan.add_mutually_exclusive_group(), "json", "out")
    p_scan.add_argument("--m-range", default="1:40", help="lengths, a:b or comma list")
    p_scan.set_defaults(func=cmd_scan_m)

    p_f1 = sub.add_parser("figure1", help="CSV of cat rates over a p-grid and m-set")
    _add_flags(p_f1, "channel", "code", "out", "jobs")
    p_f1.add_argument("--m-range", default="1:40", help="lengths, a:b or comma list")
    p_f1.add_argument("--p-grid", default="0.2:0.3:21", help="noise grid, lo:hi:count or comma list")
    p_f1.set_defaults(func=cmd_figure1)

    p_f2 = sub.add_parser("figure2", help="CSV of concatenated-code thresholds vs outer length")
    _add_flags(p_f2, "channel", "out", "jobs", "tol")
    p_f2.add_argument("--m-range", default="2:10", help="outer lengths, a:b or comma list")
    p_f2.add_argument("--inner", default="3,5", help="inner lengths, comma list")
    p_f2.set_defaults(func=cmd_figure2)

    p_deg = sub.add_parser("degradability", help="(non-)degradability verdict for a channel")
    _add_flags(p_deg, "channel", "json")
    p_deg.set_defaults(func=cmd_degradability)

    p_ver = sub.add_parser("verify", help="oracle-equivalence self checks")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # inside the try, so a reader that closed early is caught here
        return status
    except BrokenPipeError:  # e.g. `| head`: send what is still buffered to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CompositionLimitError, CommandLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (NoBracketError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
