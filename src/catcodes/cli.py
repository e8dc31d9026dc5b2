"""Command-line surface: rates, thresholds, scans, figure data, degradability.

Commands: rate, threshold, scan-m, figure1, figure2, degradability, verify.
Exit codes: 0 ok, 2 usage/parse error, 3 numeric-domain error, 4 resource cap.
CSV outputs start with a schema-version comment line echoing the full config,
so every figure is reproducible from the file alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .channels import (
    Basis,
    ChannelFamily,
    NoSolutionError,
    PauliChannel,
    evaluate_family,
    make_family,
)
from .catcode import CatCodeSpec, cat_rate, cat_rates
from .concat import CompositionLimitError, ConcatSpec, concat_rate
from .degradable import degradability_verdict, kraus_from_pauli
from .oracle import (
    enumerate_joint,
    oracle_cat_rate,
    oracle_concat_rate,
    oracle_concat_rate_physical,
)
from .search import NoBracketError, best_length_scan, threshold

CSV_SCHEMA = "catcodes-csv v1"
MAX_CAT_LENGTH = 4096

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4


class SpecParseError(ValueError):
    """A channel or code spec string failed to parse; includes a column number."""

    def __init__(self, message: str, text: str, column: int):
        super().__init__(f"{message} (line 1, column {column + 1}): {text!r}")
        self.column = column


@dataclass(frozen=True)
class ChannelSpec:
    """A parsed --channel argument: a family plus an optional noise level."""

    family: ChannelFamily
    p: Optional[float]
    canonical: str

    def channel(self) -> PauliChannel:
        if self.p is None:
            raise SpecParseError("channel spec needs p=<noise>", self.canonical, len(self.canonical))
        return evaluate_family(self.family, self.p)


def _parse_fields(body: str, spec: str, offset: int) -> dict[str, float]:
    fields: dict[str, float] = {}
    col = offset
    for part in body.split(",") if body else []:
        if "=" not in part:
            raise SpecParseError(f"expected key=value, got {part!r}", spec, col)
        key, _, val = part.partition("=")
        try:
            fields[key.strip()] = float(val)
        except ValueError:
            raise SpecParseError(f"bad number {val!r} for {key!r}", spec, col + len(key) + 1) from None
        col += len(part) + 1
    return fields


def parse_channel_spec(spec: str) -> ChannelSpec:
    """Parse grammars like depolarizing:p=0.19, two-pauli:p=0.2,
    indep:ratio=9,p=0.29, pauli:px=0.1,py=0.0,pz=0.1."""
    name, sep, body = spec.partition(":")
    name = name.strip()
    fields = _parse_fields(body, spec, len(name) + len(sep))
    p = fields.pop("p", None)
    if name == "depolarizing":
        family = make_family("depolarizing")
        extra = fields
    elif name == "two-pauli":
        family = make_family("two_pauli")
        extra = fields
    elif name == "indep":
        if "ratio" not in fields:
            raise SpecParseError("indep needs ratio=<q_x/q_z>", spec, len(spec))
        family = make_family("independent_xz_ratio", {"ratio": fields.pop("ratio")})
        extra = fields
    elif name == "pauli":
        px, py, pz = (fields.pop(k, 0.0) for k in ("px", "py", "pz"))
        extra = fields
        if p is not None:
            raise SpecParseError("pauli takes px/py/pz, not p", spec, len(name) + 1)
        p = px + py + pz
        if p == 0.0:
            family = make_family("depolarizing")
        else:
            try:
                family = make_family("custom_ray", {"ex": px, "ey": py, "ez": pz})
            except ValueError as exc:
                raise SpecParseError(str(exc), spec, len(name) + 1) from None
    else:
        raise SpecParseError(f"unknown channel family {name!r}", spec, 0)
    if extra:
        raise SpecParseError(f"unexpected fields {sorted(extra)}", spec, len(name) + 1)
    return ChannelSpec(family, p, format_channel_spec(family, p))


def format_channel_spec(family: ChannelFamily, p: Optional[float]) -> str:
    tail = "" if p is None else f"p={p:.12g}"
    if family.kind == "depolarizing":
        return f"depolarizing:{tail}" if tail else "depolarizing"
    if family.kind == "two_pauli":
        return f"two-pauli:{tail}" if tail else "two-pauli"
    if family.kind == "independent_xz_ratio":
        ratio = family.param_dict["ratio"]
        return f"indep:ratio={ratio:.12g}" + (f",{tail}" if tail else "")
    d = family.param_dict
    p_val = 0.0 if p is None else p
    return (
        f"pauli:px={p_val * d['ex']:.12g},py={p_val * d['ey']:.12g},pz={p_val * d['ez']:.12g}"
    )


def parse_code_spec(spec: str) -> Union[CatCodeSpec, ConcatSpec]:
    """Parse cat:m=5,basis=Z | concat:inner=3Z,outer=19X | hashing."""
    name, _, body = spec.partition(":")
    name = name.strip()
    if name == "hashing":
        if body:
            raise SpecParseError("hashing takes no parameters", spec, len(name) + 1)
        return CatCodeSpec(1, Basis.Z)
    if name == "cat":
        m, basis = 1, Basis.Z
        col = len(name) + 1
        for part in body.split(",") if body else []:
            key, _, val = part.partition("=")
            if key == "m":
                m = _parse_length(val, spec, col)
            elif key == "basis":
                basis = _parse_basis(val, spec, col)
            else:
                raise SpecParseError(f"unknown cat field {key!r}", spec, col)
            col += len(part) + 1
        return CatCodeSpec(m, basis)
    if name == "concat":
        inner = outer = None
        col = len(name) + 1
        for part in body.split(",") if body else []:
            key, _, val = part.partition("=")
            if key == "inner":
                inner = _parse_mini_cat(val, spec, col + len(key) + 1)
            elif key == "outer":
                outer = _parse_mini_cat(val, spec, col + len(key) + 1)
            else:
                raise SpecParseError(f"unknown concat field {key!r}", spec, col)
            col += len(part) + 1
        if inner is None or outer is None:
            raise SpecParseError("concat needs inner=<mB> and outer=<mB>", spec, len(spec))
        return ConcatSpec(inner, outer)
    raise SpecParseError(f"unknown code kind {name!r}", spec, 0)


def _parse_length(val: str, spec: str, col: int) -> int:
    try:
        m = int(val)
    except ValueError:
        raise SpecParseError(f"bad length {val!r}", spec, col) from None
    if not 1 <= m <= MAX_CAT_LENGTH:
        raise SpecParseError(f"length {m} outside [1, {MAX_CAT_LENGTH}]", spec, col)
    return m


def _parse_basis(val: str, spec: str, col: int) -> Basis:
    try:
        return Basis[val.strip().upper()]
    except KeyError:
        raise SpecParseError(f"basis must be Z, X, or Y, got {val!r}", spec, col) from None


def _parse_mini_cat(val: str, spec: str, col: int) -> CatCodeSpec:
    val = val.strip()
    if len(val) < 2:
        raise SpecParseError(f"expected <length><basis> like 3Z, got {val!r}", spec, col)
    return CatCodeSpec(_parse_length(val[:-1], spec, col), _parse_basis(val[-1], spec, col + len(val) - 1))


def format_code_spec(code: Union[CatCodeSpec, ConcatSpec]) -> str:
    if isinstance(code, ConcatSpec):
        return (
            f"concat:inner={code.inner.m}{code.inner.basis.value},"
            f"outer={code.outer.m}{code.outer.basis.value}"
        )
    return f"cat:m={code.m},basis={code.basis.value}"


def _parse_range(text: str, what: str) -> list[int]:
    lo, sep, hi = text.partition(":")
    try:
        if sep:
            return list(range(int(lo), int(hi) + 1))
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise SpecParseError(f"bad {what} {text!r}", text, 0) from None


def _parse_p_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) == 3:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 2:
            return [lo]
        return [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    return [float(v) for v in text.split(",")]


def _open_out(path: Optional[str]):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def _write_csv(args, command: str, config: str, header: list[str], rows) -> None:
    out, close = _open_out(args.out)
    try:
        out.write(f"# {CSV_SCHEMA} | command={command} | {config}\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        if close:
            out.close()


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _map(args, fn, items):
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))  # ordered map keeps outputs canonical


def cmd_rate(args) -> int:
    chspec = parse_channel_spec(args.channel)
    code = parse_code_spec(args.code)
    ch = chspec.channel()
    if isinstance(code, ConcatSpec):
        value = concat_rate(ch, code)
    else:
        value = cat_rate(ch, code)
    if args.json:
        print(json.dumps({"rate": value, "channel": chspec.canonical, "code": format_code_spec(code)}))
    else:
        print(f"{value:.12g}")
    return EXIT_OK


def cmd_threshold(args) -> int:
    chspec = parse_channel_spec(args.channel)
    code = parse_code_spec(args.code)
    res = threshold(chspec.family, code, tol=args.tol)
    if args.json:
        rec = {
            "p_star": res.p_star,
            "bracket": list(res.bracket),
            "evaluations": res.evaluations,
            "skipped": res.skipped,
            "batches": res.batches,
            "channel": format_channel_spec(chspec.family, None),
            "code": format_code_spec(code),
        }
        if res.warning:
            rec["warning"] = res.warning
        print(json.dumps(rec))
    else:
        print(f"{res.p_star:.12g}")
        if res.warning:
            print(f"warning: {res.warning}", file=sys.stderr)
    return EXIT_OK


def cmd_scan_m(args) -> int:
    chspec = parse_channel_spec(args.channel)
    code = parse_code_spec(args.code)
    if isinstance(code, ConcatSpec):
        raise SpecParseError("scan-m scans single-level cat codes; use cat:basis=...", args.code, 0)
    p = args.p if args.p is not None else chspec.p
    if p is None:
        raise SpecParseError("scan-m needs --p or a channel spec with p=", args.channel, 0)
    ms = _parse_range(args.m_range, "m-range")
    rows, best_m = best_length_scan(chspec.family, p, code.basis, ms)
    config = (
        f"channel={format_channel_spec(chspec.family, p)} | basis={code.basis.value}"
        f" | m-range={args.m_range}"
    )
    if args.json:
        print(
            json.dumps(
                {
                    "rows": [{"m": r.m, "rate": r.rate} for r in rows],
                    "best_m": best_m,
                    "channel": format_channel_spec(chspec.family, p),
                }
            )
        )
    else:
        _write_csv(args, "scan-m", config, ["m", "rate"], [(r.m, r.rate) for r in rows])
    return EXIT_OK


def _grid_channel(family: ChannelFamily, p: float) -> Optional[PauliChannel]:
    try:
        return evaluate_family(family, p)
    except NoSolutionError:
        return None


def _figure1_column(task) -> list[float]:
    """Rates of one cat code at every channel of the grid, evaluated as one
    batch; nan where p has no channel."""
    code, chs = task
    rates = iter(cat_rates([ch for ch in chs if ch is not None], code).tolist())
    return [math.nan if ch is None else next(rates) for ch in chs]


def cmd_figure1(args) -> int:
    chspec = parse_channel_spec(args.channel)
    code = parse_code_spec(args.code)
    if isinstance(code, ConcatSpec):
        raise SpecParseError("figure1 uses single-level cat codes", args.code, 0)
    ms = _parse_range(args.m_range, "m-range")
    ps = _parse_p_grid(args.p_grid)
    chs = [_grid_channel(chspec.family, p) for p in ps]
    columns = _map(args, _figure1_column, [(CatCodeSpec(m, code.basis), chs) for m in ms])
    rows = [(p, m, col[i]) for i, p in enumerate(ps) for m, col in zip(ms, columns)]
    config = (
        f"channel={format_channel_spec(chspec.family, None)} | basis={code.basis.value}"
        f" | m-range={args.m_range} | p-grid={args.p_grid}"
    )
    _write_csv(args, "figure1", config, ["p", "m", "rate"], rows)
    return EXIT_OK


def _figure2_row(task) -> tuple:
    label, outer_m, family, code, tol = task
    return (outer_m, label, threshold(family, code, tol=tol).p_star)


def cmd_figure2(args) -> int:
    family = parse_channel_spec(args.channel).family
    ms = _parse_range(args.m_range, "m-range")
    inners = [int(v) for v in args.inner.split(",")]
    # Labels stay comma-free so the CSV needs no quoting: bare references
    # use outer_m=0 with inner_spec "hashing" or "<m><basis>"; concatenated
    # rows read "<inner>Z-in-<outer>X".
    tasks = [
        ("hashing", 0, family, CatCodeSpec(1), args.tol),
        ("5Z", 0, family, CatCodeSpec(5), args.tol),
        ("5Z-in-5X", 5, family, ConcatSpec(CatCodeSpec(5, Basis.Z), CatCodeSpec(5, Basis.X)), args.tol),
    ]
    for n in inners:
        for m in ms:
            code = ConcatSpec(CatCodeSpec(n, Basis.Z), CatCodeSpec(m, Basis.X))
            tasks.append((f"{n}Z-in-{m}X", m, family, code, args.tol))
    rows = _map(args, _figure2_row, tasks)
    config = (
        f"channel={format_channel_spec(family, None)} | inner={args.inner}"
        f" | m-range={args.m_range} | tol={args.tol:g}"
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
    rng = np.random.default_rng(20260826)
    failures = 0

    def check(name: str, delta: float, tol: float) -> None:
        nonlocal failures
        ok = delta <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: |delta| = {delta:.3e} (tol {tol:.0e})")

    def random_channel() -> PauliChannel:
        v = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
        return PauliChannel(*(float(x) for x in v))

    from .catcode import syndrome_classes  # local: off the rate path

    for m in (2, 3, 4):
        worst_rate = 0.0
        worst_joint = 0.0
        for _ in range(5):
            ch = random_channel()
            worst_rate = max(worst_rate, abs(cat_rate(ch, CatCodeSpec(m)) - oracle_cat_rate([ch] * m)))
            table = enumerate_joint([ch] * m)
            for sc in syndrome_classes(ch, m):
                s = tuple([1] * sc.r + [0] * (m - 1 - sc.r))
                for (u, v), j in zip(((0, 0), (1, 0), (1, 1), (0, 1)), sc.joint):
                    worst_joint = max(worst_joint, abs(j.to_float() - table.probs.get((s, u, v), 0.0)))
        check(f"cat rate vs oracle, m={m}", worst_rate, 1e-10)
        check(f"joint distribution vs oracle, m={m}", worst_joint, 1e-10)

    spec = ConcatSpec(CatCodeSpec(2, Basis.Z), CatCodeSpec(3, Basis.X))
    ch = random_channel()
    composed = oracle_concat_rate(ch, spec.inner, spec.outer)
    check("concat rate vs composed oracle (2 in 3)", abs(concat_rate(ch, spec) - composed), 1e-10)
    physical = oracle_concat_rate_physical(ch, spec.inner, spec.outer)
    check("concat rate vs physical 4^6 oracle (2 in 3)", abs(concat_rate(ch, spec) - physical), 1e-10)

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
    "jobs": dict(type=int, default=0, help="parallel workers (0 = all cores)"),
    "tol": dict(type=float, default=1e-6, help="threshold tolerance in p"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
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
    _add_flags(p_scan, "channel", "code", "json", "out")
    p_scan.add_argument("--p", type=float, help="noise level (defaults to the channel spec's p)")
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
        return args.func(args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CompositionLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (NoBracketError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
