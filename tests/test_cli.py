"""End-to-end tests for the command-line interface."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcodes import cli, search
from catcodes.channels import _FAMILY_KINDS, evaluate_family, make_family
from catcodes.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    SpecParseError,
    build_parser,
    format_channel_spec,
    format_code_spec,
    main,
    parse_channel_spec,
    parse_code_spec,
)


class TestSpecParsing:
    @pytest.mark.parametrize(
        "text",
        [
            "depolarizing:p=0.19",
            "two-pauli:p=0.2",
            "indep:ratio=9,p=0.29",
            "pauli:px=0.1,py=0.02,pz=0.05",
        ],
    )
    def test_channel_round_trip(self, text):
        spec = parse_channel_spec(text)
        again = parse_channel_spec(format_channel_spec(spec.family, spec.p))
        assert again.channel() == spec.channel()

    @pytest.mark.parametrize(
        "text", ["hashing", "cat:m=5,basis=Z", "cat:m=3", "concat:inner=3Z,outer=19X"]
    )
    def test_code_round_trip(self, text):
        spec = parse_code_spec(text)
        assert parse_code_spec(format_code_spec(spec)) == spec

    @pytest.mark.parametrize(
        "text,column",
        [
            ("depolarzing:p=0.19", 0),
            ("depolarizing:q=0.19", 13),
            ("cat:m=five", 4),
        ],
    )
    def test_errors_carry_column(self, text, column):
        parse = parse_channel_spec if ":p=" in text or ":q=" in text else parse_code_spec
        with pytest.raises(SpecParseError) as err:
            parse(text)
        assert err.value.column == column

    @pytest.mark.parametrize("kind", _FAMILY_KINDS)
    def test_every_family_kind_round_trips(self, kind):
        # A family kind with no CLI name fails here.
        params = {"independent_xz_ratio": {"ratio": 9.0}, "custom_ray": {"ex": 1.0, "ez": 3.0}}
        family = make_family(kind, params.get(kind))
        want = evaluate_family(family, 0.2).probs
        spec = parse_channel_spec(format_channel_spec(family, 0.2))
        assert spec.family.kind == kind
        assert spec.channel().probs == pytest.approx(want, abs=1e-12)
        # Without a noise level, as in CSV headers, the family itself comes back.
        spec = parse_channel_spec(format_channel_spec(family, None))
        assert spec.family.kind == kind
        assert evaluate_family(spec.family, 0.2).probs == pytest.approx(want, abs=1e-12)
        # A pauli header is the direction scaled to sum 1, so it reads back as
        # the channel at p = 1; the other headers carry no p at all.
        if kind == "custom_ray":
            assert spec.p == pytest.approx(1.0, abs=1e-12)
        else:
            assert spec.p is None

    @pytest.mark.parametrize(
        "text",
        [
            "depolarizing:p=0.1900000000000001",
            "two-pauli:p=0.30000000000000004",
            "indep:ratio=1.00000000000001,p=1e-300",
            "indep:ratio=0.1111111111111111,p=0.9999999999999999",
            "indep:ratio=9,p=0",  # integral values keep their short form
        ],
    )
    def test_numbers_are_written_exactly(self, text):
        spec = parse_channel_spec(text)
        assert spec.canonical == text
        again = parse_channel_spec(spec.canonical)
        assert (again.family, again.p) == (spec.family, spec.p)
        assert parse_channel_spec(format_channel_spec(spec.family, None)).family == spec.family

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(["depolarizing", "two-pauli", "indep"]),
        ratio=st.floats(1e-300, 1e300),
        p=st.floats(0.0, 1.0),
    )
    def test_random_numbers_read_back_exactly(self, name, ratio, p):
        fields = f"ratio={ratio!r},p={p!r}" if name == "indep" else f"p={p!r}"
        spec = parse_channel_spec(f"{name}:{fields}")
        again = parse_channel_spec(spec.canonical)
        assert (again.family, again.p) == (spec.family, spec.p)

    def test_lengths_are_checked_before_the_range_is_built(self):
        with pytest.raises(SpecParseError) as err:
            cli._m_range("1:100000000")
        assert err.value.column == 2

    @pytest.mark.parametrize(
        "text,lengths", [("3,1,3", [1, 3]), ("5,5", [5]), ("3,3,1,1,2", [1, 2, 3]), ("2,9", [2, 9])]
    )
    def test_length_lists_read_as_distinct_increasing_lengths(self, text, lengths):
        # The rule search._scan applies to scan-m's lengths, for --inner and --m-range alike.
        assert cli._lengths(text) == cli._m_range(text) == lengths


SPEC_TOKENS = [
    "depolarizing", "two-pauli", "indep", "pauli", "hashing", "cat", "concat", "p", "px",
    "ratio", "m", "basis", "inner", "outer", ":", ",", "=", " ", "0", "1", "-1", "0.2",
    "nan", "inf", "1e400", "3Z", "5x", "Q", "4097",
]


class TestReadersOnArbitraryText:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(max_size=30),
            st.lists(st.sampled_from(SPEC_TOKENS), max_size=10).map("".join),
        )
    )
    def test_spec_and_length_readers_raise_only_spec_errors(self, text):
        for read in (parse_channel_spec, parse_code_spec, cli._lengths, cli._m_range):
            try:
                read(text)
            except SpecParseError:
                pass

    # Short texts; a lo:hi:count grid has at most 4096 points.
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=9), st.text(alphabet="0123456789.-e:,naif ", max_size=9)))
    def test_grid_reader_raises_only_spec_errors(self, text):
        try:
            cli._p_grid(text)
        except SpecParseError:
            pass


class TestRateCommand:
    def test_noiseless_rate_is_one(self, capsys):
        code = main(["rate", "--channel", "depolarizing:p=0", "--code", "cat:m=1"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "1"

    def test_concat_rate_value(self, capsys):
        code = main(
            ["rate", "--channel", "depolarizing:p=0.19", "--code", "concat:inner=3Z,outer=3X"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(5.6553691187e-05, rel=1e-9)

    def test_deterministic_output(self, capsys):
        args = ["rate", "--channel", "indep:ratio=9,p=0.15", "--code", "cat:m=7,basis=X"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_json_record(self, capsys):
        code = main(
            ["rate", "--channel", "two-pauli:p=0.2", "--code", "hashing", "--json"]
        )
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["channel"] == "two-pauli:p=0.2"
        assert record["rate"] == pytest.approx(0.0780719051, abs=1e-9)


# (argv, column of the offending field) for each malformed value.
MALFORMED = [
    ("figure1 --channel depolarizing:p=0 --code cat:m=1 --p-grid abc", 1),
    ("figure1 --channel depolarizing:p=0 --code cat:m=1 --p-grid 0.2:0.3:x", 9),
    ("figure1 --channel depolarizing:p=0 --code cat:m=1 --p-grid=", 1),
    ("figure1 --channel depolarizing:p=0 --code cat:m=1 --p-grid 0:1:100000000", 5),
    ("figure1 --channel depolarizing:p=0 --code cat:m=1 --p-grid 0.1:0.2:0", 9),
    ("figure1 --channel depolarizing:p=0 --code cat:m=1 --p-grid 0.1:0.2:-5", 9),
    ("figure1 --channel depolarizing:p=0 --code cat:m=1 --m-range 4:2", 3),
    ("figure2 --channel depolarizing:p=0 --inner a", 1),
    ("figure2 --channel depolarizing:p=0 --inner 3,0", 3),
    ("scan-m --channel depolarizing:p=0.1 --code cat:m=1 --m-range 4097", 1),
    ("scan-m --channel depolarizing:p=0.1 --code cat:m=1 --m-range 0:3", 1),
    ("scan-m --channel depolarizing:p=0.1 --code cat:m=1 --m-range 4:2", 3),
    ("rate --channel indep:ratio=-1,p=0.1 --code hashing", 7),
    ("rate --channel indep:ratio=nan,p=0.1 --code hashing", 7),
    ("rate --channel pauli:px=nan --code hashing", 7),
    # A zero direction is no family: at p > 0 it has no channel.
    ("threshold --channel pauli:px=0,py=0,pz=0 --code hashing", 7),
    ("figure1 --channel pauli:px=0,py=0,pz=0 --code cat:m=1", 7),
    ("rate --channel depolarizing:p=0.1,p=0.2 --code hashing", 20),
    ("rate --channel depolarizing:p=0.1 --code cat:m=3,m=5", 9),
    ("figure1 --channel depolarizing:p=0.1 --code cat:m=1 --m-range 1:2 --p-grid 0.1 "
     "--jobs -5", 1),
    # No noise level: rate reports the column just past the spec's end.
    ("rate --channel depolarizing --code hashing", 13),
    ("rate --channel depolarizing:p --code hashing", 14),
    ("rate --channel depolarizing:p=0.1 --code cat:m=3,basis=W", 9),
    ("rate --channel depolarizing:p=0.1 --code concat:inner=3,outer=5X", 8),
]


class TestExitCodes:
    def test_parse_error(self, capsys):
        code = main(["rate", "--channel", "depolarzing:p=0.1", "--code", "hashing"])
        assert code == EXIT_PARSE
        assert "column" in capsys.readouterr().err

    def test_domain_error(self, capsys):
        for argv in (
            ["rate", "--channel", "depolarizing:p=1.5", "--code", "hashing"],  # NoSolutionError
            ["threshold", "--channel", "depolarizing:p=0", "--code", "hashing", "--tol", "0"],
            ["rate", "--channel", "depolarizing:p=nan", "--code", "hashing"],
            ["threshold", "--channel", "depolarizing:p=0", "--code", "hashing", "--tol", "nan"],
        ):
            assert main(argv) == EXIT_DOMAIN
            assert capsys.readouterr().err.startswith("error: ")

    def test_no_bracket_is_a_domain_error(self, monkeypatch, capsys):
        # No real input leaves the rate positive over the whole admissible range.
        def no_bracket(*args, **kwargs):
            raise cli.NoBracketError("rate is positive across the admissible range")

        monkeypatch.setattr(cli, "threshold", no_bracket)
        code = main(["threshold", "--channel", "depolarizing:p=0", "--code", "hashing"])
        assert code == EXIT_DOMAIN
        assert "admissible range" in capsys.readouterr().err

    def test_resource_error(self, capsys):
        code = main(
            [
                "rate",
                "--channel",
                "depolarizing:p=0.19",
                "--code",
                "concat:inner=16Z,outer=16X",
            ]
        )
        assert code == EXIT_RESOURCE

    @pytest.mark.parametrize(
        "argv",
        [
            "scan-m --channel depolarizing:p=0.1 --code cat:m=1 --m-range 1:3",
            "figure1 --channel depolarizing:p=0 --code cat:m=1 --m-range 1:2 --p-grid 0.1 --jobs 1",
            "figure2 --channel depolarizing:p=0 --inner 3 --m-range 2 --tol 1e-3 --jobs 1",
        ],
    )
    def test_out_that_cannot_be_opened_is_a_parse_error(self, argv, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "x.csv"
        assert main(argv.split() + ["--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot open --out") and str(out) in err
        assert err.count("\n") == 1

    def test_oversized_cat_rejected(self, capsys):
        code = main(["rate", "--channel", "depolarizing:p=0.1", "--code", "cat:m=5000"])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("argv,column", MALFORMED, ids=[argv for argv, _ in MALFORMED])
    def test_malformed_value_is_a_parse_error_with_a_column(self, argv, column, capsys):
        assert main(argv.split()) == EXIT_PARSE
        assert f"(line 1, column {column})" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            "figure1 --channel indep:ratio=9,p=0.2 --code cat:m=1 --m-range 1:2 "
            "--p-grid 0:0.3:4096 --jobs 1",  # 8,192 rows, far past the pipe buffer
            "degradability --channel two-pauli:p=0.25 --json",  # one line, fails at the flush
        ],
    )
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_stdout_closed_early_exits_141_quietly(self, argv, unbuffered):
        # Buffered, the one-line record fails only at main's flush; unbuffered, at its print.
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child writes, so even one short line fails
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            done = subprocess.run([sys.executable, "-m", "catcodes.cli", *argv.split()],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == cli.EXIT_PIPE == 141
        assert done.stderr == b""


class TestThresholdCommand:
    def test_hashing_threshold(self, capsys):
        code = main(
            ["threshold", "--channel", "depolarizing:p=0", "--code", "hashing", "--tol", "1e-6"]
        )
        assert code == EXIT_OK
        assert float(capsys.readouterr().out.strip()) == pytest.approx(
            0.1892896249, abs=1e-5
        )

    def test_json_includes_bracket(self, capsys):
        code = main(
            [
                "threshold",
                "--channel",
                "two-pauli:p=0",
                "--code",
                "cat:m=3",
                "--tol",
                "1e-5",
                "--json",
            ]
        )
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["bracket"][0] < record["p_star"] < record["bracket"][1]
        # Two-Pauli is antidegradable for 1/3 < p < 1: 42 of the 64 pre-scan
        # points, i.e. 22/64 .. 63/64, are skipped.  p = 0 and the other 22
        # points make one batch.  11 bisection levels take 1 more: the 11
        # midpoints on the predicted path, down to tol.
        assert record["skipped"] == 42
        assert record["batches"] == 2
        assert record["evaluations"] == 23 + 11
        assert "warning" not in record

    @staticmethod
    def two_crossings(monkeypatch):
        # Crosses zero downward at 0.1 and at 0.24, positive on (0.17, 0.24).
        def rates(family, code, ps):
            return [-(p - 0.1) * (p - 0.17) * (p - 0.24) for p in ps]

        monkeypatch.setattr(search, "code_rates", rates)

    def test_json_carries_the_warning(self, monkeypatch, capsys):
        self.two_crossings(monkeypatch)
        assert main(["threshold", "--channel", "depolarizing:p=0", "--code", "hashing", "--json"]) == EXIT_OK
        out, err = capsys.readouterr()
        record = json.loads(out)
        assert record["warning"] == "2 sign changes on the coarse grid; using the largest"
        assert abs(record["p_star"] - 0.24) <= 1e-6
        assert (record["channel"], record["code"]) == ("depolarizing", "cat:m=1,basis=Z")
        assert err == ""

    def test_text_prints_p_star_and_the_warning_on_stderr(self, monkeypatch, capsys):
        self.two_crossings(monkeypatch)
        assert main(["threshold", "--channel", "depolarizing:p=0", "--code", "hashing"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out.splitlines() == [out.strip()]
        assert abs(float(out) - 0.24) <= 1e-6
        assert err == "warning: 2 sign changes on the coarse grid; using the largest\n"


class TestCsvCommands:
    def test_scan_m_schema(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(
            [
                "scan-m",
                "--channel",
                "depolarizing:p=0.189",
                "--code",
                "cat:m=1,basis=Z",
                "--m-range",
                "1:6",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# catcodes-csv v1 | command=scan-m")
        assert lines[1] == "m,rate"
        assert len(lines) == 8

    def test_figure1_deterministic_across_jobs(self, tmp_path, capsys):
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"fig1-{jobs}.csv"
            code = main(
                [
                    "figure1",
                    "--channel",
                    "indep:ratio=9,p=0.25",
                    "--code",
                    "cat:m=1,basis=Z",
                    "--m-range",
                    "1,5,9",
                    "--p-grid",
                    "0.24:0.27:4",
                    "--jobs",
                    jobs,
                    "--out",
                    str(out),
                ]
            )
            assert code == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_figure2_deterministic_across_jobs(self, tmp_path):
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"fig2-{jobs}.csv"
            argv = "figure2 --channel depolarizing:p=0 --inner 3 --m-range 2:3 --tol 1e-3 --jobs"
            assert main(argv.split() + [jobs, "--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv,float_columns",
        [
            ("figure1 --channel indep:ratio=9,p=0.2 --code cat:basis=Z --m-range 1,4 "
             "--p-grid 0.2:0.3:3", {"p", "rate"}),
            ("figure2 --channel depolarizing:p=0 --inner 3 --m-range 3 --tol 1e-3", {"threshold"}),
            ("scan-m --channel depolarizing:p=0.189 --code cat:basis=Z --m-range 1:4", {"rate"}),
        ],
    )
    def test_float_cells_are_plain_float_reprs(self, tmp_path, argv, float_columns):
        # A numpy scalar would be written as np.float64(...), which no CSV reader takes.
        out = tmp_path / "out.csv"
        assert main(argv.split() + ["--out", str(out)]) == EXIT_OK
        header, *rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        columns = [i for i, name in enumerate(header) if name in float_columns]
        assert rows and len(columns) == len(float_columns)
        for row in rows:
            for i in columns:
                assert repr(float(row[i])) == row[i]

    def test_figure1_grid_of_one_point_is_its_start(self, tmp_path):
        out = tmp_path / "fig1.csv"
        argv = "figure1 --channel depolarizing:p=0 --code cat:m=1 --m-range 1:3 --p-grid 0.2:0.3:1"
        assert main(argv.split() + ["--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert [(p, m) for p, m, _ in rows] == [("0.2", "1"), ("0.2", "2"), ("0.2", "3")]

    def test_figure2_evaluates_and_writes_each_code_once(self, monkeypatch, tmp_path):
        # --inner 5,5 --m-range 5,5 names only the 5-in-5 reference row again.
        codes = []

        def counting_threshold(family, code, tol):
            codes.append(code)
            return SimpleNamespace(p_star=0.25)

        monkeypatch.setattr(cli, "threshold", counting_threshold)
        out = tmp_path / "fig2.csv"
        argv = "figure2 --channel depolarizing:p=0 --inner 5,5 --m-range 5,5 --jobs 1 --out"
        assert main(argv.split() + [str(out)]) == EXIT_OK
        labels = [line.split(",")[1] for line in out.read_text().splitlines()[2:]]
        assert len(codes) == len(set(codes)) == 3
        assert labels == ["hashing", "5Z", "5Z-in-5X"]

    def test_figure1_evaluates_each_length_once_in_increasing_order(self, monkeypatch, tmp_path):
        lengths, cat_rates = [], cli._cat_rates

        def counting_cat_rates(probs, spec):
            lengths.append(spec.m)
            return cat_rates(probs, spec)

        monkeypatch.setattr(cli, "_cat_rates", counting_cat_rates)
        out = tmp_path / "fig1.csv"
        argv = "figure1 --channel depolarizing:p=0 --code cat:basis=Z --m-range 3,1,3 --p-grid 0.1"
        assert main(argv.split() + ["--jobs", "1", "--out", str(out)]) == EXIT_OK
        assert lengths == [1, 3]
        assert [line.split(",")[1] for line in out.read_text().splitlines()[2:]] == ["1", "3"]

    @pytest.mark.parametrize("cores", [None, 64])
    def test_workers_capped_by_cores_and_tasks(self, monkeypatch, tmp_path, cores):
        # The stand-in maps in-process, so no real pool of any size starts.
        requested = []

        class InProcessPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        if cores:
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        argv = "figure1 --channel depolarizing:p=0.1 --code cat:m=1 --m-range 1:3 --p-grid 0.1"
        assert main(argv.split() + ["--jobs", "100000", "--out", str(tmp_path / "f.csv")]) == EXIT_OK
        assert all(n <= min(3, cli.os.cpu_count()) for n in requested)
        if cores:
            assert requested == [3]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("p_grid", ["0.5,1.5", "1.5,2", "nan,0.2"])
    def test_figure1_p_outside_the_range_exits_3(self, monkeypatch, tmp_path, capsys, p_grid, jobs):
        # The grid is checked before any pool starts, and no file is written.
        started = []
        pool = lambda **kw: started.append(kw)  # noqa: E731
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool)
        out = tmp_path / f"fig1-{jobs}.csv"
        argv = "figure1 --channel depolarizing:p=0.2 --code cat:m=1 --m-range 1:3".split()
        code = main(argv + ["--p-grid", p_grid, "--jobs", jobs, "--out", str(out)])
        assert code == EXIT_DOMAIN
        assert "outside [0, 1.0]" in capsys.readouterr().err
        assert not out.exists()
        assert started == []

    @pytest.mark.parametrize(
        "command",
        ["scan-m --channel depolarizing:p=0.19 --m-range 1:2",
         "figure1 --channel depolarizing:p=0 --m-range 1:2 --p-grid 0.1"],
    )
    @pytest.mark.parametrize(
        "code,status",
        [("cat:m=7,basis=X", EXIT_PARSE), ("cat:m=5", EXIT_PARSE),
         ("concat:inner=3Z,outer=3X", EXIT_PARSE),
         ("cat:m=1,basis=Z", EXIT_OK), ("cat:basis=X", EXIT_OK), ("hashing", EXIT_OK)],
    )
    def test_code_length_other_than_one_exits_2(self, tmp_path, capsys, command, code, status):
        # The lengths come from --m-range alone, so a length in --code is an error.
        out = tmp_path / "out.csv"
        assert main(command.split() + ["--code", code, "--out", str(out)]) == status
        assert out.exists() == (status == EXIT_OK)
        if status == EXIT_PARSE:
            assert "--m-range" in capsys.readouterr().err

    def test_figure2_header_tol_reads_back_exactly(self, tmp_path):
        for tol, text in ((0.010000000000000002, "0.010000000000000002"), (1e-05, "1e-05")):
            out = tmp_path / "fig2.csv"
            argv = "figure2 --channel depolarizing --inner 1 --m-range 1 --out".split()
            assert main(argv + [str(out), "--tol", repr(tol)]) == EXIT_OK
            header = out.read_text().splitlines()[0]
            assert header.endswith(f" | tol={text}")
            assert float(header.rpartition("tol=")[2]) == tol

    def test_figure2_labels_and_ordering(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main(
            [
                "figure2",
                "--channel",
                "depolarizing:p=0",
                "--inner",
                "3",
                "--m-range",
                "3:4",
                "--tol",
                "1e-4",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# catcodes-csv v1 | command=figure2")
        rows = [line.split(",") for line in lines[2:]]
        by_label = {r[1]: float(r[2]) for r in rows}
        assert by_label["hashing"] == pytest.approx(0.18929, abs=2e-4)
        assert by_label["5Z"] > by_label["hashing"]
        assert by_label["3Z-in-3X"] > by_label["hashing"]
        assert by_label["5Z-in-5X"] > by_label["5Z"]


class TestDegradability:
    def test_two_pauli_json(self, capsys):
        code = main(["degradability", "--channel", "two-pauli:p=0.25", "--json"])
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "not_degradable"
        assert record["min_choi_eigenvalue"] == pytest.approx(-0.125, abs=1e-9)

    def test_unsolvable_degrading_equation_carries_a_note(self, capsys):
        code = main(["degradability", "--channel", "pauli:px=0.25,py=0.25,pz=0.25", "--json"])
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "not_degradable"
        assert record["note"] == "the degrading equation N D = N^C has no solution"

    def test_dephasing_plain(self, capsys):
        code = main(["degradability", "--channel", "pauli:px=0,py=0,pz=0.1"])
        assert code == EXIT_OK
        assert "degradable" in capsys.readouterr().out


class TestVerify:
    def test_self_checks_pass(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_skewed_cat_rate_fails_its_three_checks(self, monkeypatch, capsys):
        cat_rate = cli.cat_rate
        monkeypatch.setattr(cli, "cat_rate", lambda ch, spec: cat_rate(ch, spec) + 1e-9)
        assert main(["verify"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 8
        failed = [line.split(":")[0] for line in lines if line.startswith("FAIL")]
        assert failed == [f"FAIL cat rate vs oracle, m={m}" for m in (2, 3, 4)]
        assert captured.err == "3 check(s) failed\n"


BASE_ARGS = {
    "rate": ["rate", "--channel", "depolarizing:p=0.1", "--code", "hashing"],
    "threshold": ["threshold", "--channel", "depolarizing:p=0", "--code", "hashing"],
    "scan-m": ["scan-m", "--channel", "depolarizing:p=0.1", "--code", "cat:m=1"],
    "figure1": ["figure1", "--channel", "depolarizing:p=0", "--code", "cat:m=1"],
    "figure2": ["figure2", "--channel", "depolarizing:p=0"],
    "degradability": ["degradability", "--channel", "two-pauli:p=0.25"],
}


class TestFlags:
    @pytest.mark.parametrize(
        "extra",
        [
            "rate --out rate.txt",
            "rate --jobs 2",
            "rate --max-compositions 10",
            "rate --tol 1e-3",
            "threshold --out threshold.txt",
            "threshold --jobs 2",
            "threshold --max-compositions 10",
            "scan-m --jobs 2",
            "scan-m --max-compositions 10",
            "scan-m --tol 1e-3",
            "figure1 --json",
            "figure1 --max-compositions 10",
            "figure1 --tol 1e-3",
            "figure2 --json",
            "figure2 --max-compositions 10",
            "degradability --out verdict.txt",
            "degradability --jobs 2",
            "degradability --max-compositions 10",
            "degradability --tol 1e-3",
        ],
    )
    def test_flag_the_command_does_not_read_is_rejected(self, extra, capsys):
        command, *flag = extra.split()
        build_parser().parse_args(BASE_ARGS[command])
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(BASE_ARGS[command] + flag)
        assert err.value.code == EXIT_PARSE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_scan_m_takes_json_or_out_not_both(self, capsys):
        build_parser().parse_args(BASE_ARGS["scan-m"] + ["--json"])
        build_parser().parse_args(BASE_ARGS["scan-m"] + ["--out", "scan.csv"])
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(BASE_ARGS["scan-m"] + ["--json", "--out", "scan.csv"])
        assert err.value.code == EXIT_PARSE
        assert "not allowed with argument" in capsys.readouterr().err

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command-line interface", 1)[1]
        block = re.search(r"```sh\n(.*?)```", block, re.S).group(1)
        lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
        commands = [words[1:] for words in lines if words and words[0] == "catcodes"]
        assert {argv[0] for argv in commands} == {
            "rate", "threshold", "scan-m", "figure1", "figure2", "degradability", "verify"
        }
        for argv in commands:
            build_parser().parse_args(argv)
