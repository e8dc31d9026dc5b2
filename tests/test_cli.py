"""End-to-end tests for the command-line interface."""

import json
import math
import re
import shlex
from pathlib import Path

import pytest

from catcodes.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
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
        from catcodes.cli import SpecParseError

        parse = parse_channel_spec if ":p=" in text or ":q=" in text else parse_code_spec
        with pytest.raises(SpecParseError) as err:
            parse(text)
        assert err.value.column == column


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


class TestExitCodes:
    def test_parse_error(self, capsys):
        code = main(["rate", "--channel", "depolarzing:p=0.1", "--code", "hashing"])
        assert code == EXIT_PARSE
        assert "column" in capsys.readouterr().err

    def test_domain_error(self, capsys):
        code = main(["rate", "--channel", "depolarizing:p=1.5", "--code", "hashing"])
        assert code == EXIT_DOMAIN

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

    def test_oversized_cat_rejected(self, capsys):
        code = main(["rate", "--channel", "depolarizing:p=0.1", "--code", "cat:m=5000"])
        assert code == EXIT_PARSE


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
        # points make one batch.  11 bisection levels take 2 more: 7 levels
        # from 11 midpoints (3 full levels, then 4 on the predicted path),
        # then the last 4 from 8 (3 full levels, then 1 on the path).
        assert record["skipped"] == 42
        assert record["batches"] == 3
        assert record["evaluations"] == 23 + 11 + 8


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

    @pytest.mark.parametrize("p_grid,no_channel", [("0.5,1.5", {1.5}), ("1.5,2", {1.5, 2.0})])
    def test_figure1_nan_where_p_has_no_channel(self, tmp_path, p_grid, no_channel):
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"fig1-{jobs}.csv"
            code = main(
                [
                    "figure1",
                    "--channel",
                    "depolarizing:p=0.2",
                    "--code",
                    "cat:m=1",
                    "--m-range",
                    "1:3",
                    "--p-grid",
                    p_grid,
                    "--jobs",
                    jobs,
                    "--out",
                    str(out),
                ]
            )
            assert code == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        rows = [line.split(",") for line in outputs[0].decode().splitlines()[2:]]
        assert [(float(p), int(m)) for p, m, _ in rows] == [
            (float(p), m) for p in p_grid.split(",") for m in (1, 2, 3)
        ]
        for p, _, rate in rows:
            assert math.isnan(float(rate)) == (float(p) in no_channel)

    def test_figure2_rows_and_ordering(self, tmp_path):
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
