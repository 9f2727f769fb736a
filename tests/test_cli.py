import json

import pytest

from evalcomb import __version__
from evalcomb.cli import main, parse_scenario
from evalcomb.errors import ConfigError
from evalcomb.simlab import AdversarialScenario, FactorScenario, IidTwoPoint


@pytest.fixture
def evfile(tmp_path):
    def write(content, name="evalues.txt"):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----- scenario spec parsing -----


class TestParseScenario:
    def test_adversarial(self):
        assert isinstance(parse_scenario("adversarial"), AdversarialScenario)

    def test_two_point(self):
        sc = parse_scenario("two_point:p=0.5,hi=2,lo=0,n=10")
        assert isinstance(sc, IidTwoPoint)
        assert (sc.p, sc.hi, sc.lo, sc.n) == (0.5, 2.0, 0.0, 10)

    def test_two_point_mean_form(self):
        sc = parse_scenario("two_point:p=0.5,mean=1,n=4")
        assert sc.hi == 2.0

    def test_factor_default(self):
        sc = parse_scenario("factor:default,n=8")
        assert isinstance(sc, FactorScenario)
        assert sc.n == 8

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus",
            "two_point:",
            "two_point:p=0.5",
            "two_point:p=0.5,hi=2,n=3,q=1",
            "two_point:p=0.5,hi=2,n=3,n=4",
            "two_point:p=0.5,hi=2,n=2.5",
            "two_point:p=0.5,hi=2,n=nan",
            "two_point:p=0.5,hi=2,n=inf",
            "two_point:p=0.5,hi=2,n=1e400",
            "factor:custom,n=3",
            "factor:default",
            "factor:default,n=x",
        ],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ConfigError):
            parse_scenario(spec)


# ----- combine -----


class TestCombine:
    def test_all_ones_does_not_reject(self, capsys, evfile):
        path = evfile("1\n1\n1\n")
        code, out, _ = run(
            capsys,
            ["combine", "--input", path, "--alpha", "0.05", "--stat", "max_average"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["statistic"] == 1.0
        assert record["reject"] is False
        assert record["statistic_kind"] == "max_average"

    def test_zero_eight_rejects_both(self, capsys, evfile):
        path = evfile("0\n8\n")
        code, out, _ = run(capsys, ["combine", "--input", path, "--alpha", "0.5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        by_kind = {json.loads(line)["statistic_kind"]: json.loads(line) for line in lines}
        assert by_kind["max_average"]["reject"] is True
        assert by_kind["max_average"]["statistic"] == pytest.approx(4.0, rel=1e-12)
        assert by_kind["optimized_betting"]["reject"] is True
        assert by_kind["optimized_betting"]["statistic"] == pytest.approx(
            16.0 / 7.0, rel=1e-9
        )

    def test_negative_entry_names_line(self, capsys, evfile):
        path = evfile("2\n-1\n")
        code, out, err = run(capsys, ["combine", "--input", path, "--alpha", "0.05"])
        assert code == 2
        assert "line 2" in err

    def test_non_numeric_line_diagnostic(self, capsys, evfile):
        path = evfile("1\nbanana\n")
        code, _, err = run(capsys, ["combine", "--input", path, "--alpha", "0.05"])
        assert code == 2
        assert "line 2" in err
        assert "banana" in err

    def test_header_and_comments_skipped(self, capsys, evfile):
        path = evfile("e_value\n# calibration batch\n\n2.0\n1.0\n")
        code, out, _ = run(
            capsys,
            ["combine", "--input", path, "--alpha", "0.5", "--stat", "max_average"],
        )
        assert code == 0
        assert json.loads(out)["statistic"] == pytest.approx(2.0)

    def test_inf_serialized_as_string(self, capsys, evfile):
        path = evfile("inf\n1\n")
        code, out, _ = run(
            capsys,
            ["combine", "--input", path, "--alpha", "0.05", "--stat", "max_average"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["statistic"] == "inf"
        assert record["log_statistic"] == "inf"
        assert record["reject"] is True

    def test_missing_file(self, capsys):
        code, _, err = run(
            capsys, ["combine", "--input", "/nonexistent", "--alpha", "0.05"]
        )
        assert code == 2

    def test_empty_file(self, capsys, evfile):
        code, _, _ = run(
            capsys, ["combine", "--input", evfile(""), "--alpha", "0.05"]
        )
        assert code == 2

    def test_bad_alpha_is_config_error(self, capsys, evfile):
        code, _, _ = run(
            capsys, ["combine", "--input", evfile("1\n"), "--alpha", "1.5"]
        )
        assert code == 3

    def test_unknown_statistic(self, capsys, evfile):
        code, _, err = run(
            capsys,
            ["combine", "--input", evfile("1\n"), "--alpha", "0.1", "--stat", "median"],
        )
        assert code == 3
        assert "median" in err

    def test_ville_needs_a_strategy(self, capsys, evfile):
        code, _, err = run(
            capsys,
            [
                "combine",
                "--input",
                evfile("2\n1\n"),
                "--alpha",
                "0.5",
                "--stat",
                "ville_sequential",
            ],
        )
        assert code == 3
        assert "lambda" in err

    def test_ville_with_constant_lambda(self, capsys, evfile):
        code, out, _ = run(
            capsys,
            [
                "combine",
                "--input",
                evfile("0\n8\n"),
                "--alpha",
                "0.4",
                "--stat",
                "ville_sequential",
                "--lambda",
                "0.5",
                "--regime",
                "sequential",
            ],
        )
        assert code == 0
        record = json.loads(out)
        assert record["reject"] is False
        assert record["statistic"] == pytest.approx(2.25, rel=1e-12)
        assert record["regime"] == "sequential"
        assert record["warnings"] == []

    def test_ville_lambda_out_of_range(self, capsys, evfile):
        code, _, _ = run(
            capsys,
            [
                "combine",
                "--input",
                evfile("1\n"),
                "--alpha",
                "0.1",
                "--stat",
                "ville_sequential",
                "--lambda",
                "1.5",
            ],
        )
        assert code == 3

    def test_ville_with_strategy_file(self, capsys, evfile):
        evpath = evfile("2\n2\n")
        lampath = evfile("0\n1\n", name="lams.txt")
        code, out, _ = run(
            capsys,
            [
                "combine",
                "--input",
                evpath,
                "--alpha",
                "0.45",
                "--stat",
                "ville_sequential",
                "--lambda-file",
                lampath,
                "--regime",
                "sequential",
            ],
        )
        assert code == 0
        record = json.loads(out)
        assert record["statistic"] == pytest.approx(2.0, rel=1e-12)

    def test_strategy_file_length_mismatch_is_input_error(self, capsys, evfile):
        evpath = evfile("2\n2\n")
        lampath = evfile("0.5\n", name="lams.txt")
        code, _, _ = run(
            capsys,
            [
                "combine",
                "--input",
                evpath,
                "--alpha",
                "0.45",
                "--stat",
                "ville_sequential",
                "--lambda-file",
                lampath,
            ],
        )
        assert code == 2

    def test_lambda_without_ville_is_config_error(self, capsys, evfile):
        code, _, _ = run(
            capsys,
            [
                "combine",
                "--input",
                evfile("1\n"),
                "--alpha",
                "0.1",
                "--stat",
                "max_average",
                "--lambda",
                "0.5",
            ],
        )
        assert code == 3

    def test_regime_travels_into_warnings(self, capsys, evfile):
        code, out, _ = run(
            capsys,
            [
                "combine",
                "--input",
                evfile("0\n8\n"),
                "--alpha",
                "0.25",
                "--stat",
                "max_average",
                "--regime",
                "sequential",
            ],
        )
        assert code == 0
        record = json.loads(out)
        assert record["reject"] is True  # the result is reported anyway
        assert len(record["warnings"]) == 1

    def test_tsv_format(self, capsys, evfile):
        code, out, _ = run(
            capsys,
            [
                "combine",
                "--input",
                evfile("0\n8\n"),
                "--alpha",
                "0.5",
                "--format",
                "tsv",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split("\t")
        assert header[0] == "statistic_kind"
        assert len(lines) == 3
        first = dict(zip(header, lines[1].split("\t")))
        assert first["statistic_kind"] == "max_average"
        assert first["reject"] == "true"

    def test_json_round_trips(self, capsys, evfile):
        code, out, _ = run(
            capsys, ["combine", "--input", evfile("0\n8\n"), "--alpha", "0.5"]
        )
        assert code == 0
        for line in out.strip().splitlines():
            record = json.loads(line)
            assert json.dumps(record, sort_keys=True) == line

    def test_stat_order_follows_request(self, capsys, evfile):
        code, out, _ = run(
            capsys,
            [
                "combine",
                "--input",
                evfile("1\n2\n"),
                "--alpha",
                "0.1",
                "--stat",
                "optimized_betting,max_average",
            ],
        )
        kinds = [json.loads(line)["statistic_kind"] for line in out.strip().splitlines()]
        assert kinds == ["optimized_betting", "max_average"]


# ----- simulate -----


class TestSimulate:
    def test_null_scenario_reports_rates(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "simulate",
                "--scenario",
                "two_point:p=0.5,mean=1,n=5",
                "--alpha",
                "0.25",
                "--reps",
                "400",
                "--seed",
                "3",
            ],
        )
        assert code == 0
        record = json.loads(out)
        assert record["replications"] == 400
        assert record["seed"] == 3
        assert set(record["rejection_rate"]) == {
            "max_average",
            "optimized_betting",
            "ville_sequential",
        }
        assert "dominance_violations" not in record
        assert "elapsed" not in record

    def test_alternative_scenario_adds_dominance_audit(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "simulate",
                "--scenario",
                "two_point:p=0.5,mean=1.2,n=10",
                "--alpha",
                "0.1",
                "--reps",
                "300",
            ],
        )
        assert code == 0
        record = json.loads(out)
        assert record["dominance_violations"] == 0

    def test_deterministic_output(self, capsys):
        argv = [
            "simulate",
            "--scenario",
            "adversarial",
            "--alpha",
            "0.5",
            "--reps",
            "500",
            "--seed",
            "11",
        ]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_zero_reps_is_config_error(self, capsys):
        code, _, _ = run(
            capsys,
            ["simulate", "--scenario", "adversarial", "--alpha", "0.5", "--reps", "0"],
        )
        assert code == 3

    def test_malformed_scenario_is_config_error(self, capsys):
        code, _, _ = run(
            capsys,
            ["simulate", "--scenario", "weird:stuff", "--alpha", "0.5", "--reps", "10"],
        )
        assert code == 3


# ----- enumerate -----


class TestEnumerate:
    def test_headline_counterexample(self, capsys):
        for stat in ("optimized_betting", "max_average"):
            code, out, _ = run(
                capsys,
                [
                    "enumerate",
                    "--scenario",
                    "adversarial",
                    "--threshold",
                    "2",
                    "--stat",
                    stat,
                ],
            )
            assert code == 0
            assert out == "9/16 = 0.5625\n"

    def test_zero_probability_formatting(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "enumerate",
                "--scenario",
                "two_point:p=0.5,hi=1,lo=1,n=3",
                "--threshold",
                "2",
                "--stat",
                "max_average",
            ],
        )
        assert code == 0
        assert out == "0/1 = 0\n"

    def test_fractional_threshold(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "enumerate",
                "--scenario",
                "adversarial",
                "--threshold",
                "9/16",
                "--stat",
                "max_average",
            ],
        )
        assert code == 0
        # t < 1 is reached by A_0 = 1 on every path
        assert out == "1/1 = 1\n"

    def test_bad_threshold(self, capsys):
        code, _, _ = run(
            capsys,
            [
                "enumerate",
                "--scenario",
                "adversarial",
                "--threshold",
                "two",
                "--stat",
                "max_average",
            ],
        )
        assert code == 3

    def test_ville_is_rejected(self, capsys):
        code, _, err = run(
            capsys,
            [
                "enumerate",
                "--scenario",
                "adversarial",
                "--threshold",
                "2",
                "--stat",
                "ville_sequential",
            ],
        )
        assert code == 3

    def test_too_large_support(self, capsys):
        code, _, _ = run(
            capsys,
            [
                "enumerate",
                "--scenario",
                "two_point:p=0.5,hi=2,lo=0,n=25",
                "--threshold",
                "2",
                "--stat",
                "max_average",
            ],
        )
        assert code == 3


# ----- argparse plumbing -----


def test_no_arguments_is_config_error(capsys):
    assert main([]) == 3


def test_unknown_command_is_config_error(capsys):
    assert main(["frobnicate"]) == 3


def test_mutually_exclusive_lambda_flags(capsys, tmp_path):
    path = tmp_path / "ev.txt"
    path.write_text("1\n")
    lam = tmp_path / "lam.txt"
    lam.write_text("0.5\n")
    code = main(
        [
            "combine",
            "--input",
            str(path),
            "--alpha",
            "0.1",
            "--stat",
            "ville_sequential",
            "--lambda",
            "0.5",
            "--lambda-file",
            str(lam),
        ]
    )
    assert code == 3


def test_version_prints_and_returns(capsys):
    code, out, err = run(capsys, ["--version"])
    assert (code, out, err) == (0, f"evalcomb {__version__}\n", "")

