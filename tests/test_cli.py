import json

import numpy as np
import pytest

from evalcomb import __version__, betting, simlab, sympoly
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

    @pytest.mark.parametrize("n", ["8", "8.0", "8e0"])
    def test_integral_n_spellings(self, n):
        """Both families read n by one rule: an integer literal or any
        integral float."""
        assert parse_scenario(f"two_point:p=0.5,hi=2,n={n}").n == 8
        assert parse_scenario(f"factor:default,n={n}").n == 8

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
            "factor:default,n=2.5",
            "factor:default,n=inf",
        ],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ConfigError):
            parse_scenario(spec)

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("two_point:p=abc,hi=2,n=3", "p"),
            ("two_point:p=0.5,hi=2x,n=3", "hi"),
            ("two_point:p=0.5,hi=2,lo=,n=3", "lo"),
            ("two_point:p=0.5,mean=one,n=3", "mean"),
        ],
    )
    def test_rejects_a_non_numeric_two_point_value(self, spec, key):
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            parse_scenario(spec)

    @pytest.mark.parametrize("family", ["two_point:p=0.5,hi=2,", "factor:default,"])
    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "--alpha", "0.5", "--reps", "10"],
            ["enumerate", "--threshold", "2", "--stat", "max_average"],
        ],
    )
    def test_refusal_names_the_exact_n(self, capsys, family, command):
        """An integer n above 2^53 is read exactly, not rounded through
        a float, so the refusal names the n that was written."""
        n = "123456789012345678901"
        code, out, err = run(capsys, [*command, "--scenario", f"{family}n={n}"])
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f" {n} " in err or f"^{n} " in err


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

    def test_all_ones_at_large_n_does_not_reject(self, capsys, evfile):
        """Every A_k of 2000 ones is exactly 1, so at alpha just below 1
        the max average must not reject."""
        path = evfile("1\n" * 2000)
        code, out, _ = run(
            capsys,
            ["combine", "--input", path, "--alpha", "0.999999999999", "--stat", "max_average"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["log_statistic"] == 0.0
        assert record["reject"] is False

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("nan", "NaN is not allowed"),
            ("-3.5", "negative value -3.5 is not a valid e-value"),
            ("pear", "not a number: 'pear'"),
        ],
    )
    def test_first_bad_line_deep_in_a_long_file(self, capsys, evfile, bad, message):
        lines = ["e_value", "# batch", ""] + ["1.5"] * 5000
        lines[4321] = bad  # line 4322
        lines[4400] = "banana"  # a later fault is not the one reported
        path = evfile("\n".join(lines) + "\n")
        code, out, err = run(capsys, ["combine", "--input", path, "--alpha", "0.05"])
        assert (code, out) == (2, "")
        assert f"e-value file {path}, line 4322: {message}" in err
        assert "banana" not in err

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

    def test_undecodable_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "evalues.txt"
        path.write_bytes(b"2\n\xff\n")
        code, out, err = run(
            capsys, ["combine", "--input", str(path), "--alpha", "0.05"]
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read e-value file")
        assert err.count("\n") == 1

    def test_undecodable_lambda_file_is_input_error(self, capsys, evfile, tmp_path):
        lampath = tmp_path / "lams.txt"
        lampath.write_bytes(b"0.5\n\xff\n")
        code, out, err = run(
            capsys,
            [
                "combine",
                "--input",
                evfile("2\n2\n"),
                "--alpha",
                "0.45",
                "--stat",
                "ville_sequential",
                "--lambda-file",
                str(lampath),
            ],
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read betting-fraction file")
        assert err.count("\n") == 1

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        """An e-value file (with its header) and a betting-fraction file
        saved with a UTF-8 byte-order mark print what they print without one."""
        evpath, lampath = tmp_path / "evalues.txt", tmp_path / "lams.txt"
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            evpath.write_bytes(bom + b"e_value\n2.0\n0.5\n8.0\n")
            lampath.write_bytes(bom + b"0.5\n0.25\n1\n")
            for stat in (["--stat", "max_average,optimized_betting"],
                         ["--stat", "ville_sequential", "--lambda-file", str(lampath)]):
                code, out, err = run(
                    capsys, ["combine", "--input", str(evpath), "--alpha", "0.05", *stat]
                )
                assert (code, err) == (0, "")
                outputs.append(out)
        assert outputs[:2] == outputs[2:]

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

    def test_empty_statistic_tokens_are_skipped(self, capsys, evfile):
        code, out, _ = run(
            capsys,
            ["combine", "--input", evfile("2\n8\n"), "--alpha", "0.1",
             "--stat", "max_average, ,,optimized_betting,"],
        )
        assert code == 0
        kinds = [json.loads(line)["statistic_kind"] for line in out.splitlines()]
        assert kinds == ["max_average", "optimized_betting"]

    @pytest.mark.parametrize("stat", ["", " , ,"])
    def test_no_statistic_is_config_error(self, capsys, evfile, stat):
        code, out, err = run(
            capsys, ["combine", "--input", evfile("1\n"), "--alpha", "0.1", "--stat", stat]
        )
        assert (code, out) == (3, "")
        assert "--stat selects no statistics" in err

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

    def test_tsv_output_is_pinned(self, capsys, evfile):
        """The whole TSV output, header included, byte for byte."""
        warning = (
            "the 1/t tail guarantee for this statistic holds for independent "
            "or simultaneous e-values; this vector's regime is 'unknown'"
        )
        code, out, _ = run(
            capsys,
            ["combine", "--input", evfile("0\n8\n"), "--alpha", "0.5", "--format", "tsv"],
        )
        assert code == 0
        assert out == (
            "statistic_kind\tlog_statistic\tstatistic\talpha\treject\tp_bound\tregime"
            "\twarnings\n"
            "max_average\t1.3862943611198904\t3.999999999999999\t0.5\ttrue\t0.25000000000000006"
            f"\tunknown\t{warning}\n"
            "optimized_betting\t0.8266785731844678\t2.2857142857142856\t0.5\ttrue\t0.43750000000000006"
            f"\tunknown\t{warning}\n"
        )

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

    def test_both_batch_statistics_run_the_optimizer_once(self, capsys, evfile, monkeypatch):
        """At n = 1000 the max-average search starts from the betting
        report's lambda* instead of optimizing again."""
        values = np.random.default_rng(3).lognormal(0.05, 1.0, 1000)
        path = evfile("".join(f"{v!r}\n" for v in values.tolist()))
        real, calls = betting.optimize_lambda_batch, []

        def spy(log_rows):
            calls.append(log_rows.shape)
            return real(log_rows)

        for module in (betting, sympoly):
            monkeypatch.setattr(module, "optimize_lambda_batch", spy)
        code, out, _ = run(capsys, ["combine", "--input", path, "--alpha", "0.05"])
        assert code == 0 and len(out.splitlines()) == 2
        assert calls == [(1, 1000)]


# ----- simulate -----


PINNED_SCENARIOS = (
    ("two_point:p=0.5,mean=1,lo=0,n=10", 0.05),
    ("factor:default,n=8", 0.05),
    ("adversarial", 0.5),
    ("two_point:p=0.5,hi=2.2,lo=0.2,n=20", 0.05),
)
PINNED_STDOUT = (
    (
        '{"alpha": 0.05, "rejection_rate": {"max_average": 0.01165, '
        '"optimized_betting": 0.01165, "ville_sequential": 0.00425}, '
        '"replications": 20000, '
        '"scenario": "two_point:p=0.5,mean=1,lo=0,n=10", "seed": 7, '
        '"standard_error": {"max_average": 0.0007587581136304244, '
        '"optimized_betting": 0.0007587581136304244, '
        '"ville_sequential": 0.00045999660324832836}}\n'
    ),
    (
        '{"alpha": 0.05, "rejection_rate": {"max_average": 0.00355, '
        '"optimized_betting": 0.00355, "ville_sequential": 0.0069}, '
        '"replications": 20000, "scenario": "factor:default,n=8", "seed": 7, '
        '"standard_error": {"max_average": 0.00042055900299482356, '
        '"optimized_betting": 0.00042055900299482356, '
        '"ville_sequential": 0.0005853370823722003}}\n'
    ),
    (
        '{"alpha": 0.5, "rejection_rate": {"max_average": 0.55875, '
        '"optimized_betting": 0.55875, "ville_sequential": 0.06335}, '
        '"replications": 20000, "scenario": "adversarial", "seed": 7, '
        '"standard_error": {"max_average": 0.0035110428472179033, '
        '"optimized_betting": 0.0035110428472179033, '
        '"ville_sequential": 0.0017224514144091262}}\n'
    ),
    (
        '{"alpha": 0.05, "dominance_violations": 0, '
        '"rejection_rate": {"max_average": 0.0592, '
        '"optimized_betting": 0.0592, "ville_sequential": 0.1124}, '
        '"replications": 20000, '
        '"scenario": "two_point:p=0.5,hi=2.2,lo=0.2,n=20", "seed": 7, '
        '"standard_error": {"max_average": 0.0016687624156841501, '
        '"optimized_betting": 0.0016687624156841501, '
        '"ville_sequential": 0.002233452932121024}}\n'
    ),
)


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

    def test_benchmark_scenarios_print_pinned_output(self, capsys):
        """The stdout of the four benchmark scenarios at seed 7 and 20000
        replications, recorded before the symmetric statistics were
        decided once per outcome class: grouping must not move a byte."""
        for (spec, alpha), expected in zip(PINNED_SCENARIOS, PINNED_STDOUT):
            argv = ["simulate", "--scenario", spec, "--alpha", repr(alpha),
                    "--reps", "20000", "--seed", "7"]
            assert run(capsys, argv) == (0, expected, "")

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

    @pytest.mark.parametrize("spec", ["two_point:p=0.5,hi=2,n=1e30", "factor:default,n=1e30"])
    def test_block_numpy_cannot_index_is_config_error(self, capsys, spec):
        argv = ["simulate", "--scenario", spec, "--alpha", "0.5", "--reps", "10"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too large to index" in err

    @pytest.mark.parametrize("spec", ["two_point:p=0.5,hi=2,n=2e18", "factor:default,n=1e18"])
    def test_block_bytes_numpy_cannot_index_is_config_error(self, capsys, spec):
        """One replication: n + 1 draws, or a factor law's 2 (n + 1) class
        counts, that numpy could count but not address in bytes."""
        argv = ["simulate", "--scenario", spec, "--alpha", "0.5", "--reps", "1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too large to index" in err

    def test_block_out_of_memory_is_config_error(self, capsys, monkeypatch):
        """An allocation failure of a block, simulated without allocating."""

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(simlab, "_sample_codes", out_of_memory)
        argv = ["simulate", "--scenario", "two_point:p=0.5,hi=2,n=1e10",
                "--alpha", "0.5", "--reps", "10"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too large for memory" in err


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
                "two_point:p=0.5,hi=2,lo=0,n=10000",
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

