import itertools
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import oracles
from evalcomb import simlab, sympoly
from evalcomb.betting import log_wealth, optimize_lambda, optimize_lambda_batch
from evalcomb.cli import parse_scenario
from evalcomb.core import EValueVector, Regime
from evalcomb.errors import ConfigError
from evalcomb.simlab import (
    AdversarialScenario,
    FactorLevel,
    FactorScenario,
    IidLognormal,
    IidTwoPoint,
    VILLE_DEFAULT_LAMBDA,
    _BLOCK,
    _batch_verdicts,
    _class_rows,
    _log_support,
    _reject_rows,
    _sample_blocks,
    _sample_codes,
    _sample_rows,
    _ville_peaks,
    default_factor_scenario,
    enumerate_exact,
    g_clipped_identity,
    g_constant,
    g_threshold_indicator,
    generate,
    mc_demimartingale_sweep,
    mc_power,
    mc_type1,
    replication_stream,
    two_point_scenario,
)
from evalcomb.sympoly import log_averages_batch, symmetric_averages
from evalcomb.testkit import (
    StatKind,
    decide_batch,
    test_max_average,
    test_optimized_betting,
    test_ville,
)


NULL_TP = two_point_scenario(p=0.5, n=6, lo=0.0, mean=1.0)

NUMERIC_FIELDS = {
    "alpha": lambda v: test_max_average(EValueVector(np.zeros(3)), v),
    "mc alpha": lambda v: mc_type1(NULL_TP, v, 10, seed=0),
    "two_point p": lambda v: IidTwoPoint(p=v, hi=2.0, lo=0.0, n=3),
    "two_point hi": lambda v: IidTwoPoint(p=0.5, hi=v, lo=0.0, n=3),
    "two_point lo": lambda v: IidTwoPoint(p=0.5, hi=2.0, lo=v, n=3),
    "two_point_scenario hi": lambda v: two_point_scenario(p=0.5, n=3, hi=v),
    "two_point_scenario mean": lambda v: two_point_scenario(p=0.5, n=3, mean=v),
    "lognormal sigma": lambda v: IidLognormal(sigma=v, n=3),
    **{
        f"level {name}": lambda v, name=name: FactorScenario(
            (FactorLevel(**{**dict(prob=1.0, p=0.5, hi=2.0, lo=0.0), name: v}),), 3
        )
        for name in ("prob", "p", "hi", "lo")
    },
}


# ----- scenario construction -----


class TestScenarios:
    def test_two_point_mean_resolution(self):
        sc = two_point_scenario(p=0.5, n=10, lo=0.0, mean=1.0)
        assert sc.hi == 2.0
        assert sc.mean == 1.0
        assert sc.is_null

    def test_two_point_hi_and_mean_must_agree(self):
        sc = two_point_scenario(p=0.25, n=3, lo=0.0, hi=4.0, mean=1.0)
        assert sc.hi == 4.0
        with pytest.raises(ConfigError):
            two_point_scenario(p=0.25, n=3, lo=0.0, hi=4.0, mean=1.5)

    def test_two_point_requires_some_upper_point(self):
        with pytest.raises(ConfigError):
            two_point_scenario(p=0.5, n=3)

    def test_mean_from_zero_p_is_impossible(self):
        with pytest.raises(ConfigError):
            two_point_scenario(p=0.0, n=3, mean=1.0)

    @pytest.mark.parametrize("p, lo", [(0.3, 0.0), (0.7, 0.0), (0.15, 0.0), (0.3, 0.2)])
    def test_mean_gives_an_exactly_null_law(self, p, lo):
        """hi solved from mean=1 in rationals: the law the enumerator
        reads has mean exactly 1, and its exact type-I probability at
        threshold 20 is at most 1/20.  A float hi, 3.3333333333333335
        at p = 0.3, gave a mean just above 1."""
        sc = two_point_scenario(p=p, n=40, lo=lo, mean=1.0)
        exact_p, exact_hi, exact_lo = map(simlab._decimal_fraction, (sc.p, sc.hi, sc.lo))
        assert exact_p * exact_hi + (1 - exact_p) * exact_lo == 1
        assert sc.is_null
        for kind in ("max_average", "optimized_betting"):
            assert enumerate_exact(sc, 20, kind) <= Fraction(1, 20)

    def test_null_reading_is_exact(self):
        """is_null reads the exact mean: every mean=1 law on a grid of p
        is null, and a float hi just above 1/p is not, for a two-point
        law and for a factor level."""
        for p in np.arange(1, 400) / 400:
            for lo in (0.0, 0.3, 0.9):
                assert two_point_scenario(p=float(p), n=3, lo=lo, mean=1.0).is_null, (p, lo)
        assert not IidTwoPoint(p=0.3, hi=3.3333333333333335, lo=0.0, n=3).is_null
        assert IidTwoPoint(p=0.125, hi=8.0, lo=0.0, n=3).is_null
        assert not FactorScenario((FactorLevel(1.0, 0.3, 3.3333333333333335, 0.0),), 3).is_null
        assert default_factor_scenario(8).is_null

    def test_alternative_is_not_null(self):
        sc = two_point_scenario(p=0.5, n=20, lo=0.0, mean=1.2)
        assert not sc.is_null
        assert sc.hi == pytest.approx(2.4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=1.5, hi=1.0, lo=0.0, n=3),
            dict(p=0.5, hi=-1.0, lo=0.0, n=3),
            dict(p=0.5, hi=math.inf, lo=0.0, n=3),
            dict(p=0.5, hi=1.0, lo=0.0, n=0),
        ],
    )
    def test_bad_two_point_parameters(self, kwargs):
        with pytest.raises(ConfigError):
            IidTwoPoint(**kwargs)

    def test_lognormal_validation(self):
        assert IidLognormal(sigma=0.8, n=5).is_null
        for sigma in (0.0, -1.0, math.inf, float("nan")):
            with pytest.raises(ConfigError):
                IidLognormal(sigma=sigma, n=5)

    def test_lognormal_far_past_the_float_range(self):
        """sigma = 5000 puts every log e-value near -1.25e7, past the
        float range and past int32 exponents for the sums at n = 40: the
        kernel runs them in int64, and no statistic rejects under H0."""
        summary = mc_type1(IidLognormal(sigma=5000, n=40), 0.05, 2000, 1)
        assert set(summary.rejection_rate.values()) == {0.0}

    def test_factor_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            FactorScenario(
                levels=(FactorLevel(0.6, 0.5, 2.0, 0.0), FactorLevel(0.6, 0.5, 2.0, 0.0)),
                n=4,
            )

    @pytest.mark.parametrize("levels", [((1.0, 0.5, 2.0, 0.0),), 5, "level", (None,)])
    def test_factor_levels_must_be_factor_levels(self, levels):
        with pytest.raises(ConfigError):
            FactorScenario(levels=levels, n=3)

    def test_default_factor_is_null(self):
        sc = default_factor_scenario(8)
        assert sc.is_null
        assert sc.n == 8
        for level in sc.levels:
            assert level.conditional_mean == 1.0

    def test_adversarial_shape(self):
        sc = AdversarialScenario()
        assert sc.n == 2
        assert sc.is_null

    @pytest.mark.parametrize(
        "value", ["0.5", b"1", None, 10**400], ids=["text", "bytes", "None", "10**400"]
    )
    @pytest.mark.parametrize("field", sorted(NUMERIC_FIELDS))
    def test_numeric_fields_refuse_non_numbers(self, field, value):
        """Text, None and an int beyond the float range are a ConfigError
        in alpha and in every numeric scenario field, not a raw
        TypeError or OverflowError, and text is never stored."""
        with pytest.raises(ConfigError):
            NUMERIC_FIELDS[field](value)

    def test_fraction_parameters_stay_exact(self):
        """A Fraction scenario keeps its values: it samples as its float
        rounding does and enumerates exactly."""
        exact = IidTwoPoint(p=Fraction(1, 3), hi=Fraction(3), lo=0, n=4)
        assert exact.p == Fraction(1, 3)
        rounded = IidTwoPoint(p=1 / 3, hi=3.0, lo=0.0, n=4)
        want = mc_power(rounded, 0.5, 5000, seed=1).rejection_rate
        assert mc_power(exact, 0.5, 5000, seed=1).rejection_rate == want
        # A_3 of three 3s is 27/4, and two 3s reach only 3/2
        assert enumerate_exact(exact, 2, StatKind.MAX_AVERAGE) == Fraction(1, 9)
        built = two_point_scenario(p=Fraction(1, 3), n=4, lo=0, mean=1)
        assert (built.p, built.hi) == (Fraction(1, 3), Fraction(3))
        assert enumerate_exact(built, 2, StatKind.MAX_AVERAGE) == Fraction(1, 9)

    def test_numpy_float_parameters_enumerate(self):
        sc = IidTwoPoint(p=np.float64(0.5), hi=np.float64(2.0), lo=0.0, n=2)
        assert enumerate_exact(sc, np.float64(2.0), StatKind.MAX_AVERAGE) == Fraction(1, 4)

    def test_level_probabilities_are_read_to_sum_to_one(self):
        """Three levels of prob 1/3 have decimals 0.3333333333333333 that
        sum to 1 - 10^-16; each is read over that exact total, so at
        threshold 0, where every outcome rejects, the rate is exactly 1."""
        sc = FactorScenario((FactorLevel(prob=1 / 3, p=0.5, hi=2.0, lo=0.0),) * 3, 4)
        for kind in (StatKind.MAX_AVERAGE, StatKind.OPTIMIZED_BETTING):
            assert enumerate_exact(sc, 0, kind) == Fraction(1)


# ----- streams and generators -----


class TestStreams:
    def test_same_pair_same_draws(self):
        a = replication_stream(7, 3).random(5)
        b = replication_stream(7, 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_replications_differ(self):
        a = replication_stream(7, 3).random(5)
        b = replication_stream(7, 4).random(5)
        assert not np.array_equal(a, b)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigError):
            replication_stream(-1, 0)
        with pytest.raises(ConfigError):
            replication_stream(0, -1)


class TestIntegerArguments:
    """Counts and seeds are integers: integral floats and numpy ints
    pass, anything else is a ConfigError instead of being truncated or
    raising a raw ValueError or OverflowError."""

    BAD = (2.5, 0.5, -1.5, math.nan, math.inf, -math.inf, True, "3", None)

    def test_integral_values_pass(self):
        assert IidTwoPoint(0.5, 2.0, 0.0, n=4.0).n == 4
        assert type(IidLognormal(1.0, np.int64(3)).n) is int
        assert default_factor_scenario(np.float64(7.0)).n == 7
        a = mc_type1(NULL_TP, 0.1, replications=np.int32(300), seed=np.uint8(4))
        b = mc_type1(NULL_TP, 0.1, replications=300.0, seed=4.0)
        assert (a.replications, a.seed) == (b.replications, b.seed) == (300, 4)
        assert a.rejection_rate == b.rejection_rate
        [est] = mc_demimartingale_sweep(NULL_TP, [np.int16(1)], [g_constant()], 50, seed=0)
        assert est.k == 1
        np.testing.assert_array_equal(
            replication_stream(2.0, np.int64(5)).random(3), replication_stream(2, 5).random(3)
        )

    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_bad_n(self, value):
        for build in (
            lambda: IidTwoPoint(0.5, 2.0, 0.0, n=value),
            lambda: IidLognormal(1.0, value),
            lambda: default_factor_scenario(value),
            lambda: two_point_scenario(p=0.5, n=value, hi=2.0),
        ):
            with pytest.raises(ConfigError):
                build()

    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_bad_monte_carlo_arguments(self, value):
        with pytest.raises(ConfigError):
            mc_type1(NULL_TP, 0.1, replications=value, seed=1)
        with pytest.raises(ConfigError):
            mc_power(NULL_TP, 0.1, replications=10, seed=value)
        with pytest.raises(ConfigError):
            mc_demimartingale_sweep(NULL_TP, [value], [g_constant()], 10, seed=0)
        with pytest.raises(ConfigError):
            replication_stream(value, 0)
        with pytest.raises(ConfigError):
            replication_stream(0, value)

    @pytest.mark.parametrize("alpha", ["0.5", b"0.5", bytearray(b"0.1")], ids=repr)
    def test_text_alpha_refused(self, alpha):
        with pytest.raises(ConfigError, match="not text"):
            mc_type1(NULL_TP, alpha, replications=10, seed=1)
        with pytest.raises(ConfigError, match="not text"):
            mc_power(NULL_TP, alpha, replications=10, seed=1)


class TestGenerators:
    def test_iid_two_point_support_and_regime(self):
        ev = generate(NULL_TP, replication_stream(0, 0))
        assert ev.regime is Regime.INDEPENDENT
        assert ev.n == NULL_TP.n
        assert set(np.round(ev.values, 12)) <= {0.0, 2.0}

    def test_iid_lognormal_positive(self):
        ev = generate(IidLognormal(sigma=1.0, n=40), replication_stream(1, 0))
        assert (ev.values > 0).all()

    def test_factor_rows_use_one_level(self):
        sc = default_factor_scenario(12)
        for r in range(20):
            ev = generate(sc, replication_stream(5, r))
            assert ev.regime is Regime.SIMULTANEOUS
            support = set(np.round(ev.values, 12))
            assert support <= {0.0, 4.0} or support <= {0.5, 1.5}

    def test_adversarial_support(self):
        seen = set()
        for r in range(300):
            ev = generate(AdversarialScenario(), replication_stream(11, r))
            assert ev.regime is Regime.SEQUENTIAL
            seen.add(tuple(np.round(ev.values, 12)))
        assert seen == {(2.0, 1.0), (0.0, 8.0), (0.0, 0.0)}

    def test_generate_dispatch_mismatch(self):
        with pytest.raises(ConfigError):
            generate(object(), replication_stream(0, 0))


FAMILIES = (NULL_TP, IidLognormal(0.7, 4), default_factor_scenario(5), AdversarialScenario())


def _sample(scenario, seed, replications):
    blocks = _sample_blocks(partial(_sample_rows, scenario), seed, replications)
    return np.concatenate(list(blocks))


class TestBlockSampler:
    def test_block_starts_match_public_generator(self):
        """Block b starts with what the public generator draws from
        replication_stream(seed, b * _BLOCK)."""
        for scenario in FAMILIES:
            rows = _sample(scenario, 13, 2 * _BLOCK + 5)
            assert rows.shape == (2 * _BLOCK + 5, scenario.n)
            for r in (0, _BLOCK, 2 * _BLOCK):
                ev = generate(scenario, replication_stream(13, r))
                np.testing.assert_array_equal(rows[r], ev.log_values)

    def test_sample_is_a_prefix_of_a_larger_one(self):
        for scenario in FAMILIES:
            large = _sample(scenario, 21, 2 * _BLOCK + 1)
            for replications in (_BLOCK - 2, _BLOCK + 3):
                np.testing.assert_array_equal(
                    _sample(scenario, 21, replications), large[:replications]
                )

    def test_draws_per_row(self):
        """n + 1 uniforms per two-point or factor row, n normals per
        lognormal row, 2 uniforms per adversarial row."""
        draws = (
            lambda rng, rows: rng.random(rows * 7),  # two-point, n = 6
            lambda rng, rows: rng.standard_normal(rows * 4),  # lognormal, n = 4
            lambda rng, rows: rng.random(rows * 6),  # factor, n = 5
            lambda rng, rows: rng.random(rows * 2),  # adversarial
        )
        for scenario, draw in zip(FAMILIES, draws):
            rng, reference = replication_stream(3, 0), replication_stream(3, 0)
            _sample_rows(scenario, rng, 7)
            draw(reference, 7)
            assert rng.random() == reference.random()

    def test_one_stream_per_block(self, monkeypatch):
        calls = []

        def counting_stream(seed, replication):
            calls.append(replication)
            return replication_stream(seed, replication)

        monkeypatch.setattr(simlab, "replication_stream", counting_stream)
        for replications in (1, _BLOCK, _BLOCK + 1, 3 * _BLOCK - 1):
            calls.clear()
            mc_type1(NULL_TP, 0.1, replications, seed=4)
            blocks = math.ceil(replications / _BLOCK)
            assert calls == [b * _BLOCK for b in range(blocks)]

    def test_memory_does_not_grow_with_replications(self):
        def peak(blocks):
            tracemalloc.start()
            try:
                mc_type1(NULL_TP, 0.1, blocks * _BLOCK, seed=5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        mc_type1(NULL_TP, 0.1, _BLOCK, seed=5)
        assert peak(16) <= 1.25 * peak(2)

    def test_class_memo_does_not_grow_with_replications(self):
        """A many-class law: the per-call class counts hold at most one
        entry per outcome class, so the peak stays flat from 2 to 16
        blocks."""
        scenario = parse_scenario("factor:default,n=200")

        def peak(blocks):
            tracemalloc.start()
            try:
                mc_power(scenario, 0.05, blocks * _BLOCK, seed=5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        mc_power(scenario, 0.05, _BLOCK, seed=5)
        assert peak(16) <= 1.25 * peak(2)


# ----- the single-vector ops are the batch kernels' rows = 1 case -----


EDGE_ROWS = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, math.inf, 2.0, 0.5],
        [math.inf, 1.0, 1.0, 1.0],
        [1e-320, 5.0, 1e-310, 2.0],
        [1e308, 1e308, 0.5, 1e-308],
        [1e300, 0.0, 3.0, 1e-300],
        [1.0, 1.0, 1.0, 1.0],
        [2.0, 2.0, 2.0, 0.5],
        [8.0, 0.0, 8.0, 0.0],
        [0.5, 0.5, 0.25, 0.9],
    ]
)


def _log(rows):
    with np.errstate(divide="ignore"):
        return np.log(rows)


def _log_matrices():
    """Sampled rows of every scenario family, then the edge rows."""
    for seed, scenario in enumerate(
        (NULL_TP, default_factor_scenario(7), IidLognormal(1.5, 5), AdversarialScenario())
    ):
        yield _sample_rows(scenario, replication_stream(seed, 0), 64)
    yield _log(EDGE_ROWS)


class TestBatchKernels:
    def test_batch_max_average(self):
        for log_rows in _log_matrices():
            log_S, log_A = log_averages_batch(log_rows)
            for i, row in enumerate(log_rows):
                single = symmetric_averages(EValueVector(row))
                np.testing.assert_array_equal(single.log_S, log_S[i])
                np.testing.assert_array_equal(single.log_A, log_A[i])
                assert single.log_max.log_magnitude == log_A[i].max()

    def test_batch_betting(self):
        for log_rows in _log_matrices():
            batch = optimize_lambda_batch(log_rows)
            for i, row in enumerate(log_rows):
                single = optimize_lambda(EValueVector(row))
                assert single.log_value.log_magnitude == batch.log_value[i]
                assert single.lambda_star == batch.lambda_star[i]
                assert single.boundary is batch.boundary[i]
                assert single.iterations == batch.iterations[i]
                assert single.achieved_tol == batch.achieved_tol[i]
                assert single.infinite_evidence == batch.infinite_evidence[i]

    def test_batch_ville(self):
        for log_rows in _log_matrices():
            steps = np.resize([0.0, 1.0, 0.3], log_rows.shape[1])
            for strategy in (VILLE_DEFAULT_LAMBDA, steps):
                wealth = log_wealth(log_rows, strategy)
                for i, row in enumerate(log_rows):
                    report = test_ville(EValueVector(row), strategy, 0.05)
                    np.testing.assert_array_equal(
                        report.detail.log_trajectory, wealth[i]
                    )

    def test_batch_decisions_match_reports(self):
        """On every small grid row, including rows whose statistic sits
        exactly on the threshold (max average of (8, 0) is 4, both
        statistics of (2, 2, 2, 0.5) are 4), the Monte Carlo verdict is
        the report's verdict, per row and as its outcome class's verdict
        on the canonical row (its entries sorted); the Ville verdict comes
        from the column walk, with the grid as the support."""
        grid = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
        support = _log(np.array(grid))
        runners = {
            StatKind.MAX_AVERAGE: test_max_average,
            StatKind.OPTIMIZED_BETTING: test_optimized_betting,
            StatKind.VILLE_SEQUENTIAL: lambda ev, a: test_ville(
                ev, VILLE_DEFAULT_LAMBDA, a
            ),
        }
        for n in (1, 2, 3, 4):
            log_rows = _log(np.array(list(itertools.product(grid, repeat=n))))
            codes = np.searchsorted(support, log_rows).T.astype(np.int8)
            ordered, classes = np.unique(np.sort(codes, axis=0), axis=1, return_inverse=True)
            canonical = np.ascontiguousarray(support[ordered].T)
            assert len(canonical) == math.comb(n + 5, 5)
            for alpha in (0.5, 0.25, 0.125):
                per_row = _reject_rows(log_rows, alpha)
                grouped = {
                    kind: flags[classes.ravel()]
                    for kind, flags in _batch_verdicts(canonical, alpha).items()
                }
                peaks = _ville_peaks(codes.astype(np.intp), support)
                grouped[StatKind.VILLE_SEQUENTIAL] = decide_batch(peaks, alpha)[2]
                for i, row in enumerate(log_rows):
                    ev = EValueVector(row)
                    for kind, runner in runners.items():
                        verdict = runner(ev, alpha).reject
                        assert per_row[kind][i] == grouped[kind][i] == verdict, (
                            kind, np.exp(row), alpha
                        )


# ----- outcome classes -----


CLI_SPECS = (
    "two_point:p=0.5,mean=1,lo=0,n=10",
    "factor:default,n=8",
    "adversarial",
    "two_point:p=0.5,hi=2.2,lo=0.2,n=20",
    "two_point:p=0.3,hi=0.1,lo=3.7,n=50",
    "two_point:p=0.5,hi=1.5,lo=1.5,n=6",
    "two_point:p=0.125,hi=8,lo=0,n=2",
    "factor:default,n=1",
)


def _class_bound(scenario):
    """At most levels * (n + 1) classes: a row's count of hi entries and,
    for a factor law, its level; the adversarial law has three outcomes."""
    return len(getattr(scenario, "levels", (None,))) * (scenario.n + 1)


def _assert_same_verdicts(scenario, block, alpha):
    """On a block of (codes, classes), the batch verdicts of each class's
    canonical row and the Ville verdicts of the column walk equal the
    per-row verdicts; returns the classes decided."""
    support = _log_support(scenario)
    codes, classes = block
    seen, inverse = np.unique(classes, return_inverse=True)
    grouped = {
        kind: flags[inverse]
        for kind, flags in _batch_verdicts(_class_rows(scenario, seen), alpha).items()
    }
    grouped[StatKind.VILLE_SEQUENTIAL] = decide_batch(_ville_peaks(codes, support), alpha)[2]
    per_row = _reject_rows(np.ascontiguousarray(support[codes].T), alpha)
    for kind in StatKind:
        np.testing.assert_array_equal(grouped[kind], per_row[kind], err_msg=kind.value)
    return seen


def _class_probabilities(scenario):
    """P(class) for every class number level * (n + 1) + count, worked out
    here from the law: the level's probability times the binomial weight
    of the count, and for the adversarial law 1/2, 1/16 and 7/16 on its
    three outcomes, each with count 1."""
    n = scenario.n
    if isinstance(scenario, AdversarialScenario):
        return np.array([0, 1 / 2, 0, 0, 1 / 16, 0, 0, 7 / 16, 0])
    return np.array(
        [
            level.prob * math.comb(n, c) * level.p**c * (1 - level.p) ** (n - c)
            for level in scenario.levels
            for c in range(n + 1)
        ]
    )


class TestOutcomeClasses:
    @pytest.mark.parametrize("spec", CLI_SPECS)
    def test_class_frequencies_match_class_probabilities(self, spec):
        """Every class the sampler emits lies below levels * (n + 1), and
        over one 20000-row draw the class frequencies are the exact class
        probabilities within 6 SE (a class of probability 0 never occurs)."""
        scenario = parse_scenario(spec)
        want = _class_probabilities(scenario)
        assert want.sum() == pytest.approx(1.0)
        rows = 20_000
        _, classes = _sample_codes(scenario, _log_support(scenario), replication_stream(3, 0), rows)
        assert 0 <= classes.min() and classes.max() < len(want)
        got = np.bincount(classes, minlength=len(want)) / rows
        se = np.sqrt(want * (1 - want) / rows)
        assert (np.abs(got - want) <= 6 * se).all(), (got, want)

    def test_support_of_each_scenario(self):
        assert _log_support(AdversarialScenario()).tolist() == [
            -math.inf, 0.0, math.log(2.0), math.log(8.0)
        ]
        assert np.exp(_log_support(default_factor_scenario(4))).tolist() == pytest.approx(
            [0.0, 0.5, 1.5, 4.0]
        )
        assert len(_log_support(two_point_scenario(p=0.5, n=3, lo=1.0, hi=1.0))) == 1
        assert _log_support(IidLognormal(1.0, 4)) is None

    @pytest.mark.parametrize("spec", CLI_SPECS)
    def test_grouped_verdicts_equal_per_row_verdicts(self, spec):
        scenario = parse_scenario(spec)
        support = _log_support(scenario)
        for seed in (1, 2):
            block = _sample_codes(scenario, support, replication_stream(seed, 0), _BLOCK)
            for alpha in (0.5, 0.05):
                seen = _assert_same_verdicts(scenario, block, alpha)
                assert 1 <= len(seen) <= _class_bound(scenario)

    @pytest.mark.parametrize("spec", CLI_SPECS[:4])
    def test_run_decides_each_class_at_most_once(self, spec, monkeypatch):
        """Across the blocks of one Monte Carlo call, each kernel is
        called once, and each outcome class reaches it at most once, as
        its canonical row (support points ascending); the summary equals
        per-row verdicts on the same blocks."""
        scenario = parse_scenario(spec)
        grouped = mc_power(scenario, 0.05, 2 * _BLOCK + 7, seed=4)
        calls = {kernel: [] for kernel in ("_max_average_rows", "optimize_lambda_batch")}
        for kernel, batches in calls.items():
            real = getattr(simlab, kernel)

            def spy(log_rows, *args, real=real, batches=batches, **kwargs):
                batches.append(list(map(tuple, log_rows)))
                return real(log_rows, *args, **kwargs)

            monkeypatch.setattr(simlab, kernel, spy)
        mc_power(scenario, 0.05, 2 * _BLOCK + 7, seed=4)
        for batches in calls.values():
            assert len(batches) == 1
            [rows_seen] = batches
            assert 1 <= len(rows_seen) <= _class_bound(scenario)
            assert len(set(rows_seen)) == len(rows_seen)
            assert all(list(row) == sorted(row) for row in rows_seen)
        monkeypatch.undo()
        replications = 2 * _BLOCK + 7
        rejected = dict.fromkeys(StatKind, 0)
        violations = 0
        for log_rows in _sample_blocks(partial(_sample_rows, scenario), 4, replications):
            reject = _reject_rows(log_rows, 0.05)
            for kind in StatKind:
                rejected[kind] += int(np.count_nonzero(reject[kind]))
            betting_only = reject[StatKind.OPTIMIZED_BETTING] & ~reject[StatKind.MAX_AVERAGE]
            violations += int(np.count_nonzero(betting_only))
        assert grouped.rejection_rate == {
            kind: count / replications for kind, count in rejected.items()
        }
        assert grouped.dominance_violations == violations

    def test_run_optimizes_each_batch_once(self, monkeypatch):
        """At n = 100 the max-average search takes the rows' largest
        lambda* from the betting verdicts' optimizer run."""
        real, calls = simlab.optimize_lambda_batch, []

        def spy(log_rows):
            calls.append(log_rows.shape)
            return real(log_rows)

        for module in (simlab, sympoly):
            monkeypatch.setattr(module, "optimize_lambda_batch", spy)
        mc_power(parse_scenario("two_point:p=0.5,hi=2.2,lo=0.2,n=100"), 0.05, 500, seed=2)
        assert len(calls) == 1

    def test_many_support_points_group_into_classes(self):
        """A 20-level factor law has 40 support points; at n = 2 its rows
        still group into at most levels * (n + 1) classes, whose verdicts
        equal the per-row verdicts."""
        support = _log_support(FORTY_POINTS)
        assert len(support) == 40
        block = _sample_codes(FORTY_POINTS, support, replication_stream(5, 0), _BLOCK)
        for alpha in (0.5, 1 / 3):
            seen = _assert_same_verdicts(FORTY_POINTS, block, alpha)
            assert 20 <= len(seen) <= _class_bound(FORTY_POINTS)


def _where_rows(scenario, rng, rows):
    """Log e-values drawn the way the sampler drew them before support
    codes: a broadcast np.where on the log support points."""
    with np.errstate(divide="ignore"):
        if isinstance(scenario, AdversarialScenario):
            u = rng.random((rows, 2))
            tails = np.where(u[:, 1:] < 0.125, [-math.inf, math.log(8.0)], -math.inf)
            return np.where(u[:, :1] < 0.5, [math.log(2.0), 0.0], tails)
        u = rng.random((rows, scenario.n + 1))
        levels = scenario.levels
        cumulative = np.cumsum([level.prob for level in levels])
        pick = np.searchsorted(cumulative, u[:, :1], side="right")
        pick = np.minimum(pick, len(levels) - 1)
        p, hi, lo = np.array([(lv.p, lv.hi, lv.lo) for lv in levels], dtype=float).T
        return np.where(u[:, 1:] < p[pick], np.log(hi)[pick], np.log(lo)[pick])


MANY_LEVELS = FactorScenario(
    tuple(FactorLevel(1 / 70, 0.5, 1.0 + i / 10, 0.5 - i / 200) for i in range(70)), 5
)
FORTY_POINTS = FactorScenario(
    tuple(FactorLevel(1 / 20, 0.5, 1.0 + i / 7, 0.9 - i / 50) for i in range(20)), 2
)
EXTREME_SUPPORTS = [
    pytest.param(IidTwoPoint(0.5, 1e308, 0.0, 6), id="two_point:hi=1e308,lo=0"),
    pytest.param(IidTwoPoint(0.3, 5e-324, 1e308, 9), id="two_point:hi=5e-324,lo=1e308"),
    pytest.param(
        FactorScenario(
            (FactorLevel(0.5, 0.5, 1e308, 5e-324), FactorLevel(0.5, 0.25, 0.0, 1.0)), 7
        ),
        id="factor:1e308,5e-324,0,1",
    ),
]
CLI_LAWS = [pytest.param(parse_scenario(spec), id=spec) for spec in CLI_SPECS]


class TestSupportCodes:
    @pytest.mark.parametrize(
        "scenario",
        [*CLI_LAWS, pytest.param(MANY_LEVELS, id="factor:70_levels"), *EXTREME_SUPPORTS],
    )
    def test_rows_are_the_where_draws(self, scenario):
        """Every block start draws, bit for bit, what the np.where
        sampler drew from the same stream; the codes are (n, rows)."""
        support = _log_support(scenario)
        for seed, start in itertools.product((0, 13), (0, _BLOCK, 2 * _BLOCK)):
            codes, _ = _sample_codes(scenario, support, replication_stream(seed, start), _BLOCK)
            assert codes.shape == (scenario.n, _BLOCK) and codes.flags.c_contiguous
            assert codes.dtype == (np.int16 if scenario is MANY_LEVELS else np.int8)
            rows = _sample_rows(scenario, replication_stream(seed, start), _BLOCK)
            want = _where_rows(scenario, replication_stream(seed, start), _BLOCK)
            assert rows.flags.c_contiguous
            assert rows.tobytes() == want.tobytes() == support[codes].T.tobytes()

    @pytest.mark.parametrize(
        "scenario",
        [
            *CLI_LAWS,
            pytest.param(MANY_LEVELS, id="factor:70_levels"),
            pytest.param(FORTY_POINTS, id="factor:40_points"),
            *EXTREME_SUPPORTS,
        ],
    )
    def test_class_members_hold_equal_sorted_codes(self, scenario):
        """All columns of one outcome class have equal sorted codes."""
        support = _log_support(scenario)
        for seed in (1, 2):
            codes, classes = _sample_codes(scenario, support, replication_stream(seed, 0), _BLOCK)
            assert classes.shape == (_BLOCK,)
            assert len(np.unique(classes)) <= _class_bound(scenario)
            ordered = np.sort(codes, axis=0)
            for key in np.unique(classes):
                members = ordered[:, classes == key]
                assert (members == members[:, :1]).all(), key

    @pytest.mark.parametrize(
        "scenario",
        [
            *CLI_LAWS,
            pytest.param(MANY_LEVELS, id="factor:70_levels"),
            pytest.param(FORTY_POINTS, id="factor:40_points"),
            *EXTREME_SUPPORTS,
        ],
    )
    def test_class_rows_are_sorted_member_codes(self, scenario):
        """A class's canonical row, built from the class number alone, is
        bit for bit every member's sorted codes read through the support."""
        support = _log_support(scenario)
        for seed in (1, 2):
            codes, classes = _sample_codes(scenario, support, replication_stream(seed, 0), _BLOCK)
            seen, inverse = np.unique(classes, return_inverse=True)
            rows = _class_rows(scenario, seen)
            assert rows.shape == (len(seen), scenario.n)
            want = support[np.sort(codes, axis=0)].T
            assert rows[inverse].tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("scenario", [*CLI_LAWS, *EXTREME_SUPPORTS])
    def test_ville_walk_is_log_wealth(self, scenario):
        """The table-and-column walk gives log_wealth's maxima bit for bit."""
        support = _log_support(scenario)
        for seed in (1, 2):
            codes, _ = _sample_codes(scenario, support, replication_stream(seed, 0), _BLOCK)
            want = log_wealth(support[codes].T, VILLE_DEFAULT_LAMBDA).max(axis=1)
            for index in (codes, codes.astype(np.intp)):
                assert _ville_peaks(index, support).tobytes() == want.tobytes()


# ----- Monte Carlo -----


class TestMonteCarlo:
    def test_type1_deterministic_given_seed(self):
        a = mc_type1(NULL_TP, 0.1, 500, seed=9)
        b = mc_type1(NULL_TP, 0.1, 500, seed=9)
        assert a.rejection_rate == b.rejection_rate
        assert a.standard_error == b.standard_error

    def test_type1_rates_bounded(self):
        s = mc_type1(NULL_TP, 0.25, 4000, seed=2)
        se = math.sqrt(0.25 * 0.75 / 4000)
        for kind in (StatKind.MAX_AVERAGE, StatKind.OPTIMIZED_BETTING):
            assert s.rejection_rate[kind] <= 0.25 + 3 * se

    def test_type1_requires_null(self):
        with pytest.raises(ConfigError):
            mc_type1(two_point_scenario(p=0.5, n=5, mean=1.2), 0.1, 100, 0)

    def test_type1_validates_arguments(self):
        with pytest.raises(ConfigError):
            mc_type1(NULL_TP, 0.0, 100, 0)
        with pytest.raises(ConfigError):
            mc_type1(NULL_TP, 0.1, 0, 0)
        with pytest.raises(ConfigError):
            mc_type1(NULL_TP, 0.1, 100, -2)

    def test_power_reports_dominance_audit(self):
        alt = two_point_scenario(p=0.5, n=20, lo=0.0, mean=1.2)
        s = mc_power(alt, 0.05, 2000, seed=6)
        assert s.dominance_violations == 0
        assert (
            s.rejection_rate[StatKind.MAX_AVERAGE]
            >= s.rejection_rate[StatKind.OPTIMIZED_BETTING]
        )

    def test_power_at_n_one_rates_coincide(self):
        # with a single e-value both batch statistics equal max(1, E),
        # and at alpha = 0.45 the threshold 2.22 sits below hi = 2.4
        alt = two_point_scenario(p=0.5, n=1, lo=0.0, mean=1.2)
        s = mc_power(alt, 0.45, 3000, seed=8)
        assert (
            s.rejection_rate[StatKind.MAX_AVERAGE]
            == s.rejection_rate[StatKind.OPTIMIZED_BETTING]
        )

    def test_type1_runs_the_dominance_audit(self):
        s = mc_type1(NULL_TP, 0.1, 200, seed=0)
        assert s.dominance_violations == 0

    def test_rates_at_the_closed_threshold(self):
        """Two draws from {0, 8} with P(8) = 1/8: the max average of
        (8, 0) is exactly 4, so at alpha = 1/4 it rejects with
        probability 15/64; the betting statistic only on (8, 8)."""
        sc = two_point_scenario(p=0.125, n=2, lo=0.0, hi=8.0)
        s = mc_type1(sc, 0.25, 20_000, seed=3)
        assert enumerate_exact(sc, 4, StatKind.MAX_AVERAGE) == Fraction(15, 64)
        for kind in (StatKind.MAX_AVERAGE, StatKind.OPTIMIZED_BETTING):
            exact = float(enumerate_exact(sc, 4, kind))
            se = math.sqrt(exact * (1 - exact) / 20_000)
            assert abs(s.rejection_rate[kind] - exact) <= 6 * se

    def test_adversarial_rate_near_nine_sixteenths(self):
        s = mc_type1(AdversarialScenario(), 0.5, 20_000, seed=31)
        se = math.sqrt(0.5625 * 0.4375 / 20_000)
        for kind in (StatKind.MAX_AVERAGE, StatKind.OPTIMIZED_BETTING):
            assert abs(s.rejection_rate[kind] - 0.5625) <= 4 * se


# ----- demimartingale -----


class TestDemimartingale:
    def test_constant_g_is_near_zero(self):
        [est] = mc_demimartingale_sweep(NULL_TP, [1], [g_constant()], 20_000, seed=4)
        assert abs(est.estimate) <= 4 * est.standard_error

    def test_requires_iid_scenario(self):
        with pytest.raises(ConfigError):
            mc_demimartingale_sweep(default_factor_scenario(4), [0], [g_constant()], 100, 0)
        with pytest.raises(ConfigError):
            mc_demimartingale_sweep(AdversarialScenario(), [0], [g_constant()], 100, 0)

    def test_requires_exact_mean_one(self):
        with pytest.raises(ConfigError):
            mc_demimartingale_sweep(
                two_point_scenario(p=0.5, n=4, mean=1.2), [0], [g_constant()], 100, 0
            )

    def test_k_range(self):
        with pytest.raises(ConfigError):
            mc_demimartingale_sweep(NULL_TP, [NULL_TP.n], [g_constant()], 10, seed=0)
        with pytest.raises(ConfigError):
            mc_demimartingale_sweep(NULL_TP, [-1], [g_constant()], 10, seed=0)

    def test_sweep_matches_single_calls(self):
        gs = [g_constant(), g_threshold_indicator(1.2), g_clipped_identity(10.0)]
        sweep = mc_demimartingale_sweep(NULL_TP, [0, 2], gs, 2_000, seed=12)
        assert len(sweep) == 6
        for est in sweep:
            g = next(g for g in gs if g.label == est.g_label)
            [single] = mc_demimartingale_sweep(NULL_TP, [est.k], [g], 2_000, seed=12)
            assert single == est

    def test_g_factory_labels(self):
        assert "constant" in g_constant().label
        assert "1.2" in g_threshold_indicator(1.2).label
        assert "10" in g_clipped_identity(10.0).label

    def test_g_factories_behave(self):
        prefix = np.array([1.0, 3.0])
        assert g_constant()(prefix) == 1.0
        assert g_threshold_indicator(2.0)(prefix) == 1.0
        assert g_threshold_indicator(4.0)(prefix) == 0.0
        assert g_clipped_identity(2.5)(prefix) == 2.5


# ----- exact enumeration -----


class TestEnumerateExact:
    def test_adversarial_headline_value(self):
        for stat in ("max_average", "optimized_betting"):
            assert enumerate_exact(AdversarialScenario(), 2, stat) == Fraction(9, 16)

    def test_adversarial_at_threshold_one(self):
        # A_0 = 1 and M(0) = 1, so everything rejects at t = 1
        assert enumerate_exact(AdversarialScenario(), 1, StatKind.MAX_AVERAGE) == 1

    def test_adversarial_untouchable_threshold(self):
        assert enumerate_exact(AdversarialScenario(), 100, StatKind.MAX_AVERAGE) == 0

    def test_two_point_hand_computed(self):
        """n = 2 fair {0, 2}: only the (2, 2) outcome pushes any statistic
        to 2 or beyond, so both probabilities are exactly 1/4."""
        sc = two_point_scenario(p=0.5, n=2, lo=0.0, hi=2.0)
        assert enumerate_exact(sc, 2, StatKind.MAX_AVERAGE) == Fraction(1, 4)
        assert enumerate_exact(sc, 2, StatKind.OPTIMIZED_BETTING) == Fraction(1, 4)

    def test_all_ones_scenario_never_rejects_above_one(self):
        sc = two_point_scenario(p=0.5, n=3, lo=1.0, hi=1.0)
        assert enumerate_exact(sc, 2, StatKind.MAX_AVERAGE) == 0

    def test_betting_probability_never_exceeds_max_average(self):
        sc = two_point_scenario(p=0.25, n=5, lo=0.0, hi=4.0)
        for t in (Fraction(3, 2), 2, 3, 10):
            p_bet = enumerate_exact(sc, t, StatKind.OPTIMIZED_BETTING)
            p_max = enumerate_exact(sc, t, StatKind.MAX_AVERAGE)
            assert p_bet <= p_max
            assert p_max <= Fraction(1, 1) / Fraction(t)

    def test_markov_bound_on_default_factor(self):
        sc = default_factor_scenario(6)
        for t in (2, 4):
            assert enumerate_exact(sc, t, StatKind.MAX_AVERAGE) <= Fraction(1, t)

    def test_decimal_threshold_means_decimal(self):
        sc = two_point_scenario(p=0.5, n=2, lo=0.0, hi=2.0)
        assert enumerate_exact(sc, 0.5625, StatKind.MAX_AVERAGE) == enumerate_exact(
            sc, Fraction(9, 16), StatKind.MAX_AVERAGE
        )

    def test_ville_not_enumerable(self):
        with pytest.raises(ConfigError):
            enumerate_exact(AdversarialScenario(), 2, StatKind.VILLE_SEQUENTIAL)

    def test_lognormal_not_enumerable(self):
        with pytest.raises(ConfigError):
            enumerate_exact(IidLognormal(1.0, 3), 2, StatKind.MAX_AVERAGE)

    def test_outcome_budget_guard(self, monkeypatch):
        """The budget counts work, not outcomes: 2^400 outcomes enumerate,
        and a call past the budget is refused before any count law is
        built."""
        fits = two_point_scenario(p=0.5, n=400, lo=0.0, hi=2.0)
        assert 0 < enumerate_exact(fits, 2, StatKind.MAX_AVERAGE) <= Fraction(1, 2)

        def unbuilt(level, n):
            raise AssertionError("count law built for a refused call")

        monkeypatch.setattr(FactorLevel, "_count_law", unbuilt)
        for big in (
            two_point_scenario(p=0.5, n=10_000, lo=0.0, hi=2.0),
            default_factor_scenario(5_000),
        ):
            cost = sum(simlab._enumeration_cost(level, big.n) for level in big.levels)
            assert cost > simlab._ENUMERATION_BUDGET
            for kind in (StatKind.MAX_AVERAGE, StatKind.OPTIMIZED_BETTING):
                with pytest.raises(ConfigError, match="budget"):
                    enumerate_exact(big, 2, kind)

    def test_outcome_budget_guard_does_not_build_two_to_the_n(self):
        """n = 10^30 is refused at once; building 2^n would spin until
        killed, so the call runs in a subprocess with a deadline."""
        code = (
            "from evalcomb.errors import ConfigError\n"
            "from evalcomb.simlab import enumerate_exact, two_point_scenario\n"
            "try:\n"
            "    enumerate_exact(two_point_scenario(p=0.5, n=1e30, hi=2.0), 2, 'max_average')\n"
            "except ConfigError:\n"
            "    print('refused')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=10
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "refused\n", "")

    def test_unknown_statistic_string(self):
        with pytest.raises(ConfigError):
            enumerate_exact(AdversarialScenario(), 2, "bogus")

    @pytest.mark.parametrize("kind", [None, 2, 3, 1.5, []], ids=repr)
    def test_statistic_that_is_not_a_kind(self, kind):
        """Only a StatKind or its value names a statistic; anything else
        is refused rather than read as optimized_betting."""
        with pytest.raises(ConfigError, match="unknown statistic"):
            enumerate_exact(AdversarialScenario(), 2, kind)

    @pytest.mark.parametrize("threshold", ["abc", "1/0", None], ids=repr)
    def test_non_numeric_threshold(self, threshold):
        with pytest.raises(ConfigError, match="must be a number"):
            enumerate_exact(AdversarialScenario(), threshold, StatKind.MAX_AVERAGE)

    def test_threshold_string_is_exact(self):
        assert enumerate_exact(AdversarialScenario(), "2", "max_average") == Fraction(9, 16)

    @pytest.mark.parametrize(
        "kind", [StatKind.MAX_AVERAGE, StatKind.OPTIMIZED_BETTING], ids=lambda k: k.value
    )
    @pytest.mark.parametrize(
        "spec",
        [
            "two_point:p=0.5,hi=2,lo=0,n=10",
            "two_point:p=0.5,hi=2,lo=0,n=18",
            "two_point:p=0.5,hi=2,lo=0,n=50",
            "two_point:p=0.5,hi=2,lo=0,n=200",
            "factor:default,n=8",
            "factor:default,n=12",
        ],
    )
    def test_matches_monte_carlo(self, spec, kind):
        """At alpha = 1/8 the threshold 8 is reached exactly, e.g. by
        A_3 of ten 2s, so this also checks the closed threshold."""
        sc = parse_scenario(spec)
        exact = float(enumerate_exact(sc, 8, kind))
        s = mc_type1(sc, 0.125, 20_000, seed=14)
        se = math.sqrt(exact * (1 - exact) / 20_000)
        assert abs(s.rejection_rate[kind] - exact) <= 6 * se

    @pytest.mark.parametrize(
        "kind", [StatKind.MAX_AVERAGE, StatKind.OPTIMIZED_BETTING], ids=lambda k: k.value
    )
    @pytest.mark.parametrize("n", [50, 100, 200, 400])
    @pytest.mark.parametrize("spec", ["two_point:p=0.5,mean=1,lo=0", "factor:default"])
    def test_exact_type1_at_realistic_n(self, spec, n, kind):
        """The paper's bound, exactly: on the null two-point law and on the
        common-factor law (simultaneous e-values) the statistic reaches t
        with probability at most 1/t.  All entries at hi reach it, so the
        probability is not 0."""
        sc = parse_scenario(f"{spec},n={n}")
        for t in (2, 20):
            assert 0 < enumerate_exact(sc, t, kind) <= Fraction(1, t)


def _full_scan(level, n, t, kind):
    """Every outcome class decided by the Fraction reference."""
    p, hi, lo = (Fraction(repr(v)) for v in (level.p, level.hi, level.lo))
    reaches = (
        oracles.max_average_reaches
        if kind is StatKind.MAX_AVERAGE
        else oracles.poly_max_reaches
    )
    return sum(
        (
            math.comb(n, c) * p**c * (1 - p) ** (n - c)
            for c in range(n + 1)
            if reaches([hi] * c + [lo] * (n - c), t)
        ),
        Fraction(0),
    )


class TestClassBisection:
    LEVELS = [
        FactorLevel(1.0, 0.5, 2.0, 0.0),
        FactorLevel(1.0, 0.3, 0.0, 2.5),  # hi < lo
        FactorLevel(1.0, 0.5, 1.5, 1.5),  # hi == lo
        FactorLevel(1.0, 0.0, 3.0, 0.5),
        FactorLevel(1.0, 1.0, 3.0, 0.5),
        FactorLevel(1.0, 1.0, 0.5, 3.0),
        *default_factor_scenario(2).levels,
    ]

    @pytest.mark.parametrize("level", LEVELS, ids=str)
    def test_matches_a_full_scan_over_classes(self, level):
        for n in (1, 4, 7):
            for t in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4), Fraction(10)):
                for kind in (StatKind.MAX_AVERAGE, StatKind.OPTIMIZED_BETTING):
                    got = simlab._level_rejection_probability(level, n, t, kind)
                    assert got == _full_scan(level, n, t, kind), (n, t, kind)

    def test_decides_about_log2_classes(self, monkeypatch):
        decided = []
        reject = simlab._reject_exact

        def counting(count, n, hi, lo, threshold, kind):
            decided.append(count)
            return reject(count, n, hi, lo, threshold, kind)

        monkeypatch.setattr(simlab, "_reject_exact", counting)
        sc = two_point_scenario(p=0.5, n=18, lo=0.0, hi=2.0)
        for kind in (StatKind.MAX_AVERAGE, StatKind.OPTIMIZED_BETTING):
            decided.clear()
            enumerate_exact(sc, 10, kind)
            # 19 classes: bisection needs at most ceil(log2(20)) = 5
            assert 1 <= len(decided) <= 5
            # the adversarial law: one class of count 1 on each of its 3 levels
            decided.clear()
            enumerate_exact(AdversarialScenario(), 2, kind)
            assert len(decided) == 3
