import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from evalcomb import simlab
from evalcomb.betting import log_wealth, optimize_lambda, optimize_lambda_batch
from evalcomb.core import EValueVector, Regime
from evalcomb.errors import ConfigError
from evalcomb.simlab import (
    AdversarialScenario,
    FactorLevel,
    FactorScenario,
    IidLognormal,
    IidTwoPoint,
    MAX_ENUMERATION_OUTCOMES,
    VILLE_DEFAULT_LAMBDA,
    _BLOCK,
    _reject_rows,
    _sample_blocks,
    _sample_rows,
    default_factor_scenario,
    enumerate_exact,
    g_clipped_identity,
    g_constant,
    g_threshold_indicator,
    generate,
    mc_demimartingale,
    mc_demimartingale_sweep,
    mc_power,
    mc_type1,
    replication_stream,
    two_point_scenario,
)
from evalcomb.sympoly import log_averages_batch, symmetric_averages
from evalcomb.testkit import (
    StatKind,
    test_max_average,
    test_optimized_betting,
    test_ville,
)


NULL_TP = two_point_scenario(p=0.5, n=6, lo=0.0, mean=1.0)


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

    def test_factor_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            FactorScenario(
                levels=(FactorLevel(0.6, 0.5, 2.0, 0.0), FactorLevel(0.6, 0.5, 2.0, 0.0)),
                n=4,
            )

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
    return np.concatenate(list(_sample_blocks(scenario, seed, replications)))


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
        the report's verdict."""
        grid = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
        runners = {
            StatKind.MAX_AVERAGE: test_max_average,
            StatKind.OPTIMIZED_BETTING: test_optimized_betting,
            StatKind.VILLE_SEQUENTIAL: lambda ev, a: test_ville(
                ev, VILLE_DEFAULT_LAMBDA, a
            ),
        }
        for n in (1, 2, 3, 4):
            log_rows = _log(np.array(list(itertools.product(grid, repeat=n))))
            for alpha in (0.5, 0.25, 0.125):
                reject = _reject_rows(log_rows, alpha)
                for i, row in enumerate(log_rows):
                    ev = EValueVector(row)
                    for kind, runner in runners.items():
                        assert reject[kind][i] == runner(ev, alpha).reject, (
                            kind, np.exp(row), alpha
                        )


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
        est = mc_demimartingale(NULL_TP, k=1, g=g_constant(), replications=20_000, seed=4)
        assert abs(est.estimate) <= 4 * est.standard_error

    def test_requires_iid_scenario(self):
        with pytest.raises(ConfigError):
            mc_demimartingale(default_factor_scenario(4), 0, g_constant(), 100, 0)
        with pytest.raises(ConfigError):
            mc_demimartingale(AdversarialScenario(), 0, g_constant(), 100, 0)

    def test_requires_exact_mean_one(self):
        with pytest.raises(ConfigError):
            mc_demimartingale(
                two_point_scenario(p=0.5, n=4, mean=1.2), 0, g_constant(), 100, 0
            )

    def test_k_range(self):
        with pytest.raises(ConfigError):
            mc_demimartingale(NULL_TP, k=NULL_TP.n, g=g_constant(), replications=10, seed=0)
        with pytest.raises(ConfigError):
            mc_demimartingale(NULL_TP, k=-1, g=g_constant(), replications=10, seed=0)

    def test_sweep_matches_single_calls(self):
        gs = [g_constant(), g_threshold_indicator(1.2), g_clipped_identity(10.0)]
        sweep = mc_demimartingale_sweep(NULL_TP, [0, 2], gs, 2_000, seed=12)
        assert len(sweep) == 6
        for est in sweep:
            single = mc_demimartingale(
                NULL_TP,
                est.k,
                next(g for g in gs if g.label == est.g_label),
                2_000,
                seed=12,
            )
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

    def test_outcome_budget_guard(self):
        big = two_point_scenario(p=0.5, n=21, lo=0.0, hi=2.0)
        assert 2**21 > MAX_ENUMERATION_OUTCOMES
        with pytest.raises(ConfigError):
            enumerate_exact(big, 2, StatKind.MAX_AVERAGE)

    def test_unknown_statistic_string(self):
        with pytest.raises(ConfigError):
            enumerate_exact(AdversarialScenario(), 2, "bogus")

    def test_matches_monte_carlo(self):
        sc = two_point_scenario(p=0.5, n=6, lo=0.0, hi=2.0)
        exact = float(enumerate_exact(sc, 4, StatKind.MAX_AVERAGE))
        s = mc_type1(sc, 0.25, 20_000, seed=14)
        se = math.sqrt(exact * (1 - exact) / 20_000) + 1e-12
        assert abs(s.rejection_rate[StatKind.MAX_AVERAGE] - exact) <= 5 * se


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

        def counting(values, threshold, kind):
            decided.append(len(values))
            return reject(values, threshold, kind)

        monkeypatch.setattr(simlab, "_reject_exact", counting)
        sc = two_point_scenario(p=0.5, n=18, lo=0.0, hi=2.0)
        for kind in (StatKind.MAX_AVERAGE, StatKind.OPTIMIZED_BETTING):
            decided.clear()
            enumerate_exact(sc, 10, kind)
            # 19 classes: bisection needs at most ceil(log2(20)) = 5
            assert 1 <= len(decided) <= 5
