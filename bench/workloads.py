"""The four benchmark workloads: seeded inputs, one call per op, output checks.

Each workload builds its inputs from the benchmark seed alone, so the
same seed gives the same inputs, and exposes

* ``op(i)``: the i-th call into the program (a pure function of i, so a
  traced run can replay exactly the ops an untraced one timed);
* ``check(i, result)``: None when the output is right, else a message;
* ``key(i)``: ops with one key do the same work, on the same input or
  (``simulate``) on the same scenario with a fresh seed, and ``run.py``
  takes one latency per key from their latencies;
* ``reps(i)``: batches of e-values op i combines (a ``simulate``
  replication and an enumerated outcome class each count as one);
* ``round_size``: ops that together make one unit of work; runs stop
  after whole rounds;
* ``trace_rounds``: rounds a traced run covers, fixed so that its
  counts repeat exactly for a seed;
* ``warmup``: the set-up call, as data the set-up probe can run;
* ``describe(ops)``: input sizes and properties of a run of ``ops`` ops,
  among them the share of ops that repeat an earlier op's input.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from entry import VILLE_LAMBDA, combine_batch, run_cli

EXPECTED_ENUMERATE = Path(__file__).with_name("enumerate_expected.json")

# Log-domain results are compared with exact values to this relative
# tolerance; the recursions lose a few ulps per entry, far below it.
LOG_RTOL = 1e-9


def _close(got: float, want: float) -> bool:
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= LOG_RTOL * max(1.0, abs(want))


def _log_fraction(x: Fraction) -> float:
    if x == 0:
        return -math.inf
    return math.log(x.numerator) - math.log(x.denominator)


def _lognormal(rng: np.random.Generator, n: int, shift: float) -> np.ndarray:
    sigma = rng.uniform(0.3, 2.0)
    return np.exp(sigma * rng.standard_normal(n) - 0.5 * sigma * sigma + shift)


# --------------------------------------------------------------------
# combine-small


class CombineSmall:
    """Library calls on many small seeded batches; the cost is per call."""

    name = "combine-small"
    round_size = 256
    trace_rounds = 24
    POOL = 2048
    ALPHAS = (0.01, 0.05, 0.1)
    EDGE_SHARE = 1 / 16
    EDGE_KINDS = ("ties", "zero_inf", "subnormal", "extreme", "threshold")
    REGULAR_KINDS = ("null", "alternative", "two_point")
    # Interior optima cost a bisection, so op latencies form two
    # clusters.  This mix puts about 57% of batches in the slower one;
    # near 50% the median latency would sit in the gap between them and
    # jump between seeds.
    REGULAR_WEIGHTS = (0.2, 0.4, 0.4)
    # Regular batches checked against exact rationals; every edge-case
    # batch is checked too.
    EXACT_REGULAR = 64
    # Exact arithmetic on Fraction(float) entries grows with n times the
    # entries' total bits.  esp_fractions stays under about 0.1 s a batch
    # within the first budget; poly_max_reaches grows much faster
    # (lognormal n = 8: 50 ms, n = 12: 1 s; eight entries near 1e300:
    # 17 s) and stays under about 0.15 s a batch within the second.
    EXACT_SUMS_BUDGET = 1_000_000
    EXACT_BETTING_BUDGET = 12_000

    def __init__(self, ec, seed: int, workdir: Path) -> None:
        self.ec = ec
        rng = np.random.default_rng([seed, 1])
        self.pool = [self._draw(rng) for _ in range(self.POOL)]
        edge = [j for j, (kind, _, _) in enumerate(self.pool) if kind in self.EDGE_KINDS]
        regular = sorted(set(range(self.POOL)) - set(edge))
        sample = edge + sorted(rng.choice(regular, self.EXACT_REGULAR, replace=False))
        exact = {j: self._exact(ec._ratpoly, *self.pool[j][1:]) for j in sample}
        self.expected = {j: e for j, e in exact.items() if e is not None}
        self.warmup = {"values": [0.5, 2.0, 1.5, 3.0, 0.0, 4.0, 0.8, 1.2], "alpha": 0.05}

    def _draw(self, rng: np.random.Generator) -> tuple[str, np.ndarray, float]:
        n = int(round(math.exp(rng.uniform(math.log(2), math.log(64)))))
        alpha = float(rng.choice(self.ALPHAS))
        if rng.random() < self.EDGE_SHARE:
            kind = self.EDGE_KINDS[rng.integers(len(self.EDGE_KINDS))]
            if kind == "ties":
                values = np.full(n, rng.choice([0.0, 0.5, 1.0, 2.0]))
            elif kind == "zero_inf":
                values = _lognormal(rng, n, 0.3)
                values[rng.integers(n)] = 0.0
                values[rng.integers(n)] = math.inf
            elif kind == "subnormal":
                values = _lognormal(rng, n, 0.3)
                where = rng.choice(n, max(1, n // 4), replace=False)
                values[where] = rng.choice([5e-324, 1e-315, 2.5e-310], where.size)
            elif kind == "extreme":
                values = 10.0 ** (rng.uniform(280, 300, n) * rng.choice([-1.0, 1.0], n))
            else:  # statistic exactly on the closed threshold: A_1 = 4 = 1/alpha
                values, alpha = np.array([0.0, 8.0]), 0.25
            return kind, values, alpha
        kind = self.REGULAR_KINDS[rng.choice(len(self.REGULAR_KINDS), p=self.REGULAR_WEIGHTS)]
        if kind == "null":
            values = _lognormal(rng, n, 0.0)
        elif kind == "alternative":
            values = _lognormal(rng, n, rng.uniform(0.05, 0.6))
        else:
            p, mean = rng.choice([0.25, 0.5]), rng.choice([1.5, 2.0])
            values = np.where(rng.random(n) < p, mean / p, 0.0)
        return kind, values, alpha

    def _exact(self, ratpoly, values: np.ndarray, alpha: float) -> dict | None:
        """Exact statistics and decisions, from Fraction(float) entries,
        or None where exact arithmetic would be too slow."""
        threshold = 1 / Fraction(alpha)
        if np.isinf(values).any():
            # S_1 holds the infinite entry alone, every interior bet is
            # infinite and so is the running Ville product.
            return {"log": (math.inf, math.inf), "reject": (True, True, True)}
        exact = [Fraction(float(v)) for v in values]
        n = len(exact)
        cost = n * sum(v.numerator.bit_length() + v.denominator.bit_length() for v in exact)
        if cost > self.EXACT_SUMS_BUDGET:
            return None
        best = max(s / math.comb(n, k) for k, s in enumerate(ratpoly.esp_fractions(exact)))
        lam = Fraction(VILLE_LAMBDA)
        running, ville = Fraction(1), Fraction(0)
        for v in exact:
            running *= 1 - lam + lam * v
            ville = max(ville, running)
        bet = ratpoly.poly_max_reaches(exact, threshold) if cost <= self.EXACT_BETTING_BUDGET else None
        return {
            "log": (_log_fraction(best), _log_fraction(ville)),
            "reject": (best >= threshold, bet, ville >= threshold),
        }

    def op(self, i: int):
        _, values, alpha = self.pool[i % self.POOL]
        return combine_batch(self.ec, values, alpha)

    def key(self, i: int) -> int:
        return i % self.POOL

    def reps(self, i: int) -> int:
        return 1

    def check(self, i: int, reports) -> str | None:
        j = i % self.POOL
        kind, values, alpha = self.pool[j]
        problems = [p for r in reports for p in _report_problems(r, alpha)]
        log_max, log_bet, log_ville = (r.log_statistic.log_magnitude for r in reports)
        if log_bet > log_max and not _close(log_bet, log_max):
            problems.append(f"betting {log_bet} above max average {log_max}")
        expected = self.expected.get(j)
        if expected is not None:
            for what, got, want in zip(("max_average", "ville"), (log_max, log_ville),
                                       expected["log"]):
                if not _close(got, want):
                    problems.append(f"{what} log {got!r}, exact {want!r}")
            for r, want in zip(reports, expected["reject"]):
                if want is not None and r.reject != want:
                    problems.append(f"{r.statistic_kind.value} reject={r.reject}, exact {want}")
        if problems:
            return f"batch {j} ({kind}, n={values.size}, alpha={alpha}): " + "; ".join(problems)
        return None

    def describe(self, ops: int) -> dict:
        kinds = [kind for kind, _, _ in self.pool]
        sizes = [values.size for _, values, _ in self.pool]
        interior = [_interior_optimum(values) for _, values, _ in self.pool]
        return {
            "input_size": {"batches": self.POOL, "n_min": min(sizes), "n_max": max(sizes),
                           "n_mean": float(np.mean(sizes))},
            "properties": {
                "repeated_input_share": _repeated_share(ops, self.POOL),
                "edge_case_share": sum(k in self.EDGE_KINDS for k in kinds) / self.POOL,
                "interior_optimum_share": float(np.mean(interior)),
                "exact_checked_batches": len(self.expected),
                "exact_betting_checked_batches": sum(
                    e["reject"][1] is not None for e in self.expected.values()),
            },
        }


def _repeated_share(ops: int, inputs: int) -> float:
    """Share of ``ops`` ops, cycling through ``inputs`` inputs, whose
    input an earlier op already had."""
    return max(0, ops - inputs) / ops


def _interior_optimum(values: np.ndarray) -> bool:
    """Whether sup over lambda of the betting product sits inside (0, 1),
    decided from the inputs with the closed-form boundary tests."""
    if np.isinf(values).any() or np.sum(values - 1.0) <= 0.0:
        return False
    if (values == 0.0).any():
        return True
    with np.errstate(divide="ignore", over="ignore"):
        return bool(np.sum(1.0 - 1.0 / values) < 0.0)


def _report_problems(report, alpha: float) -> list[str]:
    kind = report.statistic_kind.value
    problems = []
    if report.reject != (report.log_statistic.log_magnitude >= report.log_threshold):
        problems.append(f"{kind}: reject disagrees with log_statistic >= log_threshold")
    if report.reject != (report.p_bound <= alpha):
        problems.append(f"{kind}: reject={report.reject} but p_bound={report.p_bound}")
    if not 0.0 <= report.p_bound <= 1.0:
        problems.append(f"{kind}: p_bound {report.p_bound} outside [0, 1]")
    return problems


# --------------------------------------------------------------------
# combine-large


class CombineLarge:
    """``evalcomb combine`` in process on large batches read from files."""

    name = "combine-large"
    # A fixed cycle of sizes: random sizes made the tail latency swing.
    SIZES = (1000, 2000, 3000)
    VARIANTS = 2
    ALPHA = 0.05
    STATS = ("max_average", "optimized_betting", "ville_sequential")
    RECORD_KEYS = {"statistic_kind", "log_statistic", "statistic", "alpha", "reject",
                   "p_bound", "regime", "warnings"}
    round_size = len(SIZES)
    trace_rounds = 20

    def __init__(self, ec, seed: int, workdir: Path) -> None:
        self.ec = ec
        rng = np.random.default_rng([seed, 2])
        self.files, self.ville = [], []
        for variant in range(self.VARIANTS):
            for n in self.SIZES:
                values = _lognormal(rng, n, rng.choice([0.0, 0.01]))
                path = workdir / f"evalues-{variant}-{n}.txt"
                path.write_text("e_value\n" + "".join(f"{v!r}\n" for v in values.tolist()))
                self.files.append(str(path))
                steps = np.log1p(-VILLE_LAMBDA + VILLE_LAMBDA * values)
                self.ville.append(float(np.max(np.cumsum(steps))))
        self.warmup = {"argv": self._argv(0)}

    def _argv(self, i: int) -> list[str]:
        return ["combine", "--input", self.files[i % len(self.files)],
                "--alpha", repr(self.ALPHA), "--stat", ",".join(self.STATS),
                "--lambda", repr(VILLE_LAMBDA), "--regime", "independent"]

    def op(self, i: int):
        return run_cli(self.ec, self._argv(i))

    def key(self, i: int) -> int:
        return i % len(self.files)

    def reps(self, i: int) -> int:
        return 1

    def check(self, i: int, result) -> str | None:
        code, out, err = result
        where = f"file {self.files[i % len(self.files)]}"
        if code != 0:
            return f"{where}: exit code {code}: {err.strip()}"
        records = [json.loads(line) for line in out.splitlines()]
        if [r.get("statistic_kind") for r in records] != list(self.STATS):
            return f"{where}: statistics {[r.get('statistic_kind') for r in records]}"
        problems = []
        for r in records:
            kind = r["statistic_kind"]
            if set(r) != self.RECORD_KEYS:
                problems.append(f"{kind}: keys {sorted(r)}")
                continue
            ok_types = (
                isinstance(r["log_statistic"], float) or r["log_statistic"] in ("inf", "-inf")
            ) and (isinstance(r["statistic"], float) or r["statistic"] == "inf")
            ok_types &= isinstance(r["reject"], bool) and isinstance(r["p_bound"], float)
            ok_types &= isinstance(r["warnings"], list) and all(
                isinstance(w, str) for w in r["warnings"])
            if not ok_types or r["alpha"] != self.ALPHA or r["regime"] != "independent":
                problems.append(f"{kind}: bad field types or values {r}")
                continue
            if r["reject"] != (r["p_bound"] <= self.ALPHA):
                problems.append(f"{kind}: reject={r['reject']} but p_bound={r['p_bound']}")
        if not problems:
            log_max, log_bet, log_ville = (float(r["log_statistic"]) for r in records)
            if log_bet > log_max and not _close(log_bet, log_max):
                problems.append(f"betting {log_bet} above max average {log_max}")
            want = self.ville[i % len(self.files)]
            if not _close(log_ville, want):
                problems.append(f"ville log {log_ville!r}, expected {want!r}")
        return f"{where}: " + "; ".join(problems) if problems else None

    def describe(self, ops: int) -> dict:
        return {"input_size": {"sizes": list(self.SIZES), "files": len(self.files)},
                "properties": {"repeated_input_share": _repeated_share(ops, len(self.files))}}


# --------------------------------------------------------------------
# simulate


class Simulate:
    """``evalcomb simulate`` in process, rotating through four scenarios."""

    name = "simulate"
    REPS = 20_000
    # (spec, alpha, n, power): the alternative is a power run, with the
    # dominance audit.
    SCENARIOS = (
        ("two_point:p=0.5,mean=1,lo=0,n=10", 0.05, 10, False),
        ("factor:default,n=8", 0.05, 8, False),
        ("adversarial", 0.5, 2, False),
        ("two_point:p=0.5,hi=2.2,lo=0.2,n=20", 0.05, 20, True),
    )
    ADVERSARIAL_RATE = 9 / 16
    # Rates are checked within this many binomial standard errors: a
    # false alarm is a 1e-9 event per check.
    K_SE = 6.0
    STATS = ("max_average", "optimized_betting", "ville_sequential")
    round_size = len(SCENARIOS)
    trace_rounds = 3

    # Every round's ops use a fresh simulation seed, so no timed op
    # repeats an input.  The checks run the first round a second time,
    # outside the timer, and it must print the same bytes.

    def __init__(self, ec, seed: int, workdir: Path) -> None:
        self.ec = ec
        self.first_seed = int(np.random.default_rng([seed, 3]).integers(0, 2**30))
        self.warmup = {"argv": self._argv(0)}

    def _seed(self, i: int) -> int:
        return self.first_seed + i // len(self.SCENARIOS)

    def _argv(self, i: int) -> list[str]:
        spec, alpha = self.SCENARIOS[i % len(self.SCENARIOS)][:2]
        return ["simulate", "--scenario", spec, "--alpha", repr(alpha),
                "--reps", str(self.REPS), "--seed", str(self._seed(i))]

    def op(self, i: int):
        return run_cli(self.ec, self._argv(i))

    def key(self, i: int) -> int:
        return i % len(self.SCENARIOS)

    def reps(self, i: int) -> int:
        return self.REPS

    def _margin(self, rate: float) -> float:
        return self.K_SE * math.sqrt(rate * (1.0 - rate) / self.REPS)

    def check(self, i: int, result) -> str | None:
        code, out, err = result
        k = i % len(self.SCENARIOS)
        spec, alpha, _, power = self.SCENARIOS[k]
        seed = self._seed(i)
        where = f"simulate {spec} seed {seed}"
        if code != 0:
            return f"{where}: exit code {code}: {err.strip()}"
        if i < len(self.SCENARIOS) and self.op(i)[1] != out:
            return f"{where}: stdout differs when the same call is repeated"
        record = json.loads(out)
        rates = record["rejection_rate"]
        problems = []
        if (record["replications"], record["seed"], record["alpha"]) != (self.REPS, seed, alpha):
            problems.append(f"echoed replications/seed/alpha wrong: {record}")
        if sorted(rates) != sorted(self.STATS) or sorted(record["standard_error"]) != sorted(self.STATS):
            problems.append(f"statistics {sorted(rates)}")
            return f"{where}: " + "; ".join(problems)
        if power != ("dominance_violations" in record):
            problems.append("dominance audit present on the wrong runs")
        if power:
            if record["dominance_violations"] != 0:
                problems.append(f"dominance_violations={record['dominance_violations']}")
            if rates["optimized_betting"] > rates["max_average"]:
                problems.append(f"betting power above max-average power: {rates}")
        elif spec == "adversarial":
            for stat in ("max_average", "optimized_betting"):
                if abs(rates[stat] - self.ADVERSARIAL_RATE) > self._margin(self.ADVERSARIAL_RATE):
                    problems.append(f"{stat} rate {rates[stat]} not near 9/16")
            if rates["ville_sequential"] > alpha + self._margin(alpha):
                problems.append(f"ville rate {rates['ville_sequential']} above alpha")
        else:
            for stat in self.STATS:
                if rates[stat] > alpha + self._margin(alpha):
                    problems.append(f"{stat} null rate {rates[stat]} above alpha={alpha}")
        return f"{where}: " + "; ".join(problems) if problems else None

    def describe(self, ops: int) -> dict:
        return {
            "input_size": {"reps_per_call": self.REPS,
                           "scenarios": [spec for spec, *_ in self.SCENARIOS]},
            "properties": {"rows_x_n_per_call": [self.REPS * n for _, _, n, _ in self.SCENARIOS],
                           "repeated_input_share": 0.0},
        }


# --------------------------------------------------------------------
# enumerate


class Enumerate:
    """``evalcomb enumerate`` in process: exact rational decisions, no numpy."""

    name = "enumerate"
    STATS = ("max_average", "optimized_betting")
    # (spec, thresholds, outcome classes decided per call); every
    # threshold gives an answer strictly between 0 and 1.
    CASES = (
        [(f"two_point:p=0.5,hi=2,lo=0,n={n}", ("10", "20"), n + 1) for n in range(10, 19)]
        + [(f"factor:default,n={n}", ("10", "20"), 2 * (n + 1)) for n in range(8, 13)]
        + [("adversarial", ("2",), 3)]
    )
    round_size = sum(len(thresholds) for _, thresholds, _ in CASES) * len(STATS)
    trace_rounds = 3

    def __init__(self, ec, seed: int, workdir: Path) -> None:
        self.ec = ec
        self.seed = seed
        self.expected = json.loads(EXPECTED_ENUMERATE.read_text())
        self._round_index = -1
        self._round: list[tuple[str, str, str, int]] = []
        self.warmup = {"argv": self._argv(("two_point:p=0.5,hi=2,lo=0,n=10", "20", "max_average"))}

    def _call(self, i: int) -> tuple[str, str, str, int]:
        """Op i: every (spec, threshold, statistic) call once per round,
        in a seeded order."""
        r = i // self.round_size
        if r != self._round_index:
            rng = np.random.default_rng([self.seed, 4, r])
            calls = [(spec, threshold, stat, classes) for spec, thresholds, classes in self.CASES
                     for threshold in thresholds for stat in self.STATS]
            self._round = [calls[j] for j in rng.permutation(len(calls))]
            self._round_index = r
        return self._round[i % self.round_size]

    @staticmethod
    def _argv(call) -> list[str]:
        spec, threshold, stat = call[:3]
        return ["enumerate", "--scenario", spec, "--threshold", threshold, "--stat", stat]

    def op(self, i: int):
        return run_cli(self.ec, self._argv(self._call(i)))

    def key(self, i: int) -> tuple[str, str, str]:
        return self._call(i)[:3]

    def reps(self, i: int) -> int:
        return self._call(i)[3]

    def check(self, i: int, result) -> str | None:
        code, out, err = result
        spec, threshold, stat, _ = self._call(i)
        key = f"{spec} {threshold} {stat}"
        if code != 0:
            return f"enumerate {key}: exit code {code}: {err.strip()}"
        if out != self.expected[key] + "\n":
            return f"enumerate {key}: printed {out.strip()!r}, expected {self.expected[key]!r}"
        return None

    def describe(self, ops: int) -> dict:
        return {"input_size": {"calls_per_round": self.round_size,
                               "scenarios": [spec for spec, _, _ in self.CASES]},
                "properties": {"repeated_input_share": _repeated_share(ops, self.round_size)}}


WORKLOADS = {w.name: w for w in (CombineSmall, CombineLarge, Simulate, Enumerate)}

