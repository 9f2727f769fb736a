"""Run two checkouts of evalcomb side by side and compare them.

    python3 bench/compare.py collect BASE_CHECKOUT NEW_CHECKOUT OUT_DIR [--seeds 1-10]
    python3 bench/compare.py spread OUT_DIR
    python3 bench/compare.py diff OUT_DIR

``collect`` runs every workload once per seed in each checkout, untraced,
with ``run_seconds`` from BENCHMARK.json.  The two runs of a seed go
back to back, and which checkout goes first alternates from seed to
seed, so that a pair sees the same state of the machine.  Each
checkout runs its own ``bench/run.py``; the stdout of each run is kept
as ``OUT_DIR/{base,new}/<workload>-seed<seed>.out``.  Both checkouts
may be the same directory, which measures how far the benchmark
disagrees with itself.

``spread`` prints, for each side, workload and end-to-end metric, the
median, the quartiles and their distance as a share of the median,
against the metric's bound.

``diff`` prints, per workload and end-to-end metric, both sides'
medians and quartiles, the share of seed pairs the new side won (ties
count for neither), and the quartiles of the paired gain: new against
base in the same pair, as a share of base, positive when better.  The
verdict against the metric's bound:

* improved: the new side won at least 9 pairs in 10, its median is
  better than the base median by more than the base side's quartile
  distance, and it failed no larger share of its ops than the base side;
* unresolved: otherwise, if either side's quartile distance is wider
  than the bound, unless every new run is better than every base run;
* worse: otherwise, if the new median is worse by more than the bound;
* no worse: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = SPEC["end_to_end"]
SIDES = ("base", "new")


def collect(base: Path, new: Path, out: Path, seeds: list[int]) -> None:
    checkouts = dict(zip(SIDES, (base.resolve(), new.resolve())))
    for side in SIDES:
        (out / side).mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in SPEC["workloads"]):
        for k, seed in enumerate(seeds):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                argv = [sys.executable, "bench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                        "--trace", "0"]
                done = subprocess.run(argv, cwd=checkouts[side], capture_output=True,
                                      text=True, timeout=900)
                (out / side / f"{workload}-seed{seed}.out").write_text(done.stdout)
                last = done.stdout.strip().splitlines()[-1:] or ["<no output>"]
                print(f"{side} {workload} seed {seed}: exit {done.returncode} {last[0][:160]}",
                      file=sys.stderr)


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """Results by workload and seed, read from the detail line and the result line."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.out")):
        lines = path.read_text().strip().splitlines()
        if len(lines) < 2:
            continue
        detail = json.loads(lines[-2])["bench"]
        runs.setdefault(detail["workload"], {})[detail["provenance"]["seed"]] = json.loads(lines[-1])
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _values(runs: dict[int, dict], metric: str, seeds) -> list[float]:
    return [runs[seed]["metrics"][metric]["value"] for seed in seeds]


def _failure_ratio(runs: dict[int, dict]) -> tuple[float, str]:
    failed = sum(r["failed"] for r in runs.values())
    attempted = sum(r["attempted"] for r in runs.values())
    return failed / attempted, f"failure_ratio {failed}/{attempted} = {failed / attempted:.3g}"


def spread(out: Path) -> None:
    for side in SIDES:
        for workload, runs in sorted(load(out / side).items()):
            print(f"{side} {workload}  ({len(runs)} runs, {_failure_ratio(runs)[1]})")
            for m in METRICS:
                q1, median, q3 = _quartiles(_values(runs, m["name"], sorted(runs)))
                share = (q3 - q1) / median
                flag = "ok" if share < m["bound"] / 3 else "WIDE" if share > m["bound"] else "over 1/3 bound"
                print(f"  {m['name']:16s} median {median:12.6g} {m['unit']:5s} "
                      f"q1 {q1:12.6g} q3 {q3:12.6g} spread {share:7.2%} bound {m['bound']:.0%} {flag}")


def verdict(base: list[float], new: list[float], better: str, bound: float,
            more_failures: bool) -> tuple[str, float]:
    """The verdict and the share of pairs won; ``base`` and ``new`` hold
    the two runs of each seed pair, in seed order."""
    sign = 1.0 if better == "higher" else -1.0
    b1, b_med, b3 = _quartiles(base)
    n1, n_med, n3 = _quartiles(new)
    won = sum(sign * (n - b) > 0 for b, n in zip(base, new)) / len(base)
    gain = sign * (n_med - b_med)
    if won >= 0.9 and gain > b3 - b1 and not more_failures:
        return "improved", won
    every_run_better = min(sign * v for v in new) > max(sign * v for v in base)
    if ((b3 - b1) / b_med > bound or (n3 - n1) / n_med > bound) and not every_run_better:
        return "unresolved", won
    if -gain > bound * b_med:
        return "worse", won
    return "no worse", won


def diff(out: Path) -> None:
    base_runs, new_runs = load(out / "base"), load(out / "new")
    for workload in sorted(set(base_runs) & set(new_runs)):
        base, new = base_runs[workload], new_runs[workload]
        seeds = sorted(set(base) & set(new))
        (base_failures, base_text), (new_failures, new_text) = (
            _failure_ratio({s: runs[s] for s in seeds}) for runs in (base, new))
        print(f"{workload}  ({len(seeds)} seed pairs; base {base_text}; new {new_text})")
        for m in METRICS:
            name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
            b, n = _values(base, name, seeds), _values(new, name, seeds)
            gains = [sign * (nv - bv) / bv for bv, nv in zip(b, n)]
            result, won = verdict(b, n, m["better"], m["bound"], new_failures > base_failures)
            (b1, bm, b3), (n1, nm, n3), (g1, gm, g3) = map(_quartiles, (b, n, gains))
            print(f"  {name:16s} base {bm:11.5g} [{b1:.5g}, {b3:.5g}]  new {nm:11.5g} "
                  f"[{n1:.5g}, {n3:.5g}] {m['unit']:5s} won {won:4.0%}  "
                  f"gain {gm:+7.2%} [{g1:+.2%}, {g3:+.2%}]  {result}")


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("base", type=Path)
    c.add_argument("new", type=Path)
    c.add_argument("out", type=Path)
    c.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    for name in ("spread", "diff"):
        sub.add_parser(name).add_argument("out", type=Path)
    args = parser.parse_args()
    if args.command == "collect":
        collect(args.base, args.new, args.out, args.seeds)
    elif args.command == "spread":
        spread(args.out)
    else:
        diff(args.out)


if __name__ == "__main__":
    main()
