"""How the benchmark drives evalcomb: only through its public entry points.

Everything that calls into the program goes through this module, so the
three workload shapes (a library batch, a CLI command, a set-up probe)
make the same calls.  This module imports nothing heavy, because run as
a script it is the set-up probe:

    python3 bench/entry.py '<warm-up spec as JSON>'

starts a timer, imports ``evalcomb`` and ``evalcomb.cli`` from the
checkout's ``src`` directory, makes the workload's warm-up call and
prints the seconds that took.  ``run.py`` starts it several times, one
after another, and reports the median as ``setup_s``; a fresh
interpreter is the only place an import can be timed more than once.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
VILLE_LAMBDA = 0.5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_program():
    """Import evalcomb from this checkout's sources, never from elsewhere."""
    package_dir = SRC / "evalcomb"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"bench: no evalcomb sources at {package_dir}")
    sys.path.insert(0, str(SRC))
    import evalcomb
    import evalcomb.cli  # noqa: F401  (binds evalcomb.cli)

    if Path(evalcomb.__file__).resolve().parent != package_dir:
        raise SystemExit(f"bench: imported evalcomb from {evalcomb.__file__}")
    return evalcomb


def combine_batch(ec, values, alpha: float):
    """The library path: validate one batch, then run all three tests."""
    ev = ec.validate_evalues(values, ec.Regime.INDEPENDENT)
    return (
        ec.test_max_average(ev, alpha),
        ec.test_optimized_betting(ev, alpha),
        ec.test_ville(ev, VILLE_LAMBDA, alpha),
    )


def run_cli(ec, argv: list[str]) -> tuple[int, str, str]:
    """The command-line path, in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ec.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def warm_up(ec, spec: dict):
    """One call shaped like the workload's ops: ``{"argv": [...]}`` for
    the CLI, ``{"values": [...], "alpha": a}`` for the library."""
    if "argv" in spec:
        code, _, err = run_cli(ec, spec["argv"])
        if code != 0:
            raise SystemExit(f"bench: warm-up call exited {code}: {err.strip()}")
        return None
    return combine_batch(ec, spec["values"], spec["alpha"])


if __name__ == "__main__":
    warm_up_spec = json.loads(sys.argv[1])
    started = time.perf_counter()
    warm_up(load_program(), warm_up_spec)
    print(repr(time.perf_counter() - started))
