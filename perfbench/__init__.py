"""Benchmark harness for the ``monomials`` library.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a source checkout and prints its metrics;
see ``perfbench/README.md``.  The library is imported from the checkout's
``src`` directory, never from an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def have_source():
    """True when the checkout holds the library sources the benchmark runs."""
    return (SRC / "monomials" / "__init__.py").is_file() and (
        SRC / "monomials" / "cli.py"
    ).is_file()


def child_env():
    """Environment for every process the benchmark starts.

    The library and the harness come from the checkout only.  Byte code is
    cached under ``perfbench/out/pycache`` whatever the caller's environment
    says, so interpreter start-up costs the same in every run, as it does
    for an installed package, and nothing is written outside the checkout.
    The hash seed is fixed so that runs of one seed repeat exactly.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def use_checkout_source():
    """Import ``monomials`` from this checkout's ``src``; refuse anything else."""
    if not have_source():
        raise SystemExit(f"perfbench: no library sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import monomials

    origin = Path(monomials.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"perfbench: monomials was imported from {origin}")
    return monomials
