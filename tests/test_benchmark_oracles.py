"""The benchmark's oracles as a tier-1 gate.

One round of the ratio-sweep, zero-scan and identities generators at a
fixed seed, plus the first three census commands, is run through `cli.run`,
and every output is checked by `perfbench/oracles.py` with its deep
(mpmath) checks.  Those oracles use nothing from the library: their own
character tables, mpmath, numpy sums and exact integers.  Nothing under
`perfbench/` is changed; it is only put on `sys.path`.
"""

import contextlib
import io
import sys
from pathlib import Path

import mpmath
import pytest

from cyclospec.cli import run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
_dps = mpmath.mp.dps
import oracles  # noqa: E402  (sets mpmath.mp.dps for its checks)
import workloads  # noqa: E402

ORACLE_DPS, mpmath.mp.dps = mpmath.mp.dps, _dps

SEED = 7


def _argv():
    for name in ("ratio-sweep", "zero-scan", "identities"):
        yield from next(workloads.rounds(name, SEED))
    yield from next(workloads.rounds("census", SEED))[:3]


@pytest.mark.parametrize("argv", list(_argv()), ids=" ".join)
def test_benchmark_oracle_passes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    with mpmath.workdps(ORACLE_DPS):
        reason = oracles.check(argv, status, out.getvalue(), deep=True)
    assert reason is None, (reason, err.getvalue())
