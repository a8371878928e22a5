"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks that a seed fixes the argv
lists byte for byte, that a corrupted output row is counted as a failed op
in `ok_frac`, that the tracer wraps every alias of a layer function and puts
it back, and that the metric names and units printed by both modes are the
ones BENCHMARK.json declares and match [A-Za-z0-9_.-]+.
"""

from __future__ import annotations

import itertools
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def argv_lists(workload, seed, n=300):
    return json.dumps(list(itertools.islice(workloads.stream(workload, seed), n))).encode()


def test_seed_fixes_argv():
    for w in run.WORKLOADS:
        assert argv_lists(w, 7) == argv_lists(w, 7), w
        assert argv_lists(w, 7) != argv_lists(w, 8), w


def test_corrupted_row_is_counted():
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp, open(Path(tmp) / "log", "w") as log:
        outdir = Path(tmp) / "loop"
        res = run.run_loop("identities", 3, outdir, log, "--ops", "10", "--keep")
        ops = res["ops"]
        assert not run.check_ops(ops, outdir, "identities")
        # add one to the exact S(m) in the first row of a `sums powers` output
        i = next(i for i, op in enumerate(ops) if op["argv"][:2] == ["sums", "powers"])
        victim = outdir / f"{i:05d}.out"
        lines = victim.read_text().splitlines()
        m, n, value, sign = lines[1].split(",")
        lines[1] = ",".join((m, n, str(int(value) + 1), sign))
        victim.write_text("\n".join(lines) + "\n")
        failures = run.check_ops(ops, outdir, "identities")
        assert list(failures) == [i], failures
        ok_frac = run.e2e_metrics(ops, failures, 0.1, 1.0,
                                  [op["latency_s"] * 1e3 for op in ops])["ok_frac"][0]
        assert ok_frac == 1 - 1 / len(ops), ok_frac


def test_tracer_wraps_aliases():
    sys.path.insert(0, str(run.SRC))
    import cyclospec.cli as cli
    from cyclospec import characters, dirichlet, graph, special
    from spans import Tracer

    assert (cli.ch, cli.dl, cli.gr) == (characters, dirichlet, graph)
    originals = (dirichlet.hurwitz_zeta_minus_pole, graph.l_function, cli.run)
    tracer = Tracer()
    tracer.install()
    try:
        assert dirichlet.hurwitz_zeta_minus_pole is not special.hurwitz_zeta_minus_pole.__wrapped__
        assert dirichlet.hurwitz_zeta_minus_pole.__wrapped__ is originals[0]
        assert graph.l_function.__wrapped__ is originals[1]
        cli.run(["l", "eval", "--modulus", "5", "--char-index", "2", "--s", "0.5,14",
                 "--output", "/dev/null"])
        names = {s[1] for s in tracer.spans}
        assert {"cli.run", "dirichlet.l_function", "special.hurwitz_zeta_minus_pole",
                "special.complex_gamma", "characters.enumerate_characters"} <= names, names
    finally:
        tracer.uninstall()
    assert (dirichlet.hurwitz_zeta_minus_pole, graph.l_function, cli.run) == originals


def test_metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for mode, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "identities",
                              "--seed", "1", "--seconds", "0.5", "--trace", str(mode)],
                             capture_output=True, text=True, check=True, cwd=run.ROOT)
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert got == want, (mode, set(got) ^ set(want))
        assert all(NAME.fullmatch(k) for k in got)


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
