"""cyclospec benchmark: one workload per call, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports `src/cyclospec`).  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones, measured with tracing off; with `--trace 1` they are the
per-layer ones, from a traced run of a fixed list of commands.  Every
command's output is checked against oracles.py after the timed loop.
Workloads, metrics and the layer-to-end-to-end map are in README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

WORKLOADS = ("ratio-sweep", "zero-scan", "census", "identities")
SETUP_SAMPLES = 9
# Typical seconds per command of cyclospec 0.1.0 on a 2-vCPU x86-64 VM;
# the traced run executes ceil(seconds / this) commands, a fixed list.
NOMINAL_OP_S = {"ratio-sweep": 0.065, "zero-scan": 0.038, "census": 0.145, "identities": 0.025}
# Checks that need mpmath L-values (tens of ms each) run on every n-th op of
# these workloads; every other part of every output is checked on every op.
DEEP_EVERY = {"ratio-sweep": 4, "zero-scan": 3, "census": 1, "identities": 1}


class BenchError(Exception):
    pass


# One BLAS thread: OpenBLAS would otherwise start a thread per core at import
# and leave it spinning after each LAPACK call, so the `--jobs 2` pool would
# not be the only extra thread and timings would measure the contention.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def child(args, log):
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), *args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log, text=True, timeout=170,
                          env=CHILD_ENV)
    if proc.returncode != 0:
        raise BenchError(f"workload process failed ({proc.returncode}): {' '.join(cmd)}")
    return proc.stdout


def run_loop(name, seed, outdir, log, *extra):
    outdir.mkdir(parents=True)
    result = outdir / "result.json"
    child(["--workload", name, "--seed", str(seed), "--outdir", str(outdir),
           "--result", str(result), *extra], log)
    with open(result) as fh:
        return json.load(fh)


def check_ops(ops, outdir, workload):
    """Check every op's output; return {op index: (argv, reason)} for failures."""
    import oracles
    failures = {}
    tables = {}
    for i, op in enumerate(ops):
        argv = op["argv"]
        path = outdir / f"{i:05d}.out"
        text = path.read_text() if path.exists() else ""
        table_ints = None
        if argv[0] == "characters" and op["status"] == 0:
            tables[argv[2]] = text
        elif argv[:2] == ["sums", "powers"] and workload == "census":
            # the census chain recomputes S(m) from the table the first command emitted
            rows = oracles.csv_rows(tables.get(argv[2], ""))
            index = int(oracles.opt(argv, "--char-index"))
            row = rows[index] if index < len(rows) else None
            table_ints = _table_ints(row, int(argv[2])) if row else None
        try:
            reason = oracles.check(argv, op["status"], text,
                                   deep=i % DEEP_EVERY[workload] == 0, table_ints=table_ints)
        except Exception as exc:  # malformed output is a failed op
            reason = f"unreadable output: {exc!r}"
        if reason is not None:
            failures[i] = (argv, reason)
    return failures


def _table_ints(row, k):
    nums = row["values"].strip('"').replace(";", " ").split()
    return [int(round(float(x))) for x in nums[0::2]][:k]


def setup_samples(log, first):
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        samples.append(json.loads(child(["--import-only"], log))["setup_s"])
    return statistics.median(samples)


def end_to_end(name, seed, seconds, work, log):
    outdir = work / "loop"
    res = run_loop(name, seed, outdir, log, "--seconds", str(seconds), "--keep")
    failures = check_ops(res["ops"], outdir, name)
    setup_s = setup_samples(log, res["setup_s"])
    return len(res["ops"]), failures, e2e_metrics(res["ops"], failures, setup_s, res["peak_rss_mb"],
                                                   calib.scaled_ms(res["ops"], res["cal"]))


def e2e_metrics(ops, failures, setup_s, peak_rss_mb, latency_ms):
    deciles = statistics.quantiles(latency_ms, n=10, method="inclusive")
    return {
        "ops_per_s": (1e3 * len(ops) / sum(latency_ms), "ops/s"),
        "latency_p50_ms": (deciles[4], "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "ok_frac": (1.0 - len(failures) / len(ops), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(name, seed, seconds, work, log):
    n_ops = max(1, math.ceil(seconds / NOMINAL_OP_S[name]))
    fixed = ["--ops", str(n_ops)]
    plain = run_loop(name, seed, work / "plain", log, *fixed)
    traced = run_loop(name, seed, work / "traced", log, *fixed, "--keep",
                      "--trace", str(WORKDIR / f"spans-{name}.csv"))
    ops = traced["ops"]
    failures = check_ops(ops, work / "traced", name)
    for i, (a, b) in enumerate(zip(plain["ops"], ops)):
        if (a["status"], a["sha"]) != (b["status"], b["sha"]):
            failures.setdefault(i, (b["argv"], "output differs between the plain and traced runs"))

    self_s = traced["self_s"]
    calls = traced["calls"]

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.split(".")[0] == layer)

    def n_calls(*names):
        return sum(calls.get(n, 0) for n in names)

    counts = traced["counts"]
    zero_ops = [op for op in ops if op["argv"][:2] == ["l", "zeros"]]
    zeros_found = sum(op["status"] == 0 for op in zero_ops)
    enum_calls = n_calls("characters.enumerate_characters")
    m = {
        "cli.self_s": (layer_self("cli"), "s"),
        "cli.bytes_out": (sum(op["bytes"] for op in ops), "bytes"),
        "cli.calls": (n_calls("cli.run"), "count"),
        "cli.jobs_speedup": (1.0, "ratio"),
        "characters.self_s": (layer_self("characters"), "s"),
        "characters.enumerate.calls": (enum_calls, "count"),
        "characters.enumerate.cold_frac": (
            counts.get("characters.enumerate.cold", 0) / enum_calls if enum_calls else 0.0, "ratio"),
        "characters.values_built": (counts.get("characters.values_built", 0), "count"),
        "special.self_s": (layer_self("special"), "s"),
        "special.hurwitz.calls": (n_calls("special.hurwitz_zeta", "special.hurwitz_zeta_minus_pole",
                                          "special.riemann_zeta"), "count"),
        "special.gamma.calls": (n_calls("special.complex_gamma"), "count"),
        "dirichlet.self_s": (layer_self("dirichlet"), "s"),
        "dirichlet.l.calls": (n_calls("dirichlet.l_function"), "count"),
        "dirichlet.xi.calls": (n_calls("dirichlet.completed_xi"), "count"),
        "dirichlet.xi_per_zero": (
            sum(op["xi_calls"] for op in zero_ops) / zeros_found if zeros_found else 0.0, "evals/zero"),
        "graph.self_s": (layer_self("graph"), "s"),
        "graph.l_n.calls": (n_calls("graph.graph_l_n"), "count"),
        "graph.l_n.terms": (counts.get("graph.l_n.terms", 0), "count"),
        "graph.spectrum.self_s": (self_s.get("graph.cycle_spectrum", 0.0), "s"),
        "graph.spectrum.calls": (n_calls("graph.cycle_spectrum"), "count"),
        "char_sums.self_s": (layer_self("char_sums"), "s"),
        "char_sums.calls": (sum(v for k, v in calls.items() if k.startswith("char_sums.")), "count"),
        "bench.self_s": (layer_self("bench"), "s"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead_frac": (
            sum(calib.scaled_ms(ops, traced["cal"])) / sum(calib.scaled_ms(plain["ops"], plain["cal"]))
            - 1.0, "ratio"),
    }
    if name == "ratio-sweep":
        # the same commands at --jobs 1: what the thread pool buys
        serial = run_loop(name, seed, work / "serial", log, *fixed, "--jobs", "1")
        ratio = [i for i, op in enumerate(ops) if op["argv"][:2] == ["ln", "ratio"]]
        for i in ratio:
            a, b = serial["ops"][i], plain["ops"][i]
            if (a["status"], a["sha"]) != (b["status"], b["sha"]):
                failures.setdefault(i, (b["argv"], "output differs between --jobs 1 and --jobs 2"))
        serial_ms = calib.scaled_ms(serial["ops"], serial["cal"])
        plain_ms = calib.scaled_ms(plain["ops"], plain["cal"])
        m["cli.jobs_speedup"] = (sum(serial_ms[i] for i in ratio) / sum(plain_ms[i] for i in ratio),
                                 "ratio")
    return len(ops), failures, m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cyclospec" / "__init__.py").is_file():
        print(f"perfbench: no cyclospec sources under {SRC}", file=sys.stderr)
        return 2
    work = WORKDIR / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    log_path = work / "stderr.log"
    try:
        with open(log_path, "w") as log:
            measure = per_layer if args.trace else end_to_end
            attempted, failures, metrics = measure(args.workload, args.seed, args.seconds, work, log)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(log_path.read_text()[-4000:], file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for argv, reason in failures.values():
        print(f"FAILED {' '.join(argv)}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
