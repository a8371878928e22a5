"""One workload in a fresh process: a closed loop with one client.

The client calls `cyclospec.cli.run(argv)` in-process, back to back, each
call writing to its own `--output` file.  Only the calls are timed; the
bookkeeping between them (file sizes, hashes, reading census tables for the
chained commands) is not.  Results go to a JSON file for run.py.

    python3 perfbench/child.py --src SRC --workload NAME --seed N --outdir DIR
        --result FILE (--seconds S | --ops N) [--trace FILE] [--jobs J] [--keep]
    python3 perfbench/child.py --src SRC --import-only
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

# Peak RSS is read after this many commands, a fixed amount of work, so a
# faster program is not charged for caching more commands in the same time.
RSS_OPS = 80
# Calibration samples (calib.py) taken before and again after the imports.
IMPORT_CAL_SAMPLES = 4


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--outdir")
    ap.add_argument("--result")
    ap.add_argument("--trace", default=None, help="write spans here and trace the loop")
    ap.add_argument("--jobs", default=None, help="replace the --jobs value of every op")
    ap.add_argument("--keep", action="store_true", help="keep output files for checking")
    args = ap.parse_args()

    import calib
    cal_ms = [calib.sample_ms() for _ in range(IMPORT_CAL_SAMPLES)]
    sys.path.insert(0, args.src)
    t0 = time.perf_counter()
    import cyclospec  # noqa: F401
    import cyclospec.cli
    setup_s = time.perf_counter() - t0
    # the import time at reference speed, by calibration samples either side
    cal_ms += [calib.sample_ms() for _ in range(IMPORT_CAL_SAMPLES)]
    setup_s *= calib.factor(statistics.median(cal_ms))
    if args.import_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads

    cli = cyclospec.cli
    for k in workloads.WARM_MODULI[args.workload]:
        cli.run(["characters", "--modulus", str(k), "--output", os.devnull])

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    pending = []  # census follow-ups, run right after the command they follow
    queue = []  # the rest of the current round
    ops = []
    rounds = workloads.rounds(args.workload, args.seed)
    busy = 0.0
    cal = []
    loop_start = last_cal = time.perf_counter()
    # a timed run ends with a whole round, so every run has the same mix of work
    while ((busy < args.seconds or queue or pending) if args.ops is None
           else len(ops) < args.ops):
        if not (queue or pending):
            queue = list(next(rounds))
        argv = pending.pop(0) if pending else queue.pop(0)
        if args.jobs is not None and "--jobs" in argv:
            argv = list(argv)
            argv[argv.index("--jobs") + 1] = args.jobs
        path = os.path.join(args.outdir, f"{len(ops):05d}.out")
        call = tracer.op(" ".join(argv[:2])) if tracer else (lambda fn, *a: fn(*a))
        first_span = len(tracer.spans) if tracer else 0
        t = time.perf_counter()
        try:
            status = call(cli.run, argv + ["--output", path])
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            print(f"{argv}: {exc!r}", file=sys.stderr)
            status = -1
        dt = time.perf_counter() - t
        busy += dt
        rec = {"argv": argv, "status": status, "latency_s": dt, "t": t - loop_start,
               "bytes": 0, "sha": None}
        if tracer:
            rec["xi_calls"] = sum(1 for s in tracer.spans[first_span:]
                                  if s[1] == "dirichlet.completed_xi")
        if os.path.exists(path):
            rec["bytes"] = os.path.getsize(path)
            with open(path, "rb") as fh:
                data = fh.read()
            rec["sha"] = hashlib.sha256(data).hexdigest()
            if argv[0] == "characters" and status == 0:
                pending += workloads.census_followups(int(argv[2]), workloads.csv_rows(data.decode()))
            if not args.keep:
                os.remove(path)
        ops.append(rec)
        if time.perf_counter() - last_cal >= calib.CAL_EVERY_S:
            last_cal = time.perf_counter()
            cal.append((last_cal - loop_start, calib.sample_ms()))
        if len(ops) == RSS_OPS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop_end = time.perf_counter()
    cal.append((loop_end - loop_start, calib.sample_ms()))
    if len(ops) < RSS_OPS:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "ops": ops, "cal": cal,
              "wall_s": loop_end - loop_start}
    if tracer:
        tracer.uninstall()
        tracer.write(args.trace)
        result["self_s"] = tracer.self_times(loop_start, loop_end)
        result["calls"] = {}
        for sid, name, *_ in tracer.spans:
            result["calls"][name] = result["calls"].get(name, 0) + 1
        result["counts"] = dict(tracer.counts)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
