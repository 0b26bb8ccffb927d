"""Benchmark launcher: runs one workload in this single-threaded process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload transform --seed 1 --seconds 30 --trace 0

Each operation calls tropwfst.cli.main(argv) in-process on files that
gen.py wrote from the seed. Every operation of a workload has the same
shape; the seeded list of inputs is cycled in the same order in whole
rounds until the run length has passed and at least MIN_OPS operations
are done. The outputs of every input are then checked by checks.py,
outside the timed region and after peak memory is read. The last line
of stdout is one JSON object: correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1).
"""

import os

# Before numpy is first imported: the load is one process with one thread.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402  (imports numpy, before any set-up is timed)
import gen  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_OPS = 100        # so that op_p90_ms has ten samples beyond it
DEADLINE_FACTOR = 4  # stop short of MIN_OPS after this many run lengths
SETUPS = 5           # setup_s is the median of this many set-ups
WARMUP_OPS = 2       # uncounted operations at the end of each set-up
DECODE_THETA = "8"
SMALL_THETA = "12"


def commands(workload, item, out):
    """The CLI calls that make up one operation on one input."""
    fst = item["fst"]
    if workload == "transform":
        return [["push", fst, f"{out}/push.fst"],
                ["rmepsilon", fst, f"{out}/rmeps.fst", "--trim"]]
    decode = ["decode", fst, "--obs", item["obs"], "--seq", item["seq"]]
    if workload == "decode":
        return [decode,
                decode + ["--theta", DECODE_THETA, "--metrics", f"{out}/trace.csv"]]
    return [["validate", fst], ["info", fst],
            ["push", fst, f"{out}/push.fst"],
            ["rmepsilon", fst, f"{out}/rmeps.fst", "--trim"],
            decode + ["--theta", SMALL_THETA, "--metrics", f"{out}/trace.csv"]]


def import_program():
    """Import tropwfst afresh from this checkout's src directory."""
    for name in [m for m in sys.modules if m.split(".")[0] == "tropwfst"]:
        del sys.modules[name]
    cli = importlib.import_module("tropwfst.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported tropwfst from {cli.__file__}, not {SRC}")
    return cli


def run_op(cli, argvs):
    """Run one operation; return each call's stdout, or None if one failed."""
    outs = []
    buf = io.StringIO()
    for argv in argvs:
        buf.seek(0)
        buf.truncate()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception as exc:  # a crash counts as a failed operation
            print(f"error: {' '.join(argv)}: {exc!r}", file=sys.stderr)
            return None
        if rc != 0:
            print(f"error: {' '.join(argv)} exited {rc}", file=sys.stderr)
            return None
        outs.append(buf.getvalue())
    return outs


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def check_item(workload, item, out, outs):
    """Check the last outputs of one input; return (problems, search_error)."""
    fst = read(item["fst"])
    if workload == "transform":
        return (checks.check_push(fst, read(f"{out}/push.fst"))
                + checks.check_rmepsilon_trim(fst, read(f"{out}/rmeps.fst"))), False
    m = checks.parse_machine(fst)
    obs = checks.parse_observations(read(item["obs"]))
    seq = read(item["seq"]).split()
    exact = checks.reference_viterbi(m, obs, seq)
    trace = read(f"{out}/trace.csv")
    try:
        pruned = checks.parse_decode(outs[-1])[0]
    except (KeyError, ValueError):
        pruned = exact  # unreadable; check_decode reports it
    search_error = pruned > exact and not checks.close(pruned, exact)
    if workload == "decode":
        problems = (checks.check_decode(m, obs, seq, outs[0], exact)
                    + checks.check_decode(m, obs, seq, outs[1], exact, trace))
        return problems, search_error
    return (checks.check_validate(outs[0]) + checks.check_info(fst, outs[1])
            + checks.check_push(fst, read(f"{out}/push.fst"))
            + checks.check_rmepsilon_trim(fst, read(f"{out}/rmeps.fst"))
            + checks.check_decode(m, obs, seq, outs[4], exact, trace)), search_error


def setup(workload, seed, work):
    """Import, input generation and warm-up; returns (cli, plan, seconds)."""
    t0 = time.perf_counter()
    cli = import_program()
    items = gen.generate(workload, seed, str(work / "in"))
    plan = []
    for k, item in enumerate(items):
        out = work / "out" / str(k)
        out.mkdir(parents=True, exist_ok=True)
        plan.append((item, str(out), commands(workload, item, str(out))))
    for k in range(WARMUP_OPS):
        run_op(cli, plan[k % len(plan)][2])
    return cli, plan, time.perf_counter() - t0


def main(argv=None):
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True,
                   choices=["transform", "decode", "many-small"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "tropwfst").is_dir():
        sys.exit(f"error: no tropwfst sources under {SRC}")
    sys.path.insert(0, str(SRC))

    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = [setup(args.workload, args.seed, work) for _ in range(SETUPS)]
        cli, plan, _ = setups[-1]
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        gc.collect()
        gc.freeze()

        times, failed, last = [], 0, [None] * len(plan)
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds and len(times) >= MIN_OPS:
                break
            if elapsed >= DEADLINE_FACTOR * args.seconds:
                print(f"warning: only {len(times)} operations", file=sys.stderr)
                break
            for k, (_item, _out, argvs) in enumerate(plan):
                t0 = time.perf_counter()
                outs = run_op(cli, argvs)
                times.append(time.perf_counter() - t0)
                if outs is None:
                    failed += 1
                else:
                    last[k] = outs
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gc.unfreeze()

        problems, search_errors = [], 0
        for k, (item, out, _argvs) in enumerate(plan):
            if last[k] is None:
                continue
            found, search_error = check_item(args.workload, item, out, last[k])
            problems += [f"input {k}: {msg}" for msg in found]
            search_errors += search_error
        for msg in problems:
            print(f"check failed: {msg}", file=sys.stderr)

        p50 = statistics.median(times) * 1000
        if tracer is not None:
            metrics, absent = tracer.metrics(len(times), search_errors, p50)
            if absent:
                print(f"absent (function not found): {', '.join(absent)}",
                      file=sys.stderr)
        else:
            metrics = {
                "setup_s": {"value": statistics.median(s[2] for s in setups),
                            "unit": "s"},
                "ops_per_s": {"value": (len(times) - failed) / sum(times),
                              "unit": "1/s"},
                "op_p50_ms": {"value": p50, "unit": "ms"},
                "op_p90_ms": {"value": statistics.quantiles(times, n=10)[-1] * 1000,
                              "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": len(times),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
