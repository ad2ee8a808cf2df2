"""Benchmark of the adacof command line, one workload per process.

    python3 perfbench/run.py --workload train-acc --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout and every operation goes through ``adacof.cli.main``. Set-up
(imports, seeded inputs, one untimed warm-up operation) is timed from the
process's start. The timed section runs whole rounds of the workload's
operations until ``--seconds`` have passed; the checks then run untimed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps
the program's functions (see tracer.py) and reports the per-layer metrics
instead, and also writes every span to ``perfbench_out/``.
"""

import os

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

_STARTED = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "BENCHMARK.json")
KNOWN_FAULT = "not divisible by 2^depth"


def process_age():
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _STARTED


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """adacof.cli from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import adacof.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"adacof was imported from {cli.__file__}, not from {src}")
    return cli


def make_run_op(cli):
    def run_op(argv):
        """One CLI call: (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)  # looked up per call, so tracing sees it
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an uncaught error is a failed operation
                code = f"{type(exc).__name__}: {exc}"
        return code, out.getvalue(), err.getvalue()
    return run_op


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv):
    args = parse_args(argv)
    with open(BENCH) as f:
        spec = json.load(f)
    try:
        cli = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import tracer
    import workloads
    from checks import CheckFailed

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run_op = make_run_op(cli)
    try:
        wl = workloads.WORKLOADS[args.workload](run_op, workdir, args.seed)
        wl.prepare()
        wl.warmup()
        setup_s = process_age()

        tr = tracer.Tracer() if args.trace else None
        if tr:
            tr.install()
        attempted = failed = items = 0
        latencies = []
        faults = []
        start = time.perf_counter()
        while True:
            for op in wl.round():
                t0 = time.perf_counter()
                code, out, err = run_op(op.argv)
                latency = time.perf_counter() - t0
                attempted += 1
                if code == 0:
                    items += op.items
                    latencies.append(latency)
                    wl.record(out)
                    continue
                failed += 1
                if not (op.known_fault and code == 1 and KNOWN_FAULT in err):
                    faults.append(f"adacof {' '.join(op.argv)} exited {code}: {err.strip()}")
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds:
                break
        if tr:
            tr.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        correct = not faults and bool(latencies)
        for fault in faults:
            print(f"perfbench: unexpected failure: {fault}", file=sys.stderr)
        psnr_db = None
        try:
            psnr_db = wl.check()
        except (CheckFailed, OSError, ValueError) as exc:  # unreadable outputs fail too
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tr:
        times = tr.self_times()
        metrics = {m["name"]: metric(tr.metric(m["name"], times), m["unit"])
                   for m in spec["per_layer"]}
        os.makedirs(os.path.join(ROOT, "perfbench_out"), exist_ok=True)
        spans = os.path.join(ROOT, "perfbench_out",
                             f"spans-{args.workload}-seed{args.seed}.csv")
        tr.write_spans(spans)
        print(f"perfbench: traced run: {items / elapsed:.4f} items/s, "
              f"{len(tr.spans)} spans written to {spans}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "items_per_s": metric(items / elapsed, "1/s"),
            "latency_p50_s": metric(statistics.median(latencies) if latencies else None, "s"),
            "psnr_db": metric(psnr_db, "dB"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
