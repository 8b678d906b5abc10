"""One benchmark worker: set up, signal ready, run the closed loop, report.

Started by run.py, one worker at a time.  BLAS is pinned to one thread
before numpy loads.  After set-up the worker prints a line "ready" and
the driver stops its set-up clock there.  Each op is bracketed by a run
of the reference kernel (the kernel after one op is the kernel before the
next).  The last stdout line is the JSON record of the run.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from refkernel import RefKernel  # noqa: E402


def _host():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
    }


def _timed_op(workloads, item, tracer):
    """Run one op; returns (output or None, raw ms, error, layer totals)."""
    out, err, layers = None, None, None
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            out = workloads.run_op(item)
        except Exception:  # a failing op is counted, never dropped
            err = traceback.format_exc(limit=3)
        raw_ms = (time.perf_counter() - t0) * 1e3
    finally:
        if tracer is not None:
            layers = tracer.restore()
    return out, raw_ms, err, layers


def _record(workloads, item, out, err, raw_ms, ref_before, ref_after,
            traced, layers):
    if err is None:
        try:
            problems, digits, fates = workloads.check(item, out)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
            digits, fates = 0.0, {}
    else:
        problems, digits, fates = [err], 0.0, {}
    rec = {"item": item.index, "seed": list(item.seed),
           "kind": item.kind.label, "basis": item.kind.basis,
           "raw_ms": raw_ms, "ref_before_ms": ref_before,
           "ref_after_ms": ref_after, "ok": not problems,
           "digits": digits, "traced": traced, "fates": fates}
    if problems:
        rec["problems"] = problems
    if layers is not None:
        rec["layers"] = {k: [c, incl * 1e3, self_ * 1e3]
                         for k, (c, incl, self_) in layers.items()}
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--src", required=True)
    args = ap.parse_args(argv)

    import workloads
    lib = Path(workloads.rl.__file__).resolve()
    if Path(args.src).resolve() not in lib.parents:
        raise SystemExit(f"resultant_lab imported from {lib}, "
                         f"not from {args.src}")
    # The kernel runs between the steps of set-up, so that run.py can
    # correct set-up time by the host speed during set-up.
    ref = RefKernel()
    refs = [ref.time_ms()]
    items = workloads.corpus(args.workload, args.seed)
    refs.append(ref.time_ms())
    for item in workloads.warmup_items(args.workload):
        workloads.run_op(item)      # warm up every op kind once
        refs.append(ref.time_ms())
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()            # warm the wrapper path as well
        workloads.run_op(items[0])
        tracer.restore()
    print("ready", flush=True)

    result = {"host": _host(), "setup_ref_ms": statistics.fmean(refs)}
    if args.setup_only:
        print(json.dumps(result), flush=True)
        return

    ops = []
    ref_before = ref.time_ms()
    t_end = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < t_end:
        item = items[i % len(items)]
        # Traced runs time every item twice, untraced and traced, in
        # alternating order, so trace overhead is measured on equal inputs.
        if args.trace:
            modes = (False, True) if i % 2 == 0 else (True, False)
        else:
            modes = (False,)
        for traced in modes:
            out, raw_ms, err, layers = _timed_op(
                workloads, item, tracer if traced else None)
            ref_after = ref.time_ms()
            ops.append(_record(workloads, item, out, err, raw_ms,
                               ref_before, ref_after, traced, layers))
            ref_before = ref_after
        i += 1
    result["ops"] = ops
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
