"""Benchmark of the resultant-lab solver: one workload per invocation.

    python3 perfbench/run.py --workload eig-bound --seed 1 --seconds 30 \
        --trace 0

Run from a checkout of the repository: the library is imported from its
src/ directory, nothing is installed or built.  Workers run one after
another, never concurrently, each a fresh interpreter with BLAS pinned to
one thread.  With --trace 0 the end-to-end metrics are reported, with
--trace 1 the per-layer ones.  Every line but the last is for people;
the last line is one JSON object with the keys correct, attempted, failed
and metrics.  Workloads, metrics and the drift correction are described
in README.md next to this file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from summary import corrected, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The names of workloads.WORKLOADS, repeated here so that this process
# never imports numpy or the library.
WORKLOADS = ("eig-bound", "small-solve", "cond-probe")
DEFAULT_SEED = 1
SETUP_RUNS = 7        # workers whose set-up is timed; the last runs the ops
SETUP_TIMEOUT_S = 60
RUN_GRACE_S = 60      # time allowed past --seconds for set-up and last op

# Per-layer metrics.  Times are per-op medians over the ops that call the
# function (corrected ms, plus the share of the op's time); counts are
# per-op means over all traced ops.
LAYER_TIMES = (
    ("matpoly.polyeig", "ms"),
    ("matpoly.polyeig", "self_ms"),
    ("matpoly.linearize", "ms"),
    ("matpoly.eig_condition", "ms"),
    ("cayley.cayley_resultant", "ms"),
    ("cayley.cayley_root_eigvectors", "ms"),
    ("sylvester.sylvester_resultant", "ms"),
    ("rootfinder.solve_system", "self_ms"),
    ("rootfinder.recover_components", "ms"),
    ("rootfinder.newton_polish", "ms"),
    ("multipoly.root_condition", "ms"),
)
LAYER_CALLS = ("matpoly.matpoly_eval", "basis.basis_eval_all",
               "multipoly.mp_eval", "rootfinder.newton_polish",
               "multipoly.jacobian")
FATES = (("matpoly.pencil_dim", "pencil_dim", "count"),
         ("rootfinder.newton_iters", "newton_iters", "count"),
         ("rootfinder.n_infinite", "n_infinite", "count"),
         ("rootfinder.n_outside_domain", "n_outside_domain", "count"),
         ("rootfinder.n_recovery_failed", "n_recovery_failed", "count"),
         ("rootfinder.grid_fallbacks", "grid_fallbacks", "count"),
         ("rootfinder.accept_ratio", "accept_ratio", "ratio"))


class WorkerError(RuntimeError):
    pass


def _worker(args, setup_only):
    """Start one worker; return (set-up seconds, its JSON record)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", str(SRC)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    timeout = SETUP_TIMEOUT_S if setup_only else args.seconds + RUN_GRACE_S
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def _ref_local(op):
    """Mean of the kernel runs just before and just after the op."""
    return 0.5 * (op["ref_before_ms"] + op["ref_after_ms"])


def _op_ms(op):
    """Drift-corrected op time."""
    return corrected(op["raw_ms"], _ref_local(op))


def _raw_refs(ops):
    return [ops[0]["ref_before_ms"]] + [op["ref_after_ms"] for op in ops]


def end_to_end(setups, record):
    ops = record["ops"]
    passed = sum(o["ok"] for o in ops)
    ref_ms = statistics.median(_raw_refs(ops))
    setup_raw = statistics.median(s for s, _ in setups)
    setup_corr = statistics.median(corrected(s, rec["setup_ref_ms"])
                                   for s, rec in setups)
    both = {}
    for label, times in (("corrected", [_op_ms(o) for o in ops]),
                         ("raw", [o["raw_ms"] for o in ops])):
        tail_ms, tail_pct, n = tail(times)
        both[label] = {
            "ops_per_s": passed / (sum(times) / 1e3),
            "op_ms_p50": statistics.median(times),
            "op_ms_tail": tail_ms,
        }
    corr, raw = both["corrected"], both["raw"]
    raw["setup_s"] = setup_raw
    metrics = {
        "ops_per_s": (corr["ops_per_s"], "1/s"),
        "op_ms_p50": (corr["op_ms_p50"], "ms"),
        "op_ms_tail": (corr["op_ms_tail"], "ms"),
        "setup_s": (setup_corr, "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "digits_p50": (statistics.median(o["digits"] for o in ops),
                       "digits"),
    }
    detail = {"tail_pct": tail_pct, "n_ops": n,
              "fail_frac": (len(ops) - passed) / len(ops), "raw": raw,
              "host.ref_ms": ref_ms,
              "setup_s_raw_each": [s for s, _ in setups]}
    return metrics, detail


def per_layer(record):
    ops = record["ops"]
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    metrics = {}
    for key, field in LAYER_TIMES:
        col = 2 if field == "self_ms" else 1
        ms, share = [], []
        for o in traced:
            rec = o["layers"].get(key)
            if rec and rec[0]:
                ms.append(corrected(rec[col], _ref_local(o)))
                share.append(100.0 * rec[col] / o["raw_ms"])
        share_name = "self_share" if field == "self_ms" else "share"
        metrics[f"{key}.{field}"] = (
            statistics.median(ms) if ms else 0.0, "ms")
        metrics[f"{key}.{share_name}"] = (
            statistics.median(share) if share else 0.0, "%")
    for key in LAYER_CALLS:
        metrics[f"{key}.calls"] = (
            statistics.fmean(o["layers"].get(key, (0,))[0] for o in traced),
            "count")
    with_fates = [o for o in traced if o["fates"]]
    for name, fate, unit in FATES:
        metrics[name] = (statistics.fmean(o["fates"][fate]
                                          for o in with_fates)
                         if with_fates else 0.0, unit)
    metrics["host.ref_ms"] = (statistics.median(_raw_refs(ops)), "ms")
    p_traced = statistics.median(_op_ms(o) for o in traced)
    p_plain = statistics.median(_op_ms(o) for o in plain)
    metrics["trace.overhead_frac"] = (p_traced / p_plain - 1.0, "ratio")
    detail = {"n_traced": len(traced), "n_untraced": len(plain),
              "op_ms_p50_traced": p_traced, "op_ms_p50_untraced": p_plain}
    return metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 100:
        ap.error("need --seed >= 0 and 0 < --seconds <= 100")
    if not (SRC / "resultant_lab" / "__init__.py").is_file():
        print(f"run.py: no library sources at {SRC}", file=sys.stderr)
        return 2

    try:
        setups = []
        n_setup = 1 if args.trace else SETUP_RUNS
        for k in range(n_setup):
            setups.append(_worker(args, setup_only=k < n_setup - 1))
    except (WorkerError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    record = setups[-1][1]
    ops = record["ops"]
    try:
        if args.trace:
            metrics, detail = per_layer(record)
        else:
            metrics, detail = end_to_end(setups, record)
    except (ValueError, statistics.StatisticsError) as exc:
        print(f"run.py: {len(ops)} ops are too few: {exc}", file=sys.stderr)
        return 1
    failed = [o for o in ops if not o["ok"]]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        raw = detail.get("raw", {}).get(name)
        extra = f"   (raw {raw:.6g})" if raw is not None else ""
        if name == "op_ms_tail":
            extra += f"  p{detail['tail_pct']:.1f} of {detail['n_ops']} ops"
        print(f"  {name:40s} {value:14.6g} {unit}{extra}")
    if "fail_frac" in detail:
        print(f"  {'fail_frac':40s} {detail['fail_frac']:14.6g} ratio"
              f"   ({len(failed)} of {len(ops)} ops)")
    for o in failed:
        print(f"  FAILED item {o['item']} seed {o['seed']} basis "
              f"{o['basis']} {o['kind']}: {o['problems'][0].strip()}")
    print("detail " + json.dumps(dict(detail, host=record["host"],
                                      n_failed=len(failed))))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
