"""Run-to-run spread of the end-to-end metrics, raw and corrected.

    python3 perfbench/spread.py --workload small-solve --runs 10 \
        --first-seed 1 --seconds 30

Runs run.py once per seed (seeds first-seed, first-seed + 1, ...), one
run at a time, and prints per metric the median over runs and the spread
(inter-quartile distance over the median), for the drift-corrected value
next to the raw one.  The last line is the whole table as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from summary import spread

HERE = Path(__file__).resolve().parent


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True, timeout=180,
        cwd=HERE.parent).stdout.splitlines()
    detail = json.loads(next(ln for ln in out if ln.startswith("detail "))
                        .split(" ", 1)[1])
    return json.loads(out[-1]), detail


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    if args.runs < 4:
        ap.error("quartiles need at least 4 runs")

    corr, raw = {}, {}
    for k in range(args.runs):
        res, detail = one_run(args.workload, args.first_seed + k,
                              args.seconds)
        if not res["correct"]:
            print(f"seed {args.first_seed + k}: {res['failed']} failed ops")
        for name, m in res["metrics"].items():
            corr.setdefault(name, []).append(m["value"])
        for name, v in detail["raw"].items():
            raw.setdefault(name, []).append(v)
        print(f"seed {args.first_seed + k}: " + "  ".join(
            f"{n}={m['value']:.5g}" for n, m in res["metrics"].items()),
            flush=True)
    table = {}
    for name, vals in corr.items():
        row = {"median": statistics.median(vals), "spread": spread(vals)}
        if name in raw:
            row["raw_median"] = statistics.median(raw[name])
            row["raw_spread"] = spread(raw[name])
        table[name] = row
        raw_txt = (f"   raw median {row['raw_median']:10.5g} spread "
                   f"{100 * row['raw_spread']:5.2f}%" if name in raw else "")
        print(f"{name:14s} median {row['median']:10.5g} spread "
              f"{100 * row['spread']:5.2f}%{raw_txt}")
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "first_seed": args.first_seed,
                      "seconds": args.seconds, "values": corr,
                      "table": table}))


if __name__ == "__main__":
    main()
