#!/usr/bin/env python3
"""Run the benchmark several times and report each metric's spread.

    python3 perfbench/spread.py --workload eval_zipf --runs 10 [--first-seed 1] [--seconds 20]

Each run uses its own seed (first-seed, first-seed+1, ...). For every
end-to-end metric the script prints the median and the spread, the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), for the host-normalized value and
for the raw value from the detail line. Run it from the checkout root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()

    norm, raw, speed = {}, {}, []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.exit(f"run with seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
        detail = json.loads(lines[-2])["detail"]
        res = json.loads(lines[-1])
        if not res["correct"]:
            sys.exit(f"run with seed {seed} reported incorrect output")
        speed.append(detail["host_speed_factor"])
        for k, m in res["metrics"].items():
            norm.setdefault(k, []).append(m["value"])
        for k, v in (detail.get("raw") or {}).items():
            raw.setdefault(k, []).append(v)
        print(f"seed {seed}: speed {detail['host_speed_factor']:.3f} " +
              " ".join(f"{k}={m['value']:.6g}" for k, m in sorted(res["metrics"].items())), flush=True)

    print(f"\n{args.workload}: {args.runs} runs, host speed factor {min(speed):.3f}..{max(speed):.3f}")
    print(f"{'metric':<34} {'median':>14} {'spread':>8} {'raw median':>14} {'raw spread':>10}")
    for k in sorted(norm):
        med, sp = spread(norm[k])
        line = f"{k:<34} {med:>14.6g} {sp:>8.4f}"
        if k in raw:
            rmed, rsp = spread(raw[k])
            line += f" {rmed:>14.6g} {rsp:>10.4f}"
        print(line)


if __name__ == "__main__":
    main()
