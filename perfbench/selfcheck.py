#!/usr/bin/env python3
"""Sensitivity self-check: show the benchmark can see a change, and that the
bypass workload does not.

    python3 perfbench/selfcheck.py [--pairs N] [--seconds S]

Runs the default server and a server with one existing flag changed,
interleaved (default first on even pairs, flagged first on odd ones), and
checks three predictions with the bounds in BENCHMARK.json. Pairs in which
a run was disturbed by other tenants throughout are skipped.

  1. --no-plan-cache moves serve-point latency_p50_ms up: worse in every
     pair, by more than the default runs' own spread (max - min). Whether
     it also moves beyond the metric's bound is printed too;
  2. --no-plan-cache leaves every scan-packed metric within its bound;
  3. --degrade-above 0 takes overload-window exact_share to 1.0.

Exits 0 when all three hold. Run from the root of a checkout.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


QUIET = re.compile(r"seconds: ([0-9.]+)% of the machine's CPU time")
# A run whose quiet seconds still lost this share of the machine's CPU
# time to other tenants was disturbed throughout (see README.md,
# "Seconds, deciles and quiet seconds").
DISTURBED_PCT = 10


def bench(workload, seed, seconds, server_opts=()):
    """The run's metrics and the interference share of its quiet seconds."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    cmd += ["--server-opt=" + o for o in server_opts]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("selfcheck: %s %s answered wrongly: %s" % (workload, server_opts, result))
    quiet = QUIET.search(out)
    return ({k: v["value"] for k, v in result["metrics"].items()},
            float(quiet.group(1)) if quiet else 0.0)


def interleaved(workload, flagged, pairs, seconds):
    """[pairs] interleaved (default, flagged) pairs, skipping pairs in which
    either run was disturbed throughout; after twice as many attempts the
    disturbed pairs are kept."""
    clean, disturbed = [], []
    for i in range(2 * pairs):
        seed = 1000 + i
        order = [(), flagged] if i % 2 == 0 else [flagged, ()]
        runs = {tuple(opts): bench(workload, seed, seconds, opts) for opts in order}
        pair = (runs[()][0], runs[tuple(flagged)][0])
        worst = max(runs[()][1], runs[tuple(flagged)][1])
        (clean if worst <= DISTURBED_PCT else disturbed).append(pair)
        if len(clean) == pairs:
            break
    pairs_used = (clean + disturbed)[:pairs] if len(clean) < pairs else clean
    print("%s: %d clean pair(s), %d disturbed" % (workload, len(clean), len(disturbed)))
    return [b for b, _ in pairs_used], [f for _, f in pairs_used]


def medians(runs):
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def seen(base, flag, name, better):
    """The flagged runs are worse in every pair, and their median differs
    from the default median by more than the default runs' spread."""
    sign = 1 if better == "lower" else -1
    every = all(sign * (f[name] - b[name]) > 0 for b, f in zip(base, flag))
    spread = max(r[name] for r in base) - min(r[name] for r in base)
    return every and sign * (medians(flag)[name] - medians(base)[name]) > spread


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = p.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    args.seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    ok = True

    base, flag = interleaved("serve-point", ["--no-plan-cache"], args.pairs, args.seconds)
    mb, mf = medians(base), medians(flag)
    b, f = mb["latency_p50_ms"], mf["latency_p50_ms"]
    beyond = f > b * (1 + bounds["latency_p50_ms"][0])
    moved = seen(base, flag, "latency_p50_ms", "lower")
    print("serve-point latency_p50_ms: default %.4f ms, --no-plan-cache %.4f ms (%+.1f%%): %s, %s"
          % (b, f, 100 * (f / b - 1), "seen in every pair" if moved else "NOT SEEN",
             "beyond its bound" if beyond else "within its bound"))
    print("serve-point throughput_qps: default %.0f, --no-plan-cache %.0f (%+.1f%%)"
          % (mb["throughput_qps"], mf["throughput_qps"],
             100 * (mf["throughput_qps"] / mb["throughput_qps"] - 1)))
    ok &= moved

    base, flag = interleaved("scan-packed", ["--no-plan-cache"], args.pairs, args.seconds)
    mb, mf = medians(base), medians(flag)
    for name, (bound, better) in bounds.items():
        worse = (mf[name] - mb[name]) / mb[name] * (1 if better == "lower" else -1)
        within = worse <= bound
        print("scan-packed %s: default %.5g, --no-plan-cache %.5g (worse by %+.1f%%, bound %.0f%%): %s"
              % (name, mb[name], mf[name], 100 * worse, 100 * bound, "within" if within else "OUTSIDE"))
        ok &= within

    dflt = bench("overload-window", 1000, args.seconds)[0]
    off = bench("overload-window", 1000, args.seconds, ["--degrade-above=0"])[0]
    for name in ("exact_share", "throughput_qps", "latency_p99_ms"):
        print("overload-window %s: default %.4g, --degrade-above 0 %.4g" % (name, dflt[name], off[name]))
    ok &= off["exact_share"] == 1.0 and dflt["exact_share"] < 1.0

    print("selfcheck: " + ("OK" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
