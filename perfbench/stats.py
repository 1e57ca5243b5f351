#!/usr/bin/env python3
"""Repeat, check and compare benchmark runs.

    # Ten seeds of one workload; results appended to a JSON-lines file,
    # then each metric's median and quartile spread (IQR / median).
    python3 perfbench/stats.py repeat --workload serve_decode \\
        --seeds 1-10 --out results.jsonl

    # Every workload once: each end-to-end metric by name and unit.
    # Exits 1 if any output was wrong.
    python3 perfbench/stats.py all --seed 1

    # Same seed twice: the guest metrics must repeat exactly.
    python3 perfbench/stats.py determinism --workload engine_direct --seed 1

    # Two result files, workload by workload and metric by metric, with
    # each metric's bound from BENCHMARK.json.  Refuses when the host
    # blocks differ.
    python3 perfbench/stats.py compare base.jsonl change.jsonl

Run from the root of a checkout.  Every record carries the host block
gfp-perfbench printed, so a file says which host and build it came from.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("guest_cycles_per_op", "guest_energy_nj_per_op")
WORKLOADS = ("serve_decode", "serve_aes_open", "engine_direct")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit("run failed (exit %d): %s" %
                         (done.returncode, " ".join(cmd)))
    if done.returncode:
        print("incorrect output: %s" % " ".join(cmd), file=sys.stderr)
    host = json.loads(lines[-2])["host"]
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": trace,
            "host": host, "result": result}


def spread(values):
    """IQR as a share of the median, as the acceptance check takes it."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def summarize(records):
    by_metric = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            by_metric.setdefault(name, []).append(m["value"])
    return by_metric


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cmd_repeat(args):
    seconds = args.seconds or spec()["run_seconds"]
    records = []
    for seed in seeds_arg(args.seeds):
        rec = run_once(args.workload, seed, seconds, args.trace)
        records.append(rec)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(rec) + "\n")
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    print("%-32s %16s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, vals in summarize(records).items():
        bound = bounds.get(name)
        print("%-32s %16.6g %8.4f %8s" %
              (name, statistics.median(vals), spread(vals),
               "-" if bound is None else "%.3f" % bound))
    return 0 if all(r["result"]["correct"] for r in records) else 1


def cmd_all(args):
    seconds = args.seconds or spec()["run_seconds"]
    ok = True
    for w in WORKLOADS:
        rec = run_once(w, args.seed, seconds, args.trace)
        res = rec["result"]
        ok = ok and res["correct"]
        print("%s: correct=%s attempted=%d failed=%d" %
              (w, res["correct"], res["attempted"], res["failed"]))
        for name, m in res["metrics"].items():
            print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))
    return 0 if ok else 1


def cmd_determinism(args):
    seconds = args.seconds or spec()["run_seconds"]
    a = run_once(args.workload, args.seed, seconds, 0)
    b = run_once(args.workload, args.seed, seconds, 0)
    ok = True
    for name in DETERMINISTIC:
        va = a["result"]["metrics"][name]["value"]
        vb = b["result"]["metrics"][name]["value"]
        print("%-28s %r %r %s" % (name, va, vb, "same" if va == vb else
                                  "DIFFERENT"))
        ok = ok and va == vb
    return 0 if ok else 1


def load(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def cmd_compare(args):
    base, change = load(args.base), load(args.change)
    hosts = {json.dumps(r["host"], sort_keys=True) for r in base + change}
    if len(hosts) != 1:
        print("refusing to compare results from different hosts or "
              "builds:", file=sys.stderr)
        for h in sorted(hosts):
            print("  " + h, file=sys.stderr)
        return 2
    metrics = {m["name"]: m for m in spec()["end_to_end"]}
    worse = False
    workloads = sorted({r["workload"] for r in base + change})
    print("%-16s %-26s %14s %14s %8s %8s" %
          ("workload", "metric", "base", "change", "ratio", "verdict"))
    for w in workloads:
        b = summarize([r for r in base if r["workload"] == w])
        c = summarize([r for r in change if r["workload"] == w])
        for name in sorted(set(b) & set(c)):
            mb, mc = statistics.median(b[name]), statistics.median(c[name])
            ratio = mc / mb if mb else float("inf")
            verdict = "-"
            if name in metrics:
                m = metrics[name]
                loss = (mc - mb) / mb if m["better"] == "lower" else \
                    (mb - mc) / mb
                verdict = "worse" if loss > m["bound"] else "ok"
                worse = worse or verdict == "worse"
            print("%-16s %-26s %14.6g %14.6g %8.4f %8s" %
                  (w, name, mb, mc, ratio, verdict))
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("repeat")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=float)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out")
    a = sub.add_parser("all")
    a.add_argument("--seed", type=int, default=1)
    a.add_argument("--seconds", type=float)
    a.add_argument("--trace", type=int, default=0)
    d = sub.add_parser("determinism")
    d.add_argument("--workload", required=True)
    d.add_argument("--seed", type=int, default=1)
    d.add_argument("--seconds", type=float)
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("change")
    args = ap.parse_args()
    return {"repeat": cmd_repeat, "all": cmd_all,
            "determinism": cmd_determinism,
            "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
