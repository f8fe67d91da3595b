#!/usr/bin/env python3
"""Serve-path benchmark runner.

One run:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds the two benchmark executables from source (release profile, build
directory .bench_build), generates the workload's inputs in a separate
process (cached under .bench_data), runs the measured process on them and
prints, as the last stdout line, one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics
of BENCHMARK.json, --trace 1 the per-layer ones.

Steadiness mode:
    python3 perfbench/run.py --steady --workload W[,W...] --seeds 1-10
        [--seconds S] [--trace 0|1] [--record-golden]

runs each workload once per seed and prints, for every metric, the median,
the quartiles and the spread (q3 - q1) / median against the metric's bound.
It exits with 1 if a run fails or a spread exceeds its bound (setup_s is
exempt: its bound limits the shift of its median between two sets, not its
spread).  With --trace 1 it also runs the first seed twice and checks that
the counts that must repeat exactly do.  --record-golden stores the
response-stream digest of each (workload, seed, seconds) in
perfbench/golden.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = ".bench_build"
DATA_DIR = ".bench_data"
WORKLOADS = ["paper-tasks", "query-1e5", "edit-body-1e4", "edit-summary-1e4"]
# Counts a traced run must reproduce exactly for the same seed.  The
# collection counts repeat exactly only on read-only workloads: on the edit
# workloads they differ by a few in 10^5 between runs (updates that rebuild
# the SDG run worker domains, whose collections interleave with the main
# domain's by timing; patched updates differ by a handful too).
TIERS = ["update.tier.noop", "update.tier.patched", "update.tier.resolved-incremental",
         "update.tier.resolved-fresh", "update.tier.rebuilt"]
EXACT = TIERS + ["query.slice_nodes", "query.slice_lines"]
GC_EXACT = ["gc.minor_collections", "gc.major_collections"]
RUN_TIMEOUT = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def exe(name):
    return os.path.join(ROOT, BUILD_DIR, "default", "perfbench", name + ".exe")


def build():
    dune = shutil.which("dune")
    if dune is None:
        log("dune not found on PATH")
        return False
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "./perfbench/gen.exe", "./perfbench/measure.exe"]
    # the shared dune cache lives outside the checkout; build without it
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0 and os.path.exists(exe("gen")) and os.path.exists(exe("measure"))


def inputs_dir(workload, seed, seconds):
    """Generates the inputs once per (workload, seed, seconds)."""
    d = os.path.join(ROOT, DATA_DIR, "%s-s%d-t%d" % (workload, seed, seconds))
    done = os.path.join(d, "done")
    if not os.path.exists(done):
        os.makedirs(d, exist_ok=True)
        subprocess.run([exe("gen"), "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--out", d,
                        "--cache", os.path.join(ROOT, DATA_DIR)],
                       check=True, timeout=RUN_TIMEOUT, stdout=sys.stderr)
        open(done, "w").close()
    return d


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def golden_key(workload, seed, seconds):
    return "%s/%d/%d" % (workload, seed, seconds)


def measure(d, *extra):
    proc = subprocess.run([exe("measure"), "--inputs", d] + list(extra),
                          stdout=subprocess.PIPE, timeout=RUN_TIMEOUT, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError("measured process failed with code %d" % proc.returncode)
    return json.loads(lines[-1])


def run_once(workload, seed, seconds, trace):
    """Runs the measured process; returns its result object (with digest).

    Untraced, the set-ups but the last run in a process of their own, so
    that the measured process holds one loaded program set and its peak
    RSS is that of one load plus the operations; setup_s is the median
    over all set-ups.  Traced, the retained-heap probe runs in a process
    of its own before the traced one, for the same reason."""
    d = inputs_dir(workload, seed, seconds)
    if trace:
        probe = measure(d, "--probe")["metrics"]
        res = measure(d, "--trace", "1", "--trace-out", os.path.join(d, "trace.jsonl"))
        res["metrics"].update(probe)
        return res
    walls = list(measure(d, "--setup-only")["metrics"].values())
    res = measure(d, "--trace", "0")
    res["metrics"]["setup_s"] = statistics.median(walls + [res["metrics"]["setup_s"]])
    golden = load_json("golden.json").get(golden_key(workload, seed, seconds))
    if golden is not None and golden != res["digest"]:
        log("response stream digest %s differs from the golden %s" % (res["digest"], golden))
        res["correct"] = False
    return res


def check_metrics(res, trace):
    spec = bench_spec()
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    missing = [n for n in want if n not in got]
    if missing:
        raise RuntimeError("measured process did not report " + ", ".join(missing))
    return {n: {"value": got[n], "unit": units[n]} for n in want}


def single(args):
    if args.workload not in WORKLOADS:
        log("unknown workload %r (one of %s)" % (args.workload, ", ".join(WORKLOADS)))
        return 2
    if not build():
        log("build failed")
        return 1
    res = run_once(args.workload, args.seed, args.seconds, args.trace)
    out = {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
           "failed": int(res["failed"]), "metrics": check_metrics(res, args.trace)}
    print(json.dumps(out), flush=True)
    return 0


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            a, b = part.split("-")
            seeds += list(range(int(a), int(b) + 1))
        else:
            seeds.append(int(part))
    return seeds


def steady(args):
    if not build():
        log("build failed")
        return 1
    spec = bench_spec()
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    seeds = seed_list(args.seeds)
    golden = load_json("golden.json")
    summary = {}
    ok = True
    for w in args.workload.split(","):
        runs = []
        for s in seeds:
            t0 = time.time()
            res = run_once(w, s, args.seconds, args.trace)
            runs.append(res)
            print("%s seed=%d correct=%s failed=%d/%d (%.1fs) %s" % (
                w, s, res["correct"], res["failed"], res["attempted"], time.time() - t0,
                " ".join("%s=%.4g" % (k, v) for k, v in sorted(res["metrics"].items()))),
                flush=True)
            ok = ok and res["correct"] and res["failed"] == 0
            if args.record_golden and not args.trace:
                golden[golden_key(w, s, args.seconds)] = res["digest"]
        rows = {}
        for m in metrics:
            vals = [r["metrics"][m["name"]] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[m["name"]]
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
                if flag == "OVER" and m["name"] != "setup_s":
                    ok = False
            print("  %-34s median=%-12.6g q1=%-12.6g q3=%-12.6g spread=%6.2f%% bound=%s %s" % (
                m["name"], med, q1, q3, 100 * spread,
                "-" if bound is None else "%g%%" % (100 * bound), flag), flush=True)
        if args.trace:
            again = run_once(w, seeds[0], args.seconds, 1)
            read_only = all(runs[0]["metrics"].get(k) == 0 for k in TIERS)
            for k in EXACT + GC_EXACT:
                a, b = runs[0]["metrics"].get(k), again["metrics"].get(k)
                same = a == b
                if k in EXACT or read_only:
                    ok = ok and same
                    verdict = "same" if same else "DIFFERENT"
                else:
                    verdict = "same" if same else "differs (edit workload)"
                print("  exact %-34s %s vs %s %s" % (k, a, b, verdict), flush=True)
        summary[w] = rows
    if args.record_golden and not args.trace:
        with open(os.path.join(HERE, "golden.json"), "w") as f:
            json.dump(golden, f, indent=1, sort_keys=True)
            f.write("\n")
    print(json.dumps({"seconds": args.seconds, "seeds": seeds, "trace": args.trace,
                      "summary": summary}, sort_keys=True))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1:
        log("--seconds must be at least 1")
        return 2
    try:
        return steady(args) if args.steady else single(args)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
