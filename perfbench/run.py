#!/usr/bin/env python3
"""Build and run the simulator benchmark from the root of a checkout.

One run:

    python3 perfbench/run.py --workload read-local --seed 1 --seconds 30 --trace 0

builds perfbench/perfbench.exe with dune (release profile, build
directory .bench_build), runs it once and passes its output through; the
last line is the JSON result.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones.

Steadiness self-check:

    python3 perfbench/run.py --selfcheck 10 --workload write-2pc --seed 1 --seconds 30

runs the workload that many times (seeds seed, seed+1, ...; the same seed
every time with --fixed-seed) and prints each metric's median, quartiles,
min/max and quartile spread as a share of the median, next to the bound
BENCHMARK.json gives it, with provenance (git describe, OCaml version,
host, seeds).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        sys.exit(f"perfbench: build failed (dune exit {r.returncode})")


def run_once(workload, seed, seconds, trace):
    """Run the benchmark once; returns (stdout lines, parsed result)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: run failed: {e}")
    lines = r.stdout.decode(errors="replace").splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        sys.exit(f"perfbench: benchmark exited with {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write("\n".join(lines) + "\n")
        sys.exit("perfbench: last line is not a JSON result")
    return lines, result


def provenance():
    def out(cmd):
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, timeout=30)
            return r.stdout.decode().strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
    return {
        "git": out(["git", "describe", "--always", "--dirty"]),
        "ocaml": out(["ocamlfind", "ocamlopt", "-version"]),
        "host": f"{platform.node()} {platform.machine()} "
                f"{os.cpu_count()} cpus {platform.platform()}",
    }


def bounds():
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def selfcheck(args):
    seeds = [args.seed if args.fixed_seed else args.seed + i
             for i in range(args.selfcheck)]
    values = {}
    digests = {}
    bad = 0
    for seed in seeds:
        lines, result = run_once(args.workload, seed, args.seconds, args.trace)
        for line in lines:
            if line.startswith("digest "):
                digests.setdefault(seed, set()).add(line.split()[-1])
        if not result["correct"]:
            bad += 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    prov = provenance()
    print(f"\nselfcheck {args.workload} trace={args.trace} "
          f"seconds={args.seconds} runs={len(seeds)} seeds={seeds}")
    print(f"git={prov['git']} ocaml={prov['ocaml']} host={prov['host']}")
    bnd = bounds()
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} "
          f"{'max':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (
            vs[0], vs[0], vs[0])
        spread = (q3 - q1) / med if med else 0.0
        b = bnd.get(name)
        flag = ""
        if args.trace == 0 and b is not None and spread > b / 3:
            flag = "  above bound/3"
        print(f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vs):12.6g} "
              f"{max(vs):12.6g} {spread:8.4f} "
              f"{'' if b is None else b:>6}{flag}")
    print("simulated digests by seed: " + " ".join(
        f"{seed}:{','.join(sorted(d))}" for seed, d in sorted(digests.items())))
    print(f"incorrect runs: {bad}")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selfcheck", type=int, metavar="RUNS", default=0)
    p.add_argument("--fixed-seed", action="store_true")
    args = p.parse_args()
    build()
    if args.selfcheck > 0:
        return selfcheck(args)
    lines, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
