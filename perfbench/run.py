#!/usr/bin/env python3
"""Tile-serving benchmark: builds rrsd and the load generator, runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout.  The first run configures and builds
(Release) into .bench_build/; later runs only re-check the build.  The load
generator writes port files and logs under .bench_run/.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--smoke` runs every workload of BENCHMARK.json briefly, traced and untraced,
and checks that each prints exactly the metric names and units listed there.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_DIR = ROOT / ".bench_run"
LOADGEN = BUILD / "perfbench_load"
# A run must end within 180 s; leave room for the build check and teardown.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build rrsd and the load generator (Release)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench_load"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_loadgen(workload, seed, seconds, trace, timeout=RUN_TIMEOUT_S):
    """Run one workload; returns the parsed result line, or None on failure."""
    cmd = [str(LOADGEN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--run-dir", str(RUN_DIR)]
    # Own process group, so a timeout also stops the rrsd processes it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{workload}: no result within {timeout} s")
        return None
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: load generator exited with {proc.returncode}")
        return None
    return json.loads(lines[-1])


def smoke():
    """Each workload briefly, both modes; names and units must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            t0 = time.monotonic()
            res = run_loadgen(w["name"], 1, 1, trace)
            problems = []
            if res is None:
                problems.append("no result")
            else:
                if set(res) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(res)}")
                if res.get("correct") is not True:
                    problems.append("outputs failed their checks")
                if res.get("failed") != 0 or not res.get("attempted"):
                    problems.append(f"attempted {res.get('attempted')} failed {res.get('failed')}")
                got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(got))
                    extra = sorted(set(got) - set(expected[trace]))
                    units = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
                    problems.append(f"missing {missing} extra {extra} wrong units {units}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            log(f"smoke {w['name']} trace={trace}: {status} ({time.monotonic() - t0:.1f} s)")
            ok = ok and not problems
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    if not build():
        log("build failed")
        return 1
    if args.smoke:
        return smoke()
    res = run_loadgen(args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
