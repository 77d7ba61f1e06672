#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/perfbench.exe with
dune (inside the checkout's _build), runs it on a pool of min(nproc, 4)
domains, passes its report through and exits with its status.  The last
line of standard output is the JSON result.  It refuses to run when any
HOLIWIN_* variable is set, because the engine reads those variables and they
would change what is measured.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["paper_frames", "partitioned_mix", "session_churn", "spill_capped"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def check_env():
    pinned = sorted(k for k in os.environ if k.startswith("HOLIWIN_"))
    if pinned:
        fail("refusing to run with %s set" % ", ".join(pinned))


def build():
    """Builds the executable; the dune cache stays off so nothing is
    written outside the checkout."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def run_exe(args, timeout=170):
    """Runs the benchmark executable with a private spill directory inside
    the checkout; returns (exit status, stdout)."""
    spill = os.path.join(HERE, "tmp")
    os.makedirs(spill, exist_ok=True)
    try:
        proc = subprocess.run([EXE, "--spill-dir", spill] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % timeout)
    finally:
        shutil.rmtree(spill, ignore_errors=True)
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    check_env()
    build()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        traces = os.path.join(HERE, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-dir", traces]
    code, out = run_exe(args)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("benchmark exited with status %d" % code)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
