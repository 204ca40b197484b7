#!/usr/bin/env python3
"""Build probdb and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--server-opt FLAG[=VALUE]]...

Run from the root of a checkout. The last line of standard output is the
result object printed by the benchmark executable (see perfbench/README.md).
"""

import argparse
import glob
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["serve-point", "scan-packed", "grounded-exact", "overload-window"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
PROBDB = os.path.join("_build", "default", "bin", "probdb.exe")
PERFBENCH = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    for cand in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune"))):
        return cand
    fail("dune not found on PATH")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [find_dune(), "build", "--root", ".", "./bin/probdb.exe", "./perfbench/perfbench.exe"]
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)


def wait_group_gone(pgid, timeout_s):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.01)
    return False


def run(args):
    workdir = os.path.join(".bench_build", "perfbench", "run-%d" % os.getpid())
    cmd = [PERFBENCH, "--probdb", PROBDB, "--workdir", workdir,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for opt in args.server_opt:
        cmd += ["--server-opt", opt]
    # Its own session, so the benchmark and every server it spawned can be
    # stopped together whatever happens to the benchmark process.
    child = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.send_signal(signal.SIGTERM)
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        code = 1
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        wait_group_gone(child.pid, 10)
        shutil.rmtree(workdir, ignore_errors=True)
    return code


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--server-opt", action="append", default=[],
                   help="override one probdb serve flag, e.g. --server-opt=--no-plan-cache")
    args = p.parse_args()
    for required in ("dune-project", os.path.join("bin", "probdb.ml"), "lib"):
        if not os.path.exists(required):
            fail("run from the root of a probdb checkout (%s is missing)" % required)
    build()
    sys.stdout.flush()
    sys.exit(run(args))


if __name__ == "__main__":
    main()
