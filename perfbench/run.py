#!/usr/bin/env python3
"""The served benchmark: lookup, scan and churn against segdb_server.

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout. It builds segdb_server and the load
generator (perfbench/segbench.ml) from source with dune, pins the load
generator to one CPU, where every server it starts runs too, and prints
its lines with the JSON result last. --trace 1 prints
the per-layer table instead of the end-to-end metrics and writes the
spans to .bench_work/trace-WORKLOAD-SEED.json (Chrome trace-event JSON,
loadable in Perfetto). See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("lookup", "scan", "churn")
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
SEGBENCH = os.path.join(BUILD_DIR, "default", "perfbench", "segbench.exe")
SERVER = os.path.join(BUILD_DIR, "default", "bin", "segdb_server.exe")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile("dune-project"):
        fail("no dune-project here: run from the root of a segdb checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/segbench.exe", "./bin/segdb_server.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("build failed")


def bench_cpu():
    """The load generator and the servers share the highest allowed CPU.
    Split across two vCPUs of a VM, every request waits for the
    hypervisor to wake the other vCPU, and that wait swings 2-3x with the
    host's load (see README.md); on one CPU the loop never lets it halt."""
    return str(max(os.sched_getaffinity(0)))


def stop_group(proc):
    """Kill segbench and everything it started, and wait until they are
    gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    # a run measures for --seconds and spends about as long again on
    # set-up, warm-up and the traced run's in-process replay
    timeout_s = 120 + 2 * args.seconds

    build()
    taskset = shutil.which("taskset")
    os.makedirs(WORK_DIR, exist_ok=True)
    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [taskset, "-c", bench_cpu()] if taskset else []
    cmd += [SEGBENCH, "run",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--server", SERVER,
            "--nproc", str(len(os.sched_getaffinity(0))),
            "--work", work,
            "--trace-out", os.path.join(WORK_DIR, f"trace-{args.workload}-{args.seed}.json")]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)

    def on_signal(signum, _frame):
        stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(128 + signum)

    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, on_signal)
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        out, err = proc.communicate()
        sys.stdout.write(out)
        sys.stderr.write(err)
        fail(f"run did not finish within {timeout_s:g} s")
    finally:
        stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    sys.stderr.write(err)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    if not out.rstrip().splitlines()[-1:] or not out.rstrip().splitlines()[-1].startswith('{"correct"'):
        fail("segbench printed no result")


if __name__ == "__main__":
    main()
