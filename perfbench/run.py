#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload serve_cold|serve_hot|offline_build \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the program under test (smartctl) and
the benchmark runner from source into .bench_build/, runs one workload in
.bench_work/<workload>/, and prints a report whose last line is the result
object {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import threading

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = ".bench_work"
TARGETS = ["smartctl", "perfbench", "perfbench_selftest"]
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then rebuilds incrementally; output goes to a log."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + TARGETS)
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                fail("build failed (%s); see %s" % (" ".join(cmd[:2]), log_path))


def isa():
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    for name in ("avx512f", "avx2", "sse4_2"):
        if name in flags:
            return name
    return platform.machine()


def source_digest():
    """sha256 over the program's sources (the checkout need not be a git repo)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(".git"):
        return "none"
    try:
        return subprocess.check_output(["git", "rev-parse", "HEAD"],
                                       stderr=subprocess.DEVNULL).decode().strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                     os.path.join("tools", "smartctl.cpp")):
        if not os.path.exists(required):
            fail("run from the repository root: %s is missing" % required, 2)

    build()
    bin_dir = os.path.abspath(BUILD_DIR)
    if args.self_test:
        sys.exit(subprocess.call([os.path.join(bin_dir, "perfbench_selftest")]))

    fingerprint = {
        "nproc": os.cpu_count(),
        "isa": isa(),
        "build_type": "Release",
        "git_rev": git_rev(),
        "source_digest": source_digest(),
    }
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True), flush=True)

    work = os.path.join(WORK_DIR, args.workload)
    cmd = [os.path.join(bin_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--smartctl", os.path.join(bin_dir, "repo", "tools", "smartctl"),
           "--work", work]
    # Its own process group, so a timeout also stops the daemons it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S,
                               lambda: os.killpg(proc.pid, signal.SIGKILL))
    watchdog.start()
    last = ""
    try:
        for line in proc.stdout:
            if line.strip():
                last = line.strip()
                # Held back until it is known to be the result object.
                if not last.startswith("{"):
                    sys.stdout.write(line)
                    sys.stdout.flush()
        rc = proc.wait()
    finally:
        watchdog.cancel()
    if rc != 0:
        fail("runner exited with %d" % rc)
    try:
        json.loads(last)
    except ValueError:
        fail("runner printed no result")
    print(last, flush=True)


if __name__ == "__main__":
    main()
