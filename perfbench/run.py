#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload router-cold|hot-mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
lash_served and the load generator into .bench_build/ (about a minute on
4 cores); later calls only rebuild what changed. The last line of standard
output is the run's result object; see perfbench/README.md for the rest.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def source_id(root):
    """The git commit when there is one, else a digest of the source tree."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def build(root, build_dir):
    """Configures (once) and builds; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "lash_served", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    work_dir = os.path.join(build_dir, "work")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    os.makedirs(work_dir, exist_ok=True)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--served", os.path.join(build_dir, "lash", "lash_served"),
               "--work-dir", work_dir, "--source-id", source_id(root)]
    # Its own process group, so a timeout takes down the servers it spawned
    # along with it.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run aborted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
