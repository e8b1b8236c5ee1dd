#!/usr/bin/env python3
"""Build and run the repository's benchmark from the root of a source tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bin/main.exe with dune (release profile) under
.bench_build/, then runs it.  Everything the run writes stays under
.bench_build/ in the current directory: the dune build, the private temp
dir of the journal stores, and the spans of a traced run
(.bench_build/traces/).  The last line of standard output is the result
object.
"""

import hashlib
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
TARGET = "./perfbench/bin/main.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_rev():
    """The git revision when this is a git checkout, else a digest of the
    sources the benchmark builds from."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath("."):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    args = sys.argv[1:]
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of the source tree (dune-project and lib/ not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(BUILD_DIR, exist_ok=True)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
             "--profile", "release", "-j", "2", TARGET],
            env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed")
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bin", "main.exe")
    workload = args[args.index("--workload") + 1] if "--workload" in args else "none"
    seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
    traces = os.path.join(".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    tmpdir = os.path.join(".bench_build", "tmp-%d" % os.getpid())
    cmd = [exe] + args + [
        "--tmpdir", tmpdir,
        "--trace-out", os.path.join(traces, "%s-seed%s.jsonl" % (workload, seed)),
        "--git-rev", source_rev(),
    ]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
