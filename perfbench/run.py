#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-steady --seed 42 --seconds 35 --trace 0

It builds perfbench/ (a Go module that uses the simulator through a
replace of the enclosing module) into .bench_build/, with the Go build cache
and every other Go tool state kept under .bench_build/ as well, then runs the
binary with the given arguments plus a provenance record: the git commit when
the root is a git checkout, and a hash of the source tree either way. The
binary's exit code is passed through; a failed build exits 2 and prints no
result line.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BENCH_DIR = os.path.join(ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# Sources whose content identifies the measured program.
SOURCE_ROOTS = ["go.mod", "internal", "perfbench"]


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
    )
    return env


def source_hash():
    h = hashlib.sha256()
    paths = []
    for top in SOURCE_ROOTS:
        full = os.path.join(ROOT, top)
        if os.path.isfile(full):
            paths.append(top)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in filenames:
                paths.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in sorted(paths):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    if out.returncode != 0:
        return "none"
    return out.stdout.strip()


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal")):
        print("perfbench: run from the repository root (go.mod and internal/ not found)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH_DIR, env=go_env())
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [BINARY] + sys.argv[1:] + ["--commit", git_commit(), "--source-sha256", source_hash()]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
