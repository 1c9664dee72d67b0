#!/usr/bin/env python3
"""Build and run the ATR benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig10-exact --seed 1 --seconds 20 --trace 0

It builds atrd (from the repository) and the perfbench binary (this
directory's Go module) into .bench_build/bin, keeping every Go cache under
.bench_build, then runs perfbench, whose last stdout line is the JSON
result. Without the repository's sources next to this directory the build
fails and the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOPROXY="off",
        GOFLAGS="-mod=mod -buildvcs=false",
        GOTOOLCHAIN="local",
    )
    return env


def build(env):
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    steps = [
        (ROOT, ["go", "build", "-o", BIN + os.sep, "./cmd/atrd"]),
        (os.path.join(ROOT, "perfbench"), ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: run from the repository root (no go.mod in %s)" % ROOT)
    env = go_env()
    build(env)
    args = [os.path.join(BIN, "perfbench"), "-bin", BIN] + sys.argv[1:]
    os.execve(args[0], args, env)


if __name__ == "__main__":
    main()
