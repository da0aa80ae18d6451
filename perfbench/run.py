#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload map-churn-hot --seed 1 --seconds 10 --trace 0

Every build and run artifact (the Go build cache, the binary, the traced
runs' span dumps) stays under .bench_build/ in the repository root.  The
arguments are passed through to the benchmark binary; see main.go.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")


def main():
    binary = os.path.join(OUT, "perfbench")
    env = dict(os.environ)
    # Every path the go command would otherwise take from the home
    # directory (build cache, module cache, telemetry counters) points
    # inside the checkout.
    env.update(
        HOME=os.path.join(OUT, "home"),
        XDG_CONFIG_HOME=os.path.join(OUT, "config"),
        XDG_CACHE_HOME=os.path.join(OUT, "cache"),
        GOCACHE=os.path.join(OUT, "gocache"),
        GOMODCACHE=os.path.join(OUT, "gomodcache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOTMPDIR=os.path.join(OUT, "tmp"),
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--spans-dir", os.path.join(OUT, "spans")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
