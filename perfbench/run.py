#!/usr/bin/env python3
"""Build and run the repository's benchmark from the root of a checkout.

    python3 perfbench/run.py --workload pingpong-small --seed 1 --seconds 10 --trace 0

The benchmark is a Go program of its own module in this directory. This
script builds it from source and runs it with the given arguments; the
last line of its standard output is the JSON result. Every file the
build and the run leave behind (Go build cache, binary, span files) goes
under $CARGO_TARGET_DIR, or .bench_build when that is unset, inside the
checkout.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = os.path.join(build, "perfbench")
    gohome = os.path.join(build, "go")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(gohome, "cache"),
        GOPATH=os.path.join(gohome, "path"),
        GOMODCACHE=os.path.join(gohome, "path", "pkg", "mod"),
        GOTMPDIR=os.path.join(gohome, "tmp"),
        XDG_CONFIG_HOME=os.path.join(gohome, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    for d in (out, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(out, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary, "--out", out] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
