#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds d2xserve and the benchmark from the checkout's sources into
.bench_build/ (with the Go build cache there too), then runs the
benchmark. The last line of its output is the JSON result. See
perfbench/README.md.
"""
import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod beside perfbench/; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out = os.path.join(root, ".bench_build")
    bins = os.path.join(out, "bin")
    env = dict(os.environ)
    env.update(
        # The go command's configuration and telemetry live under
        # XDG_CONFIG_HOME; keep them inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-trimpath", "-o", bins + os.sep, ".", "d2x/cmd/d2xserve"],
        cwd=bench_dir, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run(
        [os.path.join(bins, "perfbench")] + sys.argv[1:]
        + ["-server", os.path.join(bins, "d2xserve")],
        cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
