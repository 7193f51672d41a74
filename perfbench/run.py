#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fluid-week --seed 1 --seconds 20 --trace 0

Everything the build and the run write stays under .bench_build/ at the
repository root (the Go build cache included), so a fresh checkout builds
once and later runs reuse the cache. The last line of standard output is
the result object; build output goes to standard error. Without the
repository around perfbench/ the build fails and the script exits non-zero
without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOTMPDIR=os.path.join(OUT, "tmp"),
        GOPATH=os.path.join(OUT, "gopath"),
        XDG_CONFIG_HOME=os.path.join(OUT, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
    )
    for key in ("GOCACHE", "GOTMPDIR", "GOPATH", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = [binary, "--src", ROOT, "--spans", os.path.join(OUT, "spans")] + sys.argv[1:]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
