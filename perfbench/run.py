#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload invoke-remote --seed 1 --seconds 10 --trace 0

Every argument is passed to the perfbench binary. The Go build cache, the
binary and anything else the toolchain writes go under .bench_build/ at the
checkout root. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=tmp,
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        CGO_ENABLED="0",
        # The go command keeps telemetry and settings under the user's
        # config directory; keep those writes inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
