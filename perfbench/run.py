#!/usr/bin/env python3
"""Build and run the Clio client-to-device benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest|lookup|mixed-replica \
        --seed N --seconds S --trace 0|1

The script builds perfbench/main.exe from source with dune (release
profile, shared cache off, output under _build/) and runs it with the
given arguments. Build output goes to standard error; the benchmark's
report, whose last line is one JSON object, goes to standard output. The
exit code is the benchmark's, or non-zero when the checkout is incomplete
or the build fails.
"""

import glob
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return found[0] if found else None


def main():
    needed = ["dune-project", "lib", os.path.join("perfbench", "dune")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print("perfbench: not at the root of a Clio checkout (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--profile", "release", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
