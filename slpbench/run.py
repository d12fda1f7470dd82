#!/usr/bin/env python3
"""Build the compiler and the benchmark from source, then run it.

Run from the root of a checkout:

    python3 slpbench/run.py --workload kernels --seed 1 --seconds 15 --trace 0
    python3 slpbench/run.py selftest

Build output goes to standard error; the benchmark's last line on
standard output is its JSON result.  Outside a checkout that holds the
compiler's sources the script exits with code 2 and prints no result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "slpbench", "main.exe")
DAEMON = os.path.join("_build", "default", "bin", "snslpd.exe")


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        print("run.py: run from the root of a checkout holding the compiler sources",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./slpbench/main.exe", "./bin/snslpd.exe"],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([EXE, *sys.argv[1:], "--daemon", DAEMON], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
