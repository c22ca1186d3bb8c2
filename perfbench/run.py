#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

The benchmark itself is perfbench/bench.exe (see perfbench/README.md);
this wrapper checks the flags, builds it with dune inside the checkout
and passes its standard output through.  Build output goes to standard
error, so the last line of standard output is the benchmark's JSON.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["interp-compute", "interp-effects", "campaign", "websim"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"run.py: error: {message}\n")
        sys.exit(2)


def workload_list(text):
    names = text.split(",")
    for n in names:
        if n not in WORKLOADS:
            raise argparse.ArgumentTypeError(
                f"unknown workload {n!r} (choose from {', '.join(WORKLOADS)})")
    return text


def main():
    p = Parser(prog="run.py", allow_abbrev=False)
    p.add_argument("--workload", required=True, type=workload_list)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--trace-out")
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("run.py: run from the root of the repository "
                         "(dune-project and lib/ not found)\n")
        return 3

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 3

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
