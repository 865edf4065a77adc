#!/usr/bin/env python3
"""Benchmark of record for sdfalloc.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0

Builds the benchmark program (perfbench/bin/bench.exe) and the daemon
(bin/sdf3_serve.exe) from source with dune, then runs one workload. The
workloads and metrics are described in BENCHMARK.json and
perfbench/README.md. The last line of stdout is the JSON result; on a
failed build or a failed correctness check the script exits nonzero
without printing one.
"""

import argparse
import glob
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("grid", "multimedia", "batch", "serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
WORKDIR = os.path.join("perfbench", ".run")
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bin", "bench.exe")
SERVE_EXE = os.path.join("_build", "default", "bin", "sdf3_serve.exe")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    home = os.path.expanduser("~")
    found = sorted(glob.glob(os.path.join(home, ".opam", "*", "bin", "dune")))
    return found[0] if found else None


def run_group(cmd, timeout, env, stdout):
    """Run cmd in its own process group. The whole group is killed on
    timeout, and when this script is told to stop."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %ds" % (cmd[0], timeout))
    finally:
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, signal.SIG_DFL)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for needed in ("dune-project", os.path.join("lib", "core"),
                   os.path.join("bin", "sdf3_serve.ml")):
        if not os.path.exists(needed):
            fail("not at the root of an sdfalloc checkout (missing %s)" % needed, 2)
    dune = find_dune()
    if dune is None:
        fail("dune not found", 2)
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")

    code, _ = run_group(
        [dune, "build", "--root", ".", "--display", "quiet",
         "./perfbench/bin/bench.exe", "./bin/sdf3_serve.exe"],
        BUILD_TIMEOUT_S, env, sys.stderr)
    if code != 0:
        fail("build failed (exit %d)" % code)

    os.makedirs(WORKDIR, exist_ok=True)
    code, out = run_group(
        [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", WORKDIR, "--serve-bin", SERVE_EXE],
        RUN_TIMEOUT_S, env, subprocess.PIPE)
    text = out.decode("utf-8", "replace")
    if code != 0:
        # Diagnostics only: a failed run prints no result line.
        for line in text.splitlines():
            if not line.startswith('{"correct"'):
                print(line)
        fail("benchmark exited %d" % code)
    sys.stdout.write(text)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
