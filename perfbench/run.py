#!/usr/bin/env python3
"""Builds the session benchmark and runs one workload of it.

Run from the repository root:

    python3 perfbench/run.py --workload solo_digit --seed 1 --seconds 20 --trace 0

The benchmark is a cargo package of its own (`perfbench/Cargo.toml`) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (`.bench_build` when unset) and then run with the
same arguments. Cargo's output goes to standard error; the last line of
standard output is the result JSON. The exit code is the build's when the
build fails, otherwise the benchmark's.

The benchmark runs with glibc's mmap and trim thresholds raised so that
freed memory stays in the process: on a virtual machine whose balloon
device reports free pages to the host, memory handed back to the kernel
is unmapped by the hypervisor and faulted in again on the next session,
which made identical runs differ by up to 10%. It also runs with a
single malloc arena: which per-thread arena each pool worker lands in
differs from process to process, and identical fleet runs differed by
up to 20% with them.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    bench_env = dict(
        env,
        MALLOC_MMAP_THRESHOLD_=str(1 << 25),
        MALLOC_TRIM_THRESHOLD_=str(1 << 34),
        MALLOC_ARENA_MAX="1",
    )
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(here, "Cargo.toml"),
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "cheetah-perfbench")
    return subprocess.run([exe, *sys.argv[1:]], cwd=root, env=bench_env).returncode


if __name__ == "__main__":
    sys.exit(main())
