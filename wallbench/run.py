#!/usr/bin/env python3
"""Builds the wallbench driver from source and runs one workload.

    python3 wallbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first invocation configures and
builds the dipbench library and the driver (Release) under the build
directory, `$CARGO_TARGET_DIR` or `.bench_build`; later invocations only
re-check the build. Build output goes to stderr, so the driver's result is
the last line of stdout. The driver replaces this process, and spill files
go to a temporary directory inside the build directory.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"wallbench: no dipbench sources at {ROOT / 'src'}")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build = build_root / "wallbench"
    out_dir = build / "out"
    tmp_dir = build / "tmp"

    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(build), "--target", "wallbench",
              "-j", jobs]]
    if not (build / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(build),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("wallbench: build failed: " + " ".join(step))

    out_dir.mkdir(parents=True, exist_ok=True)
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    exe = str(build / "wallbench")
    sys.stdout.flush()
    os.execve(exe, [exe, f"--workload={args.workload}", f"--seed={args.seed}",
                    f"--seconds={args.seconds}", f"--trace={args.trace}",
                    f"--manifest-dir={HERE / 'workloads'}",
                    f"--out-dir={out_dir}"], env)


if __name__ == "__main__":
    main()
