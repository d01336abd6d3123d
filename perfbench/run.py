#!/usr/bin/env python3
"""Build and run the DT-SNN benchmark from the root of a checkout.

    python3 perfbench/run.py --workload dtsnn_offline --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which builds the library from the
checkout's src/) into $CARGO_TARGET_DIR, default .bench_build, then runs
the benchmark binary with the given flags. Build output goes to stderr; the
binary's stdout, whose last line is the JSON result, passes through. The
exit code is the binary's, or nonzero without a result when the source tree
is missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHECKPOINT = os.path.join(HERE, "fixture", "vgg_mini_sync10_t4.dtsnn")
TARGET = "dtsnn_perfbench"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def cached_source_dir(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(build_dir):
    """Configure once per build directory, then an incremental build."""
    if cached_source_dir(build_dir) not in (None, HERE):
        shutil.rmtree(build_dir)  # configured for another checkout
    if cached_source_dir(build_dir) is None:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", TARGET, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, TARGET)


def main():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no DT-SNN source tree at {ROOT}/src")
        return 2
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    # DTSNN_* knobs would change what is measured; fleet workers take the
    # process-wide OpenMP default of one thread (offline workloads raise
    # their own thread count).
    env = {k: v for k, v in os.environ.items() if not k.startswith("DTSNN_")}
    env["OMP_NUM_THREADS"] = "1"
    command = [binary, *sys.argv[1:], "--fixture", CHECKPOINT, "--scratch", build_root]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
