#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 rmtbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the repository root. It configures and builds the harness in
rmtbench/ (with the verifier's libraries from src/) into the subdirectory
rmtbench/ of the directory named by CARGO_TARGET_DIR, or of .bench_build
when that is unset, then runs one workload. The harness prints a report on stderr, writes the full result with
run metadata and one row per input to
.bench_results/<workload>-seed<N>-trace<T>.json, and prints the result
object as the last line of stdout. The exit code is the harness's: 0 when
every verdict matched its known answer.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sdv", "sdv_inv", "chain", "programs")


def log(msg):
    print(f"rmtbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the harness; returns its path or None."""
    bench_dir = root / "rmtbench"
    cache = build_dir / "CMakeCache.txt"
    # A cache made for another source tree cannot be reused, and the build
    # directory is not ours to delete.
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={bench_dir}" not in cache.read_text():
        log(f"{build_dir} holds a CMake cache for another source tree; "
            "remove it or point CARGO_TARGET_DIR elsewhere")
        return None
    if not cache.exists():
        configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(build_dir), "--target", "rmtbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return build_dir / "rmtbench"


def git_describe(root):
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"no verifier sources under {root / 'src'}; nothing to build")
        return 2
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "rmtbench"
    exe = build(root, build_dir.resolve())
    if exe is None:
        log("build failed")
        return 2

    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--programs", str(root / "rmtbench" / "programs"),
           "--results", str(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
           "--git", git_describe(root)]
    # The CLI's default configuration: no structural verification between
    # prepass passes.
    env = {k: v for k, v in os.environ.items() if k != "RMT_VERIFY_EACH"}
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
