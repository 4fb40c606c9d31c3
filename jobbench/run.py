#!/usr/bin/env python3
"""Builds the job benchmark from source and runs it.

    python3 jobbench/run.py --workload wordcount|sort|cc --seed N \
        --seconds S --trace 0|1
    python3 jobbench/run.py --self-test

Run from the repository root. The build goes to .bench_build/jobbench and
result files to .bench_out/. Build output goes to stderr, so the last line
on stdout is the benchmark's JSON result.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = Path(".bench_build") / "jobbench"


def build(target):
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return BUILD_DIR / target


def revision():
    """The git revision when there is one, plus a digest of the sources."""
    digest = hashlib.sha256()
    for tree in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in tree.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        git = rev.stdout.strip()[:12]
    except (OSError, subprocess.CalledProcessError):
        git = "none"
    return f"git:{git} src:{digest.hexdigest()[:12]}"


def self_test():
    """Unit tests, then BENCHMARK.json and layers.json against the binary."""
    status = subprocess.run([str(build("jobbench_tests"))]).returncode
    listing = subprocess.run([str(build("jobbench")), "--list-metrics"],
                             capture_output=True, text=True, check=True)
    printed = {tuple(line.split()) for line in listing.stdout.splitlines()}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {(kind, m["name"], m["unit"])
                for kind in ("end_to_end", "per_layer") for m in bench[kind]}
    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    covered = set()
    for group in layers["groups"]:
        for runtime, names in group["metrics"].items():
            runtimes = ["mpid", "mpid_resilient"] if runtime == "mpid" else [
                runtime]
            covered |= {f"{rt}.{name}" for rt in runtimes for name in names}
    problems = [f"printed but not declared: {m}" for m in printed - declared]
    problems += [f"declared but not printed: {m}" for m in declared - printed]
    problems += [f"per-layer metric missing from layers.json: {name}"
                 for kind, name, _ in declared
                 if kind == "per_layer" and name not in covered]
    for problem in problems:
        print(f"jobbench self-test: {problem}")
    print(f"jobbench self-test: {len(declared)} metrics checked, "
          f"{len(problems)} problems")
    return status or (1 if problems else 0)


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    binary = build("jobbench")
    return subprocess.run([str(binary), *argv, "--revision",
                           revision()]).returncode


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"jobbench: {err}", file=sys.stderr)
        sys.exit(1)
