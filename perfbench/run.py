#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package in release mode
(offline, into $CARGO_TARGET_DIR, default `.bench_build`), runs one workload
and passes its report through. The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The untraced run adds
`peak_rss_mb`, the benchmark process's resident-set high-water mark, which
only the parent can read once the process has ended. A traced run writes its
spans to `<target>/perfbench-spans/`.

Exits non-zero without a result when the build fails, for example when the
library crates are not next to the benchmark.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["grade-stream", "frame-stream", "tenant-serve", "record-replay"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, cwd=ROOT)

    cmd = [
        os.path.join(target, "release", "freepart-perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--rustc", rustc.stdout.strip() or "unknown",
    ]
    if a.trace:
        spans_dir = os.path.join(target, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, f"{a.workload}-seed{a.seed}.jsonl")]

    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(out)
        print("perfbench: no result from the benchmark", file=sys.stderr)
        return proc.returncode or 1
    print("\n".join(lines[:-1]))
    if not a.trace:
        rss = usage.ru_maxrss / 1024.0  # KiB on Linux
        print(f"metric peak_rss_mb = {rss} MiB (high-water mark of the benchmark process)")
        result["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
