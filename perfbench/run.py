#!/usr/bin/env python3
"""Build the qkc benchmark from this checkout and run one workload.

Run from the root of the checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: qaoa_sweep, vqe_gradient, noisy_sample, noisy_compile. The
benchmark is built in release mode into $CARGO_TARGET_DIR (default
.bench_build). The last line of standard output is the result JSON;
everything the build prints goes to standard error. With --trace 1 the
spans are written to <target dir>/perfbench-traces/<workload>-seed<n>.json.
The exit code is the benchmark's: non-zero when a build step, an op or an
output check failed.
"""

import hashlib
import os
import subprocess
import sys


def source_id(root):
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds from."""
    if os.path.isdir(os.path.join(root, ".git")):
        commit = tool_output(["git", "-C", root, "rev-parse", "HEAD"])
        if commit:
            return commit
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [
                os.path.join(dirpath, f)
                for f in sorted(filenames)
                if f.endswith((".rs", ".toml", ".lock", ".py"))
            ]
        for f in files:
            digest.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def tool_output(cmd):
    """A tool's trimmed standard output, or "" when it is missing or fails."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    except OSError:
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def option(args, flag):
    return args[args.index(flag) + 1] if flag in args[:-1] else None


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    args = sys.argv[1:]
    if option(args, "--trace") == "1":
        traces = os.path.join(target, "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        name = "{}-seed{}.json".format(option(args, "--workload"), option(args, "--seed"))
        args += ["--trace-file", os.path.join(traces, name)]
    env["PERFBENCH_RUSTC"] = tool_output(["rustc", "--version"]) or "unknown"
    env["PERFBENCH_COMMIT"] = source_id(root)
    exe = os.path.join(target, "release", "qkc-perfbench")
    return subprocess.run([exe] + args, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
