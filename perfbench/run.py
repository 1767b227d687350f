#!/usr/bin/env python3
"""Build and run the end-to-end auction benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The script configures and builds the
perfbench/ CMake package, which compiles the dauct library from ../src, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Then it replaces
itself with the driver. Build output goes to stderr. The driver's last line on
stdout is the JSON result, and the line before it is the full record with
provenance. METRICS.md describes the workloads and metrics.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the library and benchmark sources: provenance that holds
    in a checkout without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """HEAD's commit id read from .git, or "unknown" outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    out = {"stdout": sys.stderr, "stderr": sys.stderr,
           "env": dict(os.environ, TMPDIR=tmp)}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, **out).returncode != 0:
            fail("configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs], **out).returncode != 0:
        fail("build failed", 3)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no dauct sources at {os.path.join(ROOT, 'src')}", 2)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    exe = build(build_dir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", commit(), "--source-digest", source_digest()]
    if args.trace == "1":
        cmd += ["--trace-file",
                os.path.join(build_dir, f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(exe, cmd)


if __name__ == "__main__":
    main()
