#!/usr/bin/env python3
"""End-to-end pgalib benchmark: builds pga_perfbench from source, then runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --check      # tests of the benchmark's output checks

Run from the repository root.  The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), a Release build of pgalib with PGA_NATIVE
off, and is incremental after the first run.  Build output goes to stderr;
the stdout of pga_perfbench is passed through, so the last stdout line is its
JSON result.  The exit code is that of pga_perfbench (0 only when every
output check passed).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(bdir):
    # Compiler temporaries stay inside the build directory.
    tmp = os.path.join(bdir, "tmp", "cc")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def provenance():
    """Commit id when this is a git checkout, plus a digest of the sources
    (the checkout a benchmark runs in need not be a git repository)."""
    root = os.path.dirname(HERE)
    commit = "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s src-sha256:%s" % (commit, digest.hexdigest()[:16])


def main(argv):
    bdir = build_dir()
    build(bdir)
    if argv == ["--check"]:
        cmd = [os.path.join(bdir, "pga_perfbench_checks"), os.path.join(bdir, "tmp")]
    else:
        cmd = [os.path.join(bdir, "pga_perfbench"), *argv,
               "--scratch", os.path.join(bdir, "tmp"), "--commit", provenance()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: pga_perfbench timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
