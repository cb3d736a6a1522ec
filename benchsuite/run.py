#!/usr/bin/env python3
"""Build the h2sketch benchmark suite and run it.

Run from the repository root:

    python3 benchsuite/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchsuite/run.py --all [--seed N] [--seconds S] [--trace 0|1] [--smoke]
    python3 benchsuite/run.py --reference

The first call configures and builds the library and the bench_suite program
(Release) into $CARGO_TARGET_DIR if it is set, else .bench_build/; later
calls only rebuild what changed. Every other argument goes to bench_suite,
which runs in the build directory (trace files land there) and prints the
result as the last line of standard output. --reference measures the dense
baselines and stores them under "reference" in benchsuite/baseline.json.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent
WORKLOAD_TIMEOUT_S = 170  # a single-workload run must end within 180 s


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no h2sketch sources (CMakeLists.txt, src/) in {ROOT}; nothing to build")
    bdir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "--target", "bench_suite", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return bdir


def main(argv):
    bdir = build()
    exe = str(bdir / "bench_suite")
    if "--reference" in argv:
        out = subprocess.run([exe] + argv, cwd=bdir, stdout=subprocess.PIPE, text=True, check=True)
        ref = json.loads(out.stdout.strip().splitlines()[-1])
        path = SUITE / "baseline.json"
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc["reference"] = ref["reference"]
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(json.dumps(ref))
        return 0
    timeout = None if "--all" in argv else WORKLOAD_TIMEOUT_S
    try:
        rc = subprocess.run([exe] + argv, cwd=bdir, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"bench_suite did not finish within {timeout} s", 3)
    # bench_suite exits 1 when it printed a result whose checks failed; the
    # verdict is in that result ("correct", "failed"), so the run itself
    # succeeded. Anything else (usage error, signal) is a failed run.
    return 0 if rc in (0, 1) else (rc if rc > 0 else 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
