#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (the library sources under src/ plus the perfbench binary) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild only what changed. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; its metric names and
units are checked against BENCHMARK.json before it is printed.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(out / ".lock", "w") as lock, open(log, "w") as logf:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                logf.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log})", 3)
    return out / "perfbench"


def commit():
    try:
        # The ceiling keeps git from reporting an enclosing repository
        # when the checkout itself is not one.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10,
                           env=env)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest():
    """sha256 over the paths and bytes of every file the build compiles."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def validate(result, spec, trace):
    """Problems with a result line; empty when it meets the contract."""
    problems = []
    if not isinstance(result, dict) or sorted(result) != sorted(
            ["correct", "attempted", "failed", "metrics"]):
        return ["result must have exactly correct/attempted/failed/metrics"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for m in want:
        if m["name"] not in got:
            problems.append(f"missing metric: {m['name']}")
        elif got[m["name"]].get("unit") != m["unit"]:
            problems.append(f"unit of {m['name']} is not {m['unit']}")
        elif not isinstance(got[m["name"]].get("value"), (int, float)):
            problems.append(f"value of {m['name']} is not a number")
    names = {m["name"] for m in want}
    problems += [f"unlisted metric: {n}" for n in got if n not in names]
    return problems


def self_test(exe, spec):
    rc = subprocess.run([str(exe), "--self-test"]).returncode
    ok = True
    for trace in (0, 1):
        names = spec["per_layer" if trace else "end_to_end"]
        good = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                            for m in names}}
        bad = json.loads(json.dumps(good))
        del bad["metrics"][names[-1]["name"]]
        clean, damaged = validate(good, spec, trace), validate(bad, spec, trace)
        tripped = any(p.startswith("missing metric") for p in damaged)
        print(f"self-test run.py missing metric (trace {trace}): clean "
              f"{'passes' if not clean else 'FAILS'}, damaged "
              f"{'trips' if tripped else 'DOES NOT TRIP'}")
        ok = ok and not clean and tripped
    print(f"self-test run.py {'passed' if ok else 'FAILED'}")
    return 0 if rc == 0 and ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found at the repository root", 2)
    spec = load_spec()
    out = build_dir()
    exe = build(out)
    if args.self_test:
        sys.exit(self_test(exe, spec))

    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(traces / f"{args.workload}-{args.seed}.jsonl"),
           "--commit", commit(), "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s", 4)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail(f"{args.workload} exited with status {proc.returncode}",
             proc.returncode or 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    problems = validate(result, spec, args.trace)
    if problems:
        print("\n".join(lines[:-1]))
        fail("result does not meet BENCHMARK.json: " + "; ".join(problems), 5)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
