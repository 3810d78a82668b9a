#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the library and the benchmark from source (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to
the repository root), runs one workload in its own process under a watchdog,
checks that the printed metrics are exactly the ones BENCHMARK.json declares
for the mode, and prints the JSON result as the last line of stdout.

Exit status: 0 verified run; 1 wrong result; 2 build, usage or environment
error; 3 the workload hung (unfinished ops counted as failed); 4 the workload
crashed; 5 the output does not match BENCHMARK.json.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pbs-tenants", "pir-serve", "ckks-hybrid")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
PROGRESS = re.compile(r"^# progress \S+ attempted=(\d+) finished=(\d+)")


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then (re)build; all output goes to stderr."""
    def step(cmd):
        try:
            subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError) as e:
            fail(f"build failed: {e}", 2)

    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
             + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", bdir, "-j", jobs, "--target",
          "trinity_perfbench", "perfbench_harness_test"])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The result line must carry exactly the declared metrics."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(res)}"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing} extra {extra}"
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a positive integer"
    return None


def run_workload(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(os.path.dirname(binary),
                             f"trace_{args.workload}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    out_lines = []
    progress = [0, 0]

    def pump_stderr():
        for line in proc.stderr:
            m = PROGRESS.match(line)
            if m:
                progress[0], progress[1] = int(m.group(1)), int(m.group(2))
            sys.stderr.write(line)

    def pump_stdout():
        for line in proc.stdout:
            out_lines.append(line.rstrip("\n"))

    pumps = [threading.Thread(target=pump_stderr),
             threading.Thread(target=pump_stdout)]

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def stop(signum, _frame):
        # Never leave the workload running after run.py is stopped.
        kill()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    for t in pumps:
        t.start()
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill()
    for t in pumps:
        t.join()
    return proc.returncode, out_lines, progress


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the harness self-test only")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    bdir = build_dir()
    build(bdir)
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(bdir, "perfbench_harness_test")],
                                cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode)

    code, lines, (attempted, finished) = run_workload(
        os.path.join(bdir, "trinity_perfbench"), args)
    last = lines[-1] if lines else ""
    for line in lines[:-1] if last.startswith("{") else lines:
        print(line)
    if code == 2:
        fail(f"workload '{args.workload}' refused to run", 2)
    if code < 0 or (code != 0 and not last.startswith("{")):
        hung = code == -signal.SIGKILL
        what = (f"did not finish within {RUN_TIMEOUT_S} s" if hung
                else f"crashed (status {code})")
        # Every op in flight when the process died is lost: count it.
        attempted = max(attempted, finished + 1)
        print(f"perfbench: workload '{args.workload}' {what}; "
              f"{attempted - finished} of {attempted} ops unfinished",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted - finished, "metrics": {}}))
        sys.exit(3 if hung else 4)
    if code == 0:
        problem = check_result(last, args.trace == 1)
        if problem:
            fail(f"{args.workload}: {problem}", 5)
    print(last)
    sys.exit(code)


if __name__ == "__main__":
    main()
