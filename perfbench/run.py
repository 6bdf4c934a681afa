"""LCP benchmark entry point.

    python3 perfbench/run.py --workload temporal --seed 1 --seconds 40 --trace 0

Builds the benchmark (see build.py), then runs one workload in a fresh JVM.
The JVM prints a report (lines starting with '#') and, as its last line, one
JSON object with the keys correct/attempted/failed/metrics; this script
relays the report and prints that object as its own last line. With
``--trace 1`` the metrics are the per-layer ones and the spans are written to
``.bench_build/perfbench/trace``. ``--self-test`` runs the harness's own tests.
Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import threading

sys.dont_write_bytecode = True
import build  # noqa: E402

RUN_TIMEOUT_S = 170
WORKLOADS = ("temporal", "spatial")
# JVM settings: the default tiered JIT, as every other JVM of the repo uses,
# warmed by the setup repetitions before anything is timed. A fixed 2 GB
# heap keeps heap resizing out of the timings, and the serial collector keeps
# the single-threaded codec free of parallel GC threads contending for the
# cores.
JAVA_OPTS = [
    "-Xms2g", "-Xmx2g", "-Xss8m", "-XX:+UseSerialGC",
    "-XX:-UsePerfData",
    "-Dspark.driver.host=127.0.0.1",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
]


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    return args


def read_result(line):
    """The result object, if the line holds one with exactly the keys
    correct/attempted/failed/metrics."""
    try:
        res = json.loads(line)
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def declares_metrics(res, trace):
    """Whether the result reports exactly the metrics BENCHMARK.json
    declares for this kind of run, with their units."""
    try:
        with open(os.path.join(build.ROOT, "BENCHMARK.json")) as fh:
            declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    except (OSError, ValueError, KeyError):
        return False
    units = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    return got == units


def pin_round(line, cpus):
    """Moves the measuring thread named by an '@round <k> <thread id>' line
    to the k-th allowed vCPU. Each vCPU of a shared host flips, every few
    seconds to a minute, between a fast state and one about 1.6x slower
    (other tenants' load), and the vCPUs flip apart.
    A thread left where the scheduler put it can spend a whole run on a slow
    vCPU; visiting every vCPU in turn gives each run fast samples, which the
    throughput figures are taken from (Stats.ThroughputQ)."""
    if len(cpus) < 2:
        return
    try:
        _, k, tid = line.split()
        os.sched_setaffinity(int(tid), {cpus[int(k) % len(cpus)]})
    except (OSError, ValueError):
        pass


def main():
    args = parse_args()
    # Stop the JVM too when this script is terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        classes = build.build()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    work = os.path.join(build.OUT, "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    cp = os.pathsep.join([classes, os.path.join(build.spark_jars(), "*")])
    cmd = ["java"] + JAVA_OPTS + ["-Djava.io.tmpdir=" + tmp, "-cp", cp, "repro.perfbench.Main",
                                  "--work", work, "--cpus", str(len(cpus))]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=build.ROOT)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("@round "):
                pin_round(line, cpus)
            elif line.startswith("{"):
                last = line
            else:
                print(line, flush=True)
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        print("perfbench: benchmark JVM exited with %d" % rc, file=sys.stderr)
        return rc
    if args.self_test:
        return 0
    res = read_result(last) if last else None
    if res is None:
        print("perfbench: no result line", file=sys.stderr)
        return 4
    # A failed run still prints its counts; it exits non-zero when it ended
    # before reporting every declared metric.
    print(json.dumps(res, separators=(",", ":")))
    if not declares_metrics(res, args.trace):
        print("perfbench: the result does not report the metrics of BENCHMARK.json", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
