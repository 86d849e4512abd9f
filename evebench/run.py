"""Run one workload of the EVE benchmark.

    python3 evebench/run.py --workload dense-wn-k6 --seed 1 --seconds 10 --trace 0

Builds the benchmark if its sources changed (see build.py), then forks one
JVM with the module opens Spark needs on JDK 17 and runs the workload there.
The JVM prints the run's parameters, every metric with its unit, and as the
last line of stdout a JSON object with `correct`, `attempted`, `failed` and
`metrics`. The exit code is the JVM's: 0 when every answer was correct.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import build  # noqa: E402

WORKLOADS = ["sparse-tw-k4", "disteve-gg-k5", "dense-wn-k6"]
# A run must end within 180 s; the JVM is stopped a little before that.
RUN_LIMIT_S = 170

# Opens that spark-submit's launcher would add on JDK 17 (GraphX's Kryo path
# reflects into java.nio and friends).
MODULE_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(build.ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()
    if a.seconds < 1:
        p.error("--seconds must be at least 1")

    try:
        classes = build.build()
        spark_cp = build.classpath()
    except build.BuildFailed as e:
        print(f"[evebench] build failed: {e}", file=sys.stderr)
        return 2

    state = build.BUILD_DIR / "state"
    tmp = state / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # JVM defaults for heap, collector and JIT, as in the root build's forked
    # run; set-up is timed from here, after the build.
    cmd = (["java", "-XX:CompileCommand=quiet", "-XX:CompileCommand=dontinline,scala.Array$::fill", f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={build.BENCH_DIR / 'log4j2.properties'}"]
           + [f"--add-opens={m}=ALL-UNNAMED" for m in MODULE_OPENS]
           + ["-cp", f"{classes}{os.pathsep}{spark_cp}", "evebench.Main",
              "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--trace", str(a.trace), "--state-dir", str(state),
              "--commit", git_commit(), "--source-digest", build.digest(build.sources()),
              "--start-epoch-ns", str(time.time_ns())])
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(state / "spark-local"))
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"[evebench] run exceeded {RUN_LIMIT_S} s and was stopped", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
