"""Build file of the EVE benchmark.

Compiles the program's packages that the benchmark drives (repro.core,
repro.data, repro.distributed, repro.baselines) together with the benchmark's
own Scala sources into one class directory, with the Scala compiler and the
jars of the Spark distribution. No sbt is involved, so nothing outside the
checkout is written. A build is reused while the digest of its sources is
unchanged.

    python3 evebench/build.py      # prints the class directory
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "evebench"
PROGRAM_PACKAGES = ["core", "data", "distributed", "baselines"]


class BuildFailed(Exception):
    pass


def spark_home() -> Path:
    """The Spark distribution: $SPARK_HOME, else the one spark-submit is in."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            raise BuildFailed("SPARK_HOME is unset and spark-submit is not on PATH")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not any(jars.glob("scala-compiler-*.jar")):
        raise BuildFailed(f"no Scala compiler among the Spark jars in {jars}")
    return Path(home)


def classpath() -> str:
    return str(spark_home() / "jars" / "*")


def sources() -> list:
    program = ROOT / "src" / "main" / "scala" / "repro"
    found = []
    for pkg in PROGRAM_PACKAGES:
        d = program / pkg
        if not d.is_dir():
            raise BuildFailed(f"program package missing: {d.relative_to(ROOT)}")
        found += sorted(d.rglob("*.scala"))
    found += sorted((BENCH_DIR / "src").rglob("*.scala"))
    return found


def digest(files) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def build() -> Path:
    """Compile if the sources changed; return the class directory."""
    files = sources()
    stamp = digest(files)
    classes = BUILD_DIR / "classes"
    stamp_file = BUILD_DIR / "classes.sha256"
    if classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return classes
    staging = BUILD_DIR / "classes.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    cp = classpath()
    cmd = ["java", "-Xss4m", "-Xmx1g", "-cp", cp, "scala.tools.nsc.Main",
           "-nowarn", "-classpath", cp, "-d", str(staging)] + [str(f) for f in files]
    print(f"[evebench] compiling {len(files)} sources", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BuildFailed(f"scalac failed with exit code {proc.returncode}")
    shutil.rmtree(classes, ignore_errors=True)
    staging.rename(classes)
    stamp_file.write_text(stamp)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildFailed as e:
        print(f"[evebench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
