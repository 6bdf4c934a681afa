"""Build of the benchmark package.

Compiles the codec packages the benchmark measures (``src/main/scala/repro``:
core, coding, sparkio, data, metrics) together with the benchmark's own Scala
sources into one class directory under ``.bench_build/perfbench`` of the
checkout. The Scala 2.13 compiler and every runtime dependency (Spark,
zstd-jni) come from the Spark distribution's ``$SPARK_HOME/jars``, so nothing
is resolved from a repository. A build is reused while the fingerprint of its
sources is unchanged.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala", "repro")
PROGRAM_PACKAGES = ["core", "coding", "sparkio", "data", "metrics"]
BENCH_SRC = os.path.join(HERE, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
COMPILE_TIMEOUT_S = 600


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        raise BuildError("SPARK_HOME is not set")
    jars = os.path.join(home, "jars")
    if not os.path.isdir(jars):
        raise BuildError("no jars directory under SPARK_HOME")
    return jars


def _jar(jars, prefix):
    found = sorted(glob.glob(os.path.join(jars, prefix + "-2.13.*.jar")))
    if not found:
        raise BuildError("missing %s in the Spark distribution" % prefix)
    return found[-1]


def sources():
    files = []
    for pkg in PROGRAM_PACKAGES:
        d = os.path.join(PROGRAM_SRC, pkg)
        if not os.path.isdir(d):
            raise BuildError("program sources not found: src/main/scala/repro/" + pkg)
        files += glob.glob(os.path.join(d, "**", "*.scala"), recursive=True)
    files += glob.glob(os.path.join(BENCH_SRC, "**", "*.scala"), recursive=True)
    return sorted(files)


def fingerprint(files, compiler):
    h = hashlib.sha256(os.path.basename(compiler).encode())
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def build():
    """Return the class directory for the current sources, compiling if needed."""
    jars = spark_jars()
    compiler = _jar(jars, "scala-compiler")
    files = sources()
    classes = os.path.join(OUT, "classes-" + fingerprint(files, compiler))
    if os.path.isfile(os.path.join(classes, ".complete")):
        return classes
    os.makedirs(OUT, exist_ok=True)
    for old in glob.glob(os.path.join(OUT, "classes-*")):
        shutil.rmtree(old, ignore_errors=True)
    tmp = classes + ".tmp"
    os.makedirs(tmp)
    compiler_cp = os.pathsep.join([compiler, _jar(jars, "scala-library"), _jar(jars, "scala-reflect")])
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", compiler_cp,
           "scala.tools.nsc.Main", "-usejavacp", "-deprecation", "-nowarn",
           "-classpath", os.path.join(jars, "*"), "-d", tmp] + files
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=COMPILE_TIMEOUT_S)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("compilation failed")
    open(os.path.join(tmp, ".complete"), "w").close()
    os.rename(tmp, classes)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit("build failed: %s" % e)
