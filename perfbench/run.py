#!/usr/bin/env python3
"""Runs one workload of the interactive-loop benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the program and the
benchmark from source with sbt (offline); later runs reuse that build while
no source file has changed. The benchmark JVM prints notes and, as the last
line of standard output, one JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
LAUNCH = os.path.join(TARGET, "launch.txt")
STAMP = os.path.join(TARGET, "sources.sha256")

# Files the build reads: the program's build and sources, and the benchmark's.
SOURCE_ROOTS = [
    (ROOT, ["build.sbt"]),
    (os.path.join(ROOT, "project"), None),
    (os.path.join(ROOT, "src", "main"), None),
    (os.path.join(ROOT, "jobs"), None),
    (HERE, ["build.sbt"]),
    (os.path.join(HERE, "project"), None),
    (os.path.join(HERE, "src", "main"), None),
]
SOURCE_SUFFIXES = (".scala", ".sbt", ".properties", ".java")

HEAP = "3g"
RUN_TIMEOUT_S = 170


def source_files():
    files = []
    for base, names in SOURCE_ROOTS:
        if names is not None:
            files += [os.path.join(base, n) for n in names]
            continue
        for d, subdirs, fs in os.walk(base):
            subdirs[:] = sorted(s for s in subdirs if s not in ("target", "project"))
            files += [os.path.join(d, f) for f in sorted(fs) if f.endswith(SOURCE_SUFFIXES)]
    return files


def fingerprint():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Builds with sbt unless the last build saw the same sources."""
    if not os.path.isfile(os.path.join(ROOT, "build.sbt")):
        sys.exit("perfbench: no program to build (build.sbt missing at the repository root)")
    digest = fingerprint()
    if os.path.isfile(LAUNCH) and os.path.isfile(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == digest:
                return
    env = dict(os.environ, COURSIER_MODE="offline")
    opts = env.get("SBT_OPTS", "")
    for flag in ("-Dsbt.offline=true", "-Dsbt.override.build.repos=true", "-Dsbt.server.autostart=false"):
        if flag.split("=")[0] not in opts:
            opts += " " + flag
    env["SBT_OPTS"] = opts.strip()
    cmd = ["sbt", "-batch", "-Dsbt.log.noformat=true", "writeLaunch"]
    r = subprocess.run(cmd, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(LAUNCH):
        sys.exit(f"perfbench: build failed (sbt exit code {r.returncode})")
    with open(STAMP, "w") as fh:
        fh.write(digest + "\n")


def main():
    args = sys.argv[1:]
    build()
    with open(LAUNCH) as fh:
        lines = fh.read().splitlines()
    classpath, jvm_opts = lines[0], [l for l in lines[1:] if l]
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=tmp)
    cmd = (["java", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}"] + jvm_opts
           + ["-cp", classpath, "repro.perfbench.Main"] + args)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit(f"perfbench: benchmark exited with code {proc.returncode}")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
