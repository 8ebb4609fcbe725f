#!/usr/bin/env python3
"""Repository benchmark: build the program from source, run one workload, check
its outputs and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all ...   # every workload in turn

Workloads and metrics are declared in BENCHMARK.json at the repository root.
The program (src/main/scala) and the harness (perfbench/src) are compiled
together by sbt, offline, into .bench_build/; the build is reused while the
sources are unchanged. Each run starts one JVM. With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer metrics. Every metric is
printed as "name value unit", and the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Full results,
with run metadata, go to .bench_build/results/ and spans to .bench_build/traces/.
"""
import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
HEAP = "2g"

# Module openings Spark needs on Java 17 (what spark-submit passes).
JAVA_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    """Hash of every file the build reads from this checkout."""
    h = hashlib.sha256(ROOT.encode())
    roots = [PROGRAM_SRC, os.path.join(HERE, "src"),
             os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        paths = [r] if os.path.isfile(r) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(r) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_bounded(cmd, cwd, env, timeout, stdout):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout:.0f} s", 3)
    return proc.returncode, out


def spark_home():
    """SPARK_HOME, else the Spark distribution whose bin/ directory is on PATH."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        home = os.path.dirname(os.path.abspath(d))
        if glob.glob(os.path.join(home, "jars", "spark-core_*.jar")):
            return home
    fail("Spark not found: set SPARK_HOME or put Spark's bin directory on PATH")


def build():
    """Compiles program + harness with sbt (offline) unless already built."""
    stamp = source_stamp()
    info_path = os.path.join(BUILD, "build.json")
    if os.path.exists(info_path):
        with open(info_path) as fh:
            info = json.load(fh)
        if info.get("stamp") == stamp:
            return info["classpath"]
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    env["COURSIER_MODE"] = "offline"
    sbt_opts = ["-Dsbt.offline=true", "-Dsbt.server.autostart=false", "-Xmx2g"]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.exists(repos):
        sbt_opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join(sbt_opts)
    print("perfbench: building program and harness (sbt, offline)", file=sys.stderr)
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        HERE, env, BUILD_TIMEOUT_S, subprocess.PIPE)
    lines = [l.strip() for l in (out or "").splitlines()]
    cps = [l for l in lines if ".bench_build" in l and os.pathsep in l and not l.startswith("[")]
    if code != 0 or not cps:
        sys.stderr.write(out or "")
        fail(f"build failed (sbt exit {code})", 4)
    os.makedirs(BUILD, exist_ok=True)
    with open(info_path, "w") as fh:
        json.dump({"stamp": stamp, "classpath": cps[-1]}, fh)
    return cps[-1]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(spec, classpath, workload, seed, seconds, trace, deadline):
    results = os.path.join(BUILD, "results")
    traces = os.path.join(BUILD, "traces")
    tag = f"{workload}-seed{seed}-trace{trace}"
    tmp = os.path.join(BUILD, "tmp", f"{tag}-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    for d in (results, traces, tmp):
        os.makedirs(d, exist_ok=True)
    out = os.path.join(results, tag + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+IgnoreUnrecognizedVMOptions",
            f"-Djava.io.tmpdir={tmp}", "-Dio.netty.tryReflectionSetAccessible=true"]
           + [f"--add-opens={m}=ALL-UNNAMED" for m in JAVA_OPENS]
           + ["-cp", classpath, "perfbench.Main", "--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(trace), "--out", out,
              "--local-dir", tmp])
    if trace:
        cmd += ["--spans", os.path.join(traces, tag + ".json")]
    timeout = max(10.0, deadline - time.monotonic())
    # The JVM's own standard output goes to stderr: stdout carries only metrics.
    code, _ = run_bounded(cmd, ROOT, dict(os.environ), timeout, sys.stderr)
    shutil.rmtree(tmp, ignore_errors=True)
    if code != 0 or not os.path.exists(out):
        fail(f"{workload}: benchmark JVM exited with {code}", 5)
    with open(out) as fh:
        res = json.load(fh)
    res["meta"]["git_sha"] = git_sha()
    with open(out, "w") as fh:
        json.dump(res, fh, indent=1)

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        v = res["metrics"].get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"{workload}: metric {m['name']} missing or not finite", 6)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    correct = res["failed"] == 0 and not res["problems"]
    meta = res["meta"]
    print(f"# {workload} seed={seed} trace={trace} git={meta['git_sha'][:12]} "
          f"nproc={meta['nproc']} master={meta['spark_master']} "
          f"defaultParallelism={meta['spark_default_parallelism']} scale={meta['scale']} "
          f"xmx_mb={meta['xmx_mb']:.0f} passes={res['passes']}")
    for name, m in metrics.items():
        print(f"{workload}.{name} {m['value']:.6g} {m['unit']}")
    if not trace:
        print(f"{workload}.fail_frac {res['metrics']['fail_frac']:.6g} 1 "
              f"({res['failed']} of {res['attempted']} jobs)")
        print(f"{workload}.job_samples {res['job_samples']} count")
    else:
        r = res["metrics"]
        print(f"{workload}: layer self times {r['trace.layers_self_s']:.4f} s"
              f" + uncovered {r['trace.uncovered_s']:.4f} s"
              f" = traced wall {r['trace.wall_s']:.4f} s (add up: {res['self_times_add_up']});"
              f" tracing overhead {r['trace.overhead_s']:.4f} s over untraced {r['trace.untraced_wall_s']:.4f} s")
        for p in res.get("replay_mismatches", []):
            print(f"{workload}: replay mismatch: {p}")
    for p in res["problems"]:
        print(f"{workload}: FAILED CHECK: {p}")
    return correct, res["attempted"], res["failed"], metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isdir(PROGRAM_SRC):
        fail(f"program sources not found at {os.path.relpath(PROGRAM_SRC, os.getcwd())}")
    if not os.path.isfile(SPEC):
        fail("BENCHMARK.json not found at the repository root")
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in todo):
        fail(f"unknown workload {args.workload}; known: {', '.join(names)}, all")
    if shutil.which("java") is None:
        fail("java is not on PATH")

    classpath = build()
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in todo:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        c, a, f, m = run_workload(spec, classpath, w, args.seed, args.seconds, args.trace, deadline)
        correct, attempted, failed = correct and c, attempted + a, failed + f
        metrics.update(m if len(todo) == 1 else {f"{w}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
