#!/usr/bin/env python3
"""End-to-end benchmark of NVMExplorer.

Builds perfbench/ (the nvmexp library plus the nvmexp_perfbench binary)
in Release mode, then runs the three pipelines -- sweep_store,
shipped_configs and serve_query -- each in its own process, and prints
every metric with its unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. Every pipeline is measured for
--seconds, so that every run reports every end-to-end metric; the
named workload's pipeline runs first and alone supplies setup_s and
peak_rss_mb. --trace 1 replaces the timing run with a traced run that
reports the per-layer metrics and writes Chrome trace-event JSON under
.bench_out/.

Every store and campaign lives in a fresh directory under .bench_tmp/
that is removed at exit; an inherited NVMEXP_STORE_DIR is ignored.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time

BENCH_DIR = "perfbench"
PIPELINES = ("sweep_store", "shipped_configs", "serve_query")
CHILD_TIMEOUT_S = 150
# Set-ups behind the median that setup_s reports.
SETUPS = 5
# Each pipeline reports its workload parameters as facts named
# <prefix>.<param>.
FACT_PREFIX = {"sweep_store": "sweep", "shipped_configs": "shipped",
               "serve_query": "serve"}
# Facts every pipeline reports about the build; shown once, as host
# context.
BUILD_FACTS = ("build_type", "ndebug", "cxx_flags", "compiler", "jobs")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def cpu_ranges(cpus):
    """Condense a CPU set to "0-3,6" form."""
    cpus = sorted(cpus)
    parts, start = [], None
    for i, cpu in enumerate(cpus):
        if start is None:
            start = cpu
        if i + 1 == len(cpus) or cpus[i + 1] != cpu + 1:
            parts.append(str(start) if start == cpu else f"{start}-{cpu}")
            start = None
    return ",".join(parts)


def source_digest(root):
    """SHA-256 over the sources the benchmark builds and reads."""
    digest = hashlib.sha256()
    for top in ("src", "config", BENCH_DIR):
        for base, dirs, files in os.walk(os.path.join(root, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit_of(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def host_context(root, args, rate, build):
    """Where and how this result was measured, HPCAT-style."""
    nodes = []
    node_root = "/sys/devices/system/node"
    if os.path.isdir(node_root):
        for name in sorted(os.listdir(node_root)):
            if name.startswith("node") and name[4:].isdigit():
                try:
                    with open(os.path.join(node_root, name, "cpulist"),
                              encoding="utf-8") as handle:
                        nodes.append(f"{name}:{handle.read().strip()}")
                except OSError:
                    nodes.append(name)
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    context = {
        "nproc": str(os.cpu_count()),
        "affinity": cpu_ranges(os.sched_getaffinity(0)),
        "numa_nodes": " ".join(nodes) or "unknown",
        "cpu_model": model,
        "kernel": platform.release(),
        "build_type": build.get("build_type", "unknown"),
        "ndebug": build.get("ndebug", "unknown"),
        "cxx_flags": build.get("cxx_flags", "").strip(),
        "compiler": build.get("compiler", "unknown"),
        "commit": commit_of(root),
        "source_digest": source_digest(root),
        "workload": args.workload,
        "seed": str(args.seed),
        "seconds": str(args.seconds),
        "trace": str(args.trace),
        "jobs": build.get("jobs", "unknown"),
        "rate_rps": str(rate),
        "timer": "std::chrono::steady_clock (no google-benchmark timing)",
    }
    flags = []
    if context["build_type"] != "Release" or context["ndebug"] != "1":
        flags.append("library is not a Release/NDEBUG build: timings "
                     "are not comparable")
    if os.environ.get("NVMEXP_STORE_DIR"):
        flags.append("inherited NVMEXP_STORE_DIR ignored")
    context["flags"] = "; ".join(flags) or "none"
    return context


def build(root):
    """Configure and build nvmexp_perfbench; returns its path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, BENCH_DIR)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [
        ["cmake", "-S", os.path.join(root, BENCH_DIR), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "nvmexp_perfbench"],
    ]
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  check=False).returncode
            if code != 0:
                with open(log_path, encoding="utf-8") as handle:
                    sys.stderr.write(handle.read()[-4000:])
                fail(f"build failed: {' '.join(step)}")
    # Flush the build's output now: its writeback would otherwise land
    # in the middle of the first measurement.
    os.sync()
    return os.path.join(build_dir, "nvmexp_perfbench")


# The pipeline process running now, so a signal can stop it.
RUNNING = []


def kill_group(proc):
    """Kill a pipeline process and the campaign workers it forked."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd, env):
    """Run one pipeline process; returns (result dict or None, exit
    code, peak RSS in MB, human-readable output)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    RUNNING.append(proc)
    timer = threading.Timer(CHILD_TIMEOUT_S, kill_group, (proc,))
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4, not wait: its rusage carries this child's peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        RUNNING.remove(proc)
    lines = out.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    human = "\n".join(lines[:-1]) if result is not None else out
    # ru_maxrss is in KiB on Linux.
    return result, proc.returncode, usage.ru_maxrss / 1024.0, human


def child_command(binary, root, tmp, out_dir, pipeline, seed, seconds,
                  trace, rate, setups, corrupt=False):
    cmd = [binary, "--pipeline", pipeline, "--seed", str(seed),
           "--seconds", f"{seconds:.3f}", "--trace", str(trace),
           "--root", root,
           "--tmp", os.path.join(tmp, pipeline), "--setups", str(setups)]
    if pipeline == "serve_query":
        cmd += ["--rate", str(rate)]
    if trace:
        cmd += ["--trace-out", os.path.join(out_dir, pipeline + ".trace.json")]
    if corrupt:
        cmd.append("--corrupt")
    return cmd


def same_value(want, got):
    if isinstance(want, str):
        return got == want
    try:
        return float(got) == want
    except ValueError:
        return False


def check_params(spec, result):
    """Fail unless every numeric or list parameter of workloads.json
    equals what the pipeline reports it ran; string parameters are
    descriptions."""
    pipeline = result["pipeline"]
    facts = result["facts"]
    for workload in spec["workloads"].values():
        if workload["pipeline"] != pipeline:
            continue
        for param, want in workload["params"].items():
            if isinstance(want, str):
                continue
            key = f"{FACT_PREFIX[pipeline]}.{param}"
            got = facts.get(key)
            wants = want if isinstance(want, list) else [want]
            gots = [] if got is None else got.split(",")
            if len(wants) != len(gots) or not all(
                    map(same_value, wants, gots)):
                fail(f"workloads.json says {pipeline} {param} = {want!r}, "
                     f"but the pipeline reports {key} = {got!r}")


def print_table(title, rows):
    print(title)
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        print(f"  {key:<{width}}  {value}")


class ScratchDir:
    """A fresh directory under .bench_tmp/, removed at exit and on
    SIGTERM/SIGINT."""

    def __init__(self, root):
        self.path = os.path.join(
            root, ".bench_tmp", f"run-{os.getpid()}-{time.time_ns()}")

    def __enter__(self):
        os.makedirs(self.path)
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, self._on_signal)
        return self.path

    def _on_signal(self, signum, _frame):
        for proc in RUNNING:
            kill_group(proc)
            proc.wait()
        self.__exit__(None, None, None)
        sys.exit(128 + signum)

    def __exit__(self, *_):
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        try:
            os.rmdir(parent)
        except OSError:
            pass


def self_test(root, spec):
    """Each pipeline must pass clean and fail with one flipped byte."""
    binary = build(root)
    env = dict(os.environ)
    env.pop("NVMEXP_STORE_DIR", None)
    rate = spec["workloads"]["serve_query"]["params"]["rate_rps"]
    ok = True
    with ScratchDir(root) as tmp:
        for pipeline in PIPELINES:
            for corrupt in (False, True):
                cmd = child_command(binary, root, tmp, tmp, pipeline, 1, 0.5,
                                    0, rate, setups=1, corrupt=corrupt)
                result, code, _, _ = run_child(cmd, env)
                passed = result is not None and result["correct"] and code == 0
                expected = not corrupt
                verdict = "ok" if passed == expected else "WRONG"
                ok = ok and passed == expected
                print(f"{pipeline:<16} corrupt={int(corrupt)} "
                      f"exit={code} correct={passed} -> {verdict}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "config", "BENCHMARK.json",
                   os.path.join(BENCH_DIR, "workloads.json")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the root of a full checkout: {needed} is "
                 "missing", 2)
    bench = load_json(os.path.join(root, "BENCHMARK.json"))
    spec = load_json(os.path.join(root, BENCH_DIR, "workloads.json"))
    if (set(spec["workloads"]) != {w["name"] for w in bench["workloads"]}
            or set(spec["per_layer_moves"])
            != {m["name"] for m in bench["per_layer"]}):
        fail("workloads.json and BENCHMARK.json disagree on the workloads "
             "or the per-layer metrics")
    if args.self_test:
        return self_test(root, spec)
    if args.workload not in spec["workloads"]:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(spec['workloads'])}", 2)

    binary = build(root)
    env = dict(os.environ)
    env.pop("NVMEXP_STORE_DIR", None)
    primary = spec["workloads"][args.workload]["pipeline"]
    rate = spec["workloads"]["serve_query"]["params"]["rate_rps"]
    out_dir = os.path.join(root, ".bench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)

    children = {}
    with ScratchDir(root) as tmp:
        order = [primary] + [p for p in PIPELINES if p != primary]
        for pipeline in order:
            # setup_s comes from the measured pipeline alone.
            measured = pipeline == primary
            cmd = child_command(binary, root, tmp, out_dir, pipeline,
                                args.seed, args.seconds, args.trace, rate,
                                SETUPS if measured else 1)
            result, code, rss_mb, human = run_child(cmd, env)
            # Drop this pipeline's stores and flush what it wrote, so
            # its writeback does not stall the next pipeline.
            shutil.rmtree(os.path.join(tmp, pipeline), ignore_errors=True)
            os.sync()
            if human.strip():
                print(human)
            if result is None:
                fail(f"{pipeline} exited {code} without a result")
            check_params(spec, result)
            children[pipeline] = (result, code, rss_mb)

    attempted = sum(int(r["attempted"]) for r, _, _ in children.values())
    failed = sum(int(r["failed"]) for r, _, _ in children.values())
    correct = failed == 0 and all(
        r["correct"] and code == 0 for r, code, _ in children.values())

    head, _, head_rss = children[primary]
    found = {}
    for pipeline, (result, _, _) in children.items():
        for name, metric in result["metrics"].items():
            if pipeline == primary or name not in found:
                found[name] = metric
    found["setup_s"] = head["metrics"]["setup_s"]
    found["peak_rss_mb"] = {"value": head_rss, "unit": "MB", "samples": 1}
    if args.trace:
        untraced = traced = 0.0
        for result, _, _ in children.values():
            facts = result["facts"]
            for key, value in facts.items():
                if key.startswith("trace.untraced_s."):
                    untraced += float(value)
                elif key.startswith("trace.traced_s."):
                    traced += float(value)
        found["trace.overhead_share"] = {
            "value": traced / untraced - 1.0, "unit": "share",
            "samples": len(children)}

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics, rows = {}, []
    for entry in wanted:
        name = entry["name"]
        if name not in found:
            fail(f"no value for metric {name}")
        value = found[name]["value"]
        metrics[name] = {"value": value, "unit": entry["unit"]}
        note = f"n={int(found[name].get('samples', 1))}"
        if "raw" in found[name]:
            note = f"as measured {found[name]['raw']:.6g}, " + note
        rows.append((name, f"{value:.6g} {entry['unit']}  ({note})"))

    context = host_context(root, args, rate, head["facts"])
    facts = {}
    for pipeline, (result, code, rss_mb) in children.items():
        own = {key: value for key, value in result["facts"].items()
               if key not in BUILD_FACTS}
        facts[pipeline] = dict(own, exit=str(code),
                               peak_rss_mb=f"{rss_mb:.1f}",
                               attempted=str(result["attempted"]),
                               failed=str(result["failed"]))
    print_table("host context", sorted(context.items()))
    for pipeline, pipeline_facts in facts.items():
        role = "measured" if pipeline == primary else "companion"
        print_table(f"{pipeline} ({role})", sorted(pipeline_facts.items()))
    print_table(f"metrics: workload {args.workload}, seed {args.seed}, "
                f"failed {failed}/{attempted}", rows)
    if context["flags"] != "none":
        print("WARNING: " + context["flags"], file=sys.stderr)

    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    with open(os.path.join(out_dir, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(dict(summary, context=context, pipelines=facts,
                       all_metrics=found), handle, indent=2)
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
