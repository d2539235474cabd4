#!/usr/bin/env python3
"""PrivHP end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the `privhp` CLI and
the benchmark tool from source into $CARGO_TARGET_DIR (default
.bench_build); later runs rebuild incrementally. Inputs are generated
from --seed into the same directory.

Every workload runs the whole user path, so every end-to-end metric is
measured on every workload; the workloads differ in input shape, artifact
and traffic, which decides the layer that dominates. A run generates a
CSV, then spends 60% of --seconds on a batch phase and most of the
rest on one serve stage:

  batch phase: cycles of `privhp build --threads 1` and `--threads
    nproc-1` (byte-identical; the sharded build adds a reader thread),
    `privhp sample` of n points to CSV and, on csv-roundtrip, `privhp
    sample --m 1`; then `privhp pack`, and after the serve stage the
    exact 1-d W1 against the input (a check). Each batch metric is the
    median over the cycles, so a stall of the shared host moves a few
    values, not the median.
  serve stage (perfbench_tool serve): `privhp serve` launched several
    times to its first PING reply; then three open-loop readers (RANGE,
    and QUANTILE on 1-d artifacts) at a fixed rate, alone and then beside
    one paced closed-loop SAMPLE or INGEST client; then SAMPLE streams
    alone and INGESTs alone. Every reply is checked against an in-process
    answer. SAMPLE and INGEST are gated as points per second of server
    CPU time, which the host's steal time does not inflate; wall-clock
    read latency and throughput are printed beside them (info.*) but not
    gated.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of the in-process traced run
(perfbench_tool trace), whose spans are written to
$CARGO_TARGET_DIR/run/<workload>/trace.json. Metric names and units come
from BENCHMARK.json. Exits non-zero when an output check fails (the result
line then says "correct": false), and without a result line when the
build or a step fails or the repository is not there.
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

NPROC = os.cpu_count() or 1
# The sharded build runs one reader thread beside its shard threads, so
# this many shards fill the machine's cores without oversubscribing them.
BUILD_THREADS = max(NPROC - 1, 2)
# The synthetic CSV's exact 1-d W1 to the input must stay under this share
# of the input's W1 to the uniform law.
W1_SHARE = 0.05
# Shares of --seconds: the batch phase, then the serve stage's reads
# alone, reads beside the closed-loop worker, and each kind of worker
# operation alone. The batch phase runs whole cycles, at least MIN_CYCLES.
BATCH_SHARE = 0.6
READS_SHARE = 0.05
BESIDE_SHARE = 0.07
ALONE_SHARE = 0.06
MIN_CYCLES = 3

# Per workload: input shape (dim, n), plan k, how the paged file is served
# (mmap, pool = under a memory budget below the file size, heap = the
# tree file), the fixed read rate, and the closed-loop client beside the
# reads (SAMPLE streams, or INGEST republishing the read artifact).
# setup_s is the serve launch to its first PING, except where
# cold_start is "sample": there it is `privhp sample --m 1`. Inputs are
# small enough that each batch step takes a few tenths of a second, so a
# run times each one many times.
WORKLOADS = {
    "csv-roundtrip": dict(dim=1, n=250_000, k=32, serve="mmap",
                          rate=10000, worker="sample", cold_start="sample"),
    "serve-reads": dict(dim=1, n=150_000, k=256, serve="pool",
                        budget_mb=2, rate=1000, worker="sample"),
    "serve-mixed": dict(dim=2, n=100_000, k=512, serve="heap", rate=4000,
                        worker="ingest"),
}

# Batch wall-time lists and the end-to-end throughput each gives.
THROUGHPUT_OF = {"build_s": "build_mpts_s",
                 "build_threads_s": "build_threads_mpts_s",
                 "sample_s": "sample_mpts_s"}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Runner:
    """Runs subprocesses, keeping wall time and peak RSS (wait4) of each."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.processes = []  # (label, wall_s, peak_rss_mib)
        self.cli_steps = 0  # privhp CLI runs, counted in `attempted`

    def run(self, label, args, stdout=subprocess.DEVNULL, cli=True):
        err_path = os.path.join(self.out_dir, "stderr.log")
        with open(err_path, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=stdout, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss = usage.ru_maxrss / 1024.0
        self.processes.append((label, wall, rss))
        self.cli_steps += cli
        if proc.returncode != 0:
            raise BenchError(f"{label} exited with {proc.returncode}; "
                             f"see {err_path}")
        return wall, rss

    def tool(self, label, args):
        """Runs perfbench_tool; returns its parsed last stdout line."""
        out_path = os.path.join(self.out_dir, "tool.out")
        with open(out_path, "wb") as out:
            self.run(label, args, stdout=out, cli=False)
        with open(out_path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            raise BenchError(f"{label} printed no result")
        return json.loads(lines[-1])


def build(root, target):
    """Configures and builds privhp + perfbench_tool; returns their paths."""
    build_dir = os.path.join(target, "cmake")
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(target, "build.log")
    with open(build_log, "ab") as out:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                            "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=out, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", str(NPROC),
                        "--target", "privhp_cli", "perfbench_tool"],
                       stdout=out, stderr=out, check=True)
    return (os.path.join(build_dir, "privhp", "privhp"),
            os.path.join(build_dir, "perfbench_tool"))


def steal_ticks():
    """(steal, all) CPU ticks of this machine since boot, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
    except OSError:
        return 0, 1
    return ticks[7], sum(ticks)


def batch_cycle(r, w, privhp, files, checks, out):
    """One cycle of the offline user path; appends its timings to out."""
    n, dim = w["n"], str(w["dim"])
    # The plan seed (DP noise, sketch hashing) is privhp's default, as in
    # the tool's INGEST and traced builds.
    common = ["--in", files["data"], "--dim", dim, "--epsilon", "1", "--k",
              str(w["k"])]
    wall, peak = r.run("privhp build --threads 1",
                       [privhp, "build", *common, "--threads", "1",
                        "--out", files["tree"]])
    out["build_s"].append(wall)
    out["build_peak_rss_mib"].append(peak)
    wall, peak = r.run(f"privhp build --threads {BUILD_THREADS}",
                       [privhp, "build", *common, "--threads",
                        str(BUILD_THREADS),
                        "--out", files["tree_n"]])
    out["build_threads_s"].append(wall)
    out["build_peak_rss_mib"].append(peak)
    if not filecmp.cmp(files["tree"], files["tree_n"], shallow=False):
        checks.append(f"--threads 1 and --threads {BUILD_THREADS} artifacts "
                      "differ")
    out["sample_s"].append(r.run(
        "privhp sample",
        [privhp, "sample", "--tree", files["tree"], "--dim", dim,
         "--m", str(n), "--seed", "1", "--out", files["synth"]])[0])
    if w.get("cold_start") == "sample":
        # Cold start of the batch user: load the artifact, emit one point.
        out["setup_s"].append(r.run(
            "privhp sample --m 1",
            [privhp, "sample", "--tree", files["tree"], "--dim", dim,
             "--m", "1", "--out", files["one"]])[0])


def run_workload(name, seed, seconds, trace, root, target):
    w = WORKLOADS[name]
    privhp, tool = build(root, target)
    work = os.path.join(target, "run", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    r = Runner(work)
    files = {key: os.path.join(work, base) for key, base in (
        ("data", "input.csv"), ("tree", "t1.tree"), ("tree_n", "tn.tree"),
        ("paged", "art.phx"), ("synth", "synth.csv"), ("one", "one.csv"),
        ("serve_log", "serve.log"))}
    # A unix socket path must stay short, so it is given relative to the
    # checkout root (the tool and the server both run from there).
    socket = os.path.relpath(os.path.join(work, "serve.sock"), root)
    gen = r.tool("perfbench_tool gen",
                 [tool, "gen", "--dim", str(w["dim"]), "--n", str(w["n"]),
                  "--seed", str(seed), "--out", files["data"]])
    # Flags the serve stage shares between `perfbench_tool serve` and the
    # traced run.
    serve_flags = ["--input", files["data"], "--dim", str(w["dim"]),
                   "--k", str(w["k"]), "--socket", socket,
                   "--rate", str(w["rate"]), "--seed", str(seed),
                   "--worker", w["worker"]]

    if trace:
        result = r.tool("perfbench_tool trace", [
            tool, "trace", "--workload", name, "--dir", work,
            "--threads", str(BUILD_THREADS), "--serve", w["serve"],
            "--reads-seconds", str(max(1.0, seconds * 0.05)),
            "--beside-seconds", str(max(1.0, seconds * 0.05)),
            "--alone-seconds", "0",
            "--trace-out", os.path.join(work, "trace.json"), *serve_flags])
        return result, r.processes, "per_layer"

    # Batch phase: whole cycles while one more still ends within its
    # share of --seconds. Every metric is the median of many timed steps,
    # so a stall of the shared host moves a few values, not the median.
    checks = []
    batch = {key: [] for key in ("build_s", "build_threads_s", "sample_s",
                                 "build_peak_rss_mib", "setup_s")}
    steal0, all0 = steal_ticks()
    start = time.perf_counter()
    cycle_s = 0.0
    while len(batch["build_s"]) < MIN_CYCLES or \
            time.perf_counter() - start + cycle_s <= BATCH_SHARE * seconds:
        cycle_start = time.perf_counter()
        # Write back the files the last steps wrote before the next timed
        # step, so the kernel's writeback does not run beside it.
        os.sync()
        batch_cycle(r, w, privhp, files, checks, batch)
        cycle_s = time.perf_counter() - cycle_start
    r.run("privhp pack", [privhp, "pack", "--tree", files["tree"],
                          "--out", files["paged"]])
    os.sync()

    # Serve stage: `privhp serve` launched to its first PING reply, then
    # loaded and checked by perfbench_tool serve.
    args = [tool, "serve", "--privhp", privhp,
            "--file", files["tree" if w["serve"] == "heap" else "paged"],
            "--tree", files["tree"], "--log", files["serve_log"],
            "--reads-seconds", str(READS_SHARE * seconds),
            "--beside-seconds", str(BESIDE_SHARE * seconds),
            "--alone-seconds", str(ALONE_SHARE * seconds), *serve_flags]
    if "budget_mb" in w:
        args += ["--budget-mb", str(w["budget_mb"])]
    served = r.tool("perfbench_tool serve", args)
    steal1, all1 = steal_ticks()
    checks += served["check_failures"]
    for note in served["notes"]:
        log("serve: " + note)

    metrics = dict(served["metrics"])
    if batch["setup_s"]:
        metrics["info.serve_setup_s"] = metrics.pop("setup_s")
        metrics["setup_s"] = statistics.median(batch["setup_s"])
    metrics["info.steal_share"] = (steal1 - steal0) / max(all1 - all0, 1)
    metrics["info.batch_cycles"] = len(batch["build_s"])
    # Batch wall times become input points per second; build peak RSS is
    # the highest of any build (it does not vary).
    for key, name in THROUGHPUT_OF.items():
        metrics[name] = w["n"] / statistics.median(batch[key]) / 1e6
    metrics["build_peak_rss_mib"] = max(batch["build_peak_rss_mib"])
    quality = r.tool("perfbench_tool w1",
                     [tool, "w1", "--a", files["data"], "--b", files["synth"],
                      "--dim", str(w["dim"])])
    metrics["info.w1"] = quality["metrics"]["w1"]
    metrics["info.w1_uniform"] = gen["metrics"]["w1_uniform"]
    if quality["metrics"]["rows_b"] != w["n"]:
        checks.append("synthetic CSV has %d rows, expected %d"
                      % (quality["metrics"]["rows_b"], w["n"]))
    # Utility check: far closer to the input than the uniform law is.
    if not metrics["info.w1"] < W1_SHARE * gen["metrics"]["w1_uniform"]:
        checks.append("w1 %.6g is not under %g x W1-to-uniform %.6g"
                      % (metrics["info.w1"], W1_SHARE,
                         gen["metrics"]["w1_uniform"]))
    processes = r.processes + [
        ("privhp serve (last launch, loaded)", None,
         served["metrics"]["info.serve_stage_peak_rss_mib"])]
    return {"correct": not checks, "check_failures": checks,
            "attempted": r.cli_steps + served["attempted"],
            "failed": served["failed"], "metrics": metrics}, processes, \
        "end_to_end"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "CMakeLists.txt", "src",
                   "tools/privhp_cli.cc", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            log(f"run.py: {needed} not found; run from the repository root")
            return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        result, processes, kind = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), root,
            target)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"run.py: {e}")
        return 1

    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace} nproc {NPROC}")
    print("subprocesses: runs, median wall, highest peak RSS")
    by_label = {}
    for label, wall, rss in processes:
        by_label.setdefault(label, []).append((wall, rss))
    for label, runs in by_label.items():
        walls = [wall for wall, _ in runs if wall is not None]
        wall = f"{statistics.median(walls):.3f}" if walls else "-"
        print(f"  {label:<34} {len(runs):4d} {wall:>9} s "
              f"{max(rss for _, rss in runs):9.1f} MiB")
    for note in result.get("notes", []):
        print(f"note: {note}")
    metrics = result["metrics"]
    for key in sorted(metrics):
        value = metrics[key]
        value = "null" if value is None else f"{value:.6g}"
        print(f"  {key:<34} {value} {wanted.get(key, '')}")
    failures = list(result.get("check_failures", []))
    missing = [k for k in wanted if metrics.get(k) is None]
    if missing:
        failures.append(f"missing metrics: {missing}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    correct = not failures and bool(result.get("correct", False))
    out = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": metrics.get(k), "unit": u}
                    for k, u in wanted.items()},
    }
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
