#!/usr/bin/env python3
"""syrwatch benchmark: drives the real `syrwatchctl` on a fixed fixture.

    python3 syrbench/run.py --workload generate|analyze \\
        --seed N --seconds S --trace 0|1

Run from the root of a syrwatch checkout. It builds syrwatch in Release
from the checkout's sources (into $CARGO_TARGET_DIR, default .bench_build),
refuses to report from any other build type, and then:

  --trace 0  sets the workload up three times (reference logs, `convert`,
             directory preparation; setup_s is their median), runs one
             untimed warm-up job, then runs jobs back to back from one
             closed-loop client (one job in flight) until S seconds have
             passed and at least MIN_TIMED_JOBS ran. Every job's output is
             checked. Metrics are medians over the timed jobs. Every
             workload reports every metric, so `generate` then runs the
             analyze script over its last log PROBE_PASSES times for the
             read-path metrics.
  --trace 1  sets up once and runs the traced in-process program once
             (syrbench_trace: the generate, sharded and analyze paths with
             spans), checks its col report against `syrwatchctl report`,
             runs the CLI queries behind cli.process_s, and reports the
             per-layer metrics.

Metric names and units come from BENCHMARK.json at the checkout's root.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics": {name: {"value", "unit"}}}. The line before it,
starting with "# env", records build type, compiler, nproc and the 1-minute
load average. Run artifacts (job records, Chrome trace, self-time table)
are kept under .bench_out/; bulky logs live in .bench_work/ only while a run
lasts.

Every workload uses the 600k-request fixture (428,033 records at seed
2011) with the seed from the command line.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)

REQUESTS = 600_000
THREADS = "4"
SETUP_REPEATS = 3
# Timed jobs run until --seconds have passed, but at least this many: the
# minimum outlasts 10 s at this commit's speed, so a run's job count (and
# with it the query sample count behind query_tail_ms) does not flip with
# small changes in machine speed. A fourth analyze job steadies the
# read-path medians but makes a run about 10 s longer.
MIN_TIMED_JOBS = 3
# Passes of the analyze script over the generate workload's own output, for
# its read-path metrics. Fewer than the timed jobs, since a pass takes more
# than twice as long as a generate job.
PROBE_PASSES = 2
RUN_DEADLINE_S = 170  # a run must end within 180 s
KEYWORDS = ["proxy", "hotspotshield", "ultrareach", "israel", "ultrasurf"]


def load_spec():
    """BENCHMARK.json: the workload names and, per metric kind
    ("end_to_end", "per_layer"), the metric names with their units."""
    path = os.path.join(REPO, "BENCHMARK.json")
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read {path}: {error}") from error
    return spec


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


# ---------------------------------------------------------------------------
# Statistics.

def tail_percentile(samples, beyond=10):
    """The highest percentile that still has at least `beyond` samples
    above it: with n sorted samples that is rank k = n - beyond, i.e. the
    k-th smallest value at percentile 100*k/n. Returns (percentile, value,
    n). With n <= beyond no rank qualifies, which is an error."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no rank with {beyond} beyond it")
    k = n - beyond
    return 100.0 * k / n, ordered[k - 1], n


def median_of_values(values):
    """Median, or NaN (reported as a failure) when nothing was measured."""
    return statistics.median(values) if values else float("nan")


def file_digest(path):
    """(crc32, newline count) of a file, streamed."""
    crc = 0
    lines = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 22)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
            lines += chunk.count(b"\n")
    return crc & 0xFFFFFFFF, lines


# ---------------------------------------------------------------------------
# Build.

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(REPO, target)
    return os.path.join(target, "syrbench-release")


def cache_value(cache, key):
    prefix = key + ":"
    for line in cache.splitlines():
        if line.startswith(prefix):
            return line.split("=", 1)[1]
    return ""


def build():
    """Configures (once) and builds the Release tree; returns the env
    record. Build output goes to stderr."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        raise BenchError(f"syrwatch sources not found under {REPO}")
    out = build_dir()
    cache_path = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache_path):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4", "--target",
                    "syrwatchctl", "syrbench_trace"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    with open(cache_path) as handle:
        cache = handle.read()
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise BenchError(f"refusing to report from a {build_type or 'default'}"
                         f" build in {out}; the benchmark needs Release")
    compiler = cache_value(cache, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        version = compiler
    return {
        "build_type": build_type,
        "compiler": version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "ctl": os.path.join(out, "tools", "syrwatchctl"),
        "trace": os.path.join(out, "syrbench_trace"),
    }


# ---------------------------------------------------------------------------
# Running CLI processes.

class Runner:
    """Spawns one process at a time and reaps it with wait4, so every
    process's wall time and ru_maxrss are known. A SIGALRM deadline kills
    the process in flight."""

    def __init__(self, ctl, work):
        self.ctl = ctl
        self.work = work
        self.peak_rss_mb = 0.0
        self.child = None
        self.stdout_path = os.path.join(work, "stdout.txt")
        self.stderr_path = os.path.join(work, "stderr.txt")

    def kill_child(self):
        """Kills the process in flight with its whole process group (the
        traced run's shard workers included) and reaps it."""
        if self.child is not None:
            try:
                os.killpg(self.child.pid, signal.SIGKILL)
                os.waitpid(self.child.pid, 0)
            except OSError:
                pass
            self.child.returncode = -signal.SIGKILL
            self.child = None

    def spawn(self, argv):
        """Returns (exit code, wall seconds, stdout bytes)."""
        with open(self.stdout_path, "wb") as out, \
                open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            self.child = subprocess.Popen(argv, stdout=out, stderr=err,
                                          cwd=self.work,
                                          start_new_session=True)
            _, status, usage = os.wait4(self.child.pid, 0)
            wall = time.perf_counter() - start
            code = os.waitstatus_to_exitcode(status)
            self.child.returncode = code
            self.child = None
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        with open(self.stdout_path, "rb") as handle:
            stdout = handle.read()
        if code != 0:
            with open(self.stderr_path, "rb") as handle:
                sys.stderr.write(f"{' '.join(argv)} exited {code}: "
                                 f"{handle.read().decode(errors='replace')}\n")
        return code, wall, stdout

    def ctl_run(self, *args):
        return self.spawn([self.ctl, *[str(a) for a in args]])


class Job:
    """One unit of closed-loop work: passes only if every command exited
    0 and every check held."""

    def __init__(self, kind):
        self.kind = kind
        self.ok = True
        self.problems = []
        self.wall = 0.0
        self.values = {}

    def expect(self, condition, what):
        if not condition:
            self.ok = False
            self.problems.append(what)
        return condition


# ---------------------------------------------------------------------------
# Workload jobs.

def generate_reference(runner, job, directory, seed, convert):
    """Reference log (csv, plus the container via `convert` when asked):
    set-up work, never part of a timed job."""
    os.makedirs(directory, exist_ok=True)
    csv = os.path.join(directory, "ref.csv")
    code, _, _ = runner.ctl_run("generate", "--out", csv, "--requests",
                                REQUESTS, "--seed", seed, "--threads",
                                THREADS)
    job.expect(code == 0, "reference generate failed")
    crc, lines = file_digest(csv) if code == 0 else (0, 0)
    if convert:
        code, _, _ = runner.ctl_run("convert", csv,
                                    os.path.join(directory, "ref.col"))
        job.expect(code == 0, "convert failed")
    return crc, lines - 1


def setup(runner, work, workload, seed, repeats):
    """Sets the workload up `repeats` times; returns (setup seconds per
    repeat, reference crc, record count, setup jobs). Only the first
    repeat's files are kept."""
    times, jobs, digests = [], [], []
    for i in range(repeats):
        job = Job("setup")
        directory = os.path.join(work, f"setup{i}")
        start = time.perf_counter()
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        digests.append(generate_reference(runner, job, directory, seed,
                                          convert=workload == "analyze"))
        times.append(time.perf_counter() - start)
        if i > 0:
            job.expect(digests[i] == digests[0],
                       "reference log differs between set-ups")
            shutil.rmtree(directory, ignore_errors=True)
        jobs.append(job)
    crc, records = digests[0]
    return times, crc, records, jobs


def generate_job(runner, work, seed, ref_crc, index):
    job = Job("generate")
    directory = os.path.join(work, f"job{index}")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    csv = os.path.join(directory, "log.csv")
    metrics = os.path.join(directory, "metrics.json")
    code, job.wall, _ = runner.ctl_run(
        "generate", "--out", csv, "--checkpoint-dir",
        os.path.join(directory, "ckpt"), "--format", "both", "--threads",
        THREADS, "--requests", REQUESTS, "--seed", seed, "--metrics",
        metrics)
    if not job.expect(code == 0, "generate failed"):
        return job, directory
    crc, lines = file_digest(csv)
    job.expect(crc == ref_crc, "log crc32 differs from the same seed's "
               "reference")
    code, _, _ = runner.ctl_run("verify", os.path.join(directory, "ckpt"))
    job.expect(code == 0, "verify of the checkpoint directory failed")
    with open(metrics) as handle:
        emitted = json.load(handle)["counters"].get("scenario.emitted")
    job.expect(lines - 1 == emitted, "record count differs from "
               "scenario.emitted")
    job.values["records"] = lines - 1
    return job, directory


def interactive_queries(col):
    queries = [
        ["top", col, "--class", "censored", "--threads", THREADS],
        ["top", col, "--class", "allowed", "--threads", THREADS],
        ["stats", col, "--threads", THREADS],
        ["users", col, "--threads", THREADS],
        ["redirects", col, "--threads", THREADS],
    ]
    queries += [["weather", col, "--keyword", k, "--threads", THREADS]
                for k in KEYWORDS]
    queries += [["inspect", col, "--threads", THREADS], ["verify", col]]
    return queries


class CsvAnswers:
    """`discover` and `top` answered on the csv log once per run — the
    reference the col answers of every job must equal byte for byte."""

    def __init__(self, runner, csv):
        self.discover = runner.ctl_run("discover", csv, "--threads",
                                       THREADS)
        self.top = {cls: runner.ctl_run("top", csv, "--class", cls,
                                        "--threads", THREADS)
                    for cls in ("censored", "allowed")}

    def ok(self):
        return self.discover[0] == 0 and all(
            r[0] == 0 for r in self.top.values())


def analyze_job(runner, csv, col, seed, records, answers):
    """The analyst's fixed query script. `answers` (csv-side `discover`
    and `top`) enables the col/csv identity checks of those two
    commands."""
    job = Job("analyze")
    start = time.perf_counter()
    code, wall, report_col = runner.ctl_run("report", col, "--seed", seed,
                                            "--threads", THREADS)
    job.expect(code == 0, "report col failed")
    job.values["report_col_s"] = wall
    code, wall, report_csv = runner.ctl_run("report", csv, "--seed", seed,
                                            "--threads", THREADS)
    job.expect(code == 0, "report csv failed")
    job.values["report_csv_s"] = wall
    job.expect(report_col == report_csv and report_col,
               "report differs between col and csv")
    code, wall, discover = runner.ctl_run("discover", col, "--threads",
                                          THREADS)
    job.expect(code == 0, "discover failed")
    job.values["discover_s"] = wall
    if answers is not None:
        job.expect(answers.ok() and discover == answers.discover[2],
                   "discover differs between col and csv")
    watch_json = os.path.join(runner.work, "watch.json")
    code, wall, _ = runner.ctl_run("watch", csv, "--once", "--json",
                                   watch_json)
    job.expect(code == 0, "watch failed")
    job.values["watch_replay_s"] = wall
    if code == 0:
        with open(watch_json) as handle:
            watched = json.load(handle)
        job.expect(sum(watched["classes"].values()) == watched["records"]
                   == records, "watch class totals do not sum to records")
    samples = []
    for query in interactive_queries(col):
        code, wall, stdout = runner.ctl_run(*query)
        job.expect(code == 0, f"{query[0]} failed")
        samples.append(wall * 1000.0)
        if query[0] == "top" and answers is not None:
            job.expect(stdout == answers.top[query[3]][2],
                       f"top --class {query[3]} differs between col and "
                       "csv")
    job.values["query_ms"] = samples
    job.wall = time.perf_counter() - start
    return job


# ---------------------------------------------------------------------------
# Trace 0: timed closed loop.

def measure(runner, work, workload, seed, seconds):
    clock = [("start", time.perf_counter())]
    setup_times, ref_crc, records, jobs = setup(runner, work, workload,
                                                seed, SETUP_REPEATS)
    clock.append(("setup", time.perf_counter()))
    ref_dir = os.path.join(work, "setup0")
    timed = []

    if workload == "analyze":
        csv = os.path.join(ref_dir, "ref.csv")
        col = os.path.join(ref_dir, "ref.col")
        answers = CsvAnswers(runner, csv)

        def one_job(_):
            return analyze_job(runner, csv, col, seed, records, answers)
    else:
        last_dir = [None]

        def one_job(index):
            job, directory = generate_job(runner, work, seed, ref_crc, index)
            if last_dir[0] is not None:
                shutil.rmtree(last_dir[0], ignore_errors=True)
            last_dir[0] = directory
            return job

    jobs.append(one_job(0))  # untimed warm-up
    clock.append(("warm-up", time.perf_counter()))
    runner.peak_rss_mb = 0.0
    start = time.perf_counter()
    index = 1
    while (index <= MIN_TIMED_JOBS
           or time.perf_counter() - start < seconds):
        job = one_job(index)
        timed.append(job)
        jobs.append(job)
        index += 1
    peak_rss_mb = runner.peak_rss_mb
    clock.append(("timed", time.perf_counter()))

    if workload == "analyze":
        probe = timed
    else:
        # The read path on this workload's own output: the analyze metrics
        # are reported by every workload, here from PROBE_PASSES passes of
        # the analyze script over the last timed job's log.
        csv = os.path.join(last_dir[0], "log.csv")
        col = os.path.join(last_dir[0], "log.col")
        probe = [analyze_job(runner, csv, col, seed, records, None)
                 for _ in range(PROBE_PASSES)]
        jobs.extend(probe)
        clock.append(("probe", time.perf_counter()))

    def median_of(key, group):
        return median_of_values([j.values[key] for j in group
                                 if key in j.values])

    if workload == "analyze":
        rates = [records / j.wall for j in timed]
    else:
        rates = [j.values["records"] / j.wall for j in timed
                 if "records" in j.values]
    queries = [ms for j in probe for ms in j.values.get("query_ms", [])]
    percentile, tail, count = (tail_percentile(queries) if queries
                               else (float("nan"),) * 3)
    failed = sum(1 for j in jobs if not j.ok)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "records_per_s": median_of_values(rates),
        "peak_rss_mb": peak_rss_mb,
        "report_col_s": median_of("report_col_s", probe),
        "report_csv_s": median_of("report_csv_s", probe),
        "discover_s": median_of("discover_s", probe),
        "watch_replay_s": median_of("watch_replay_s", probe),
        "query_p50_ms": median_of_values(queries),
        "query_tail_ms": tail,
        "success_ratio": 1.0 - failed / len(jobs),
    }
    detail = {
        "setup_s": setup_times,
        "jobs": [{"kind": j.kind, "wall_s": j.wall, "ok": j.ok,
                  "problems": j.problems,
                  **{k: v for k, v in j.values.items()}} for j in jobs],
        "timed_jobs": len(timed),
        "query_tail": {"percentile": percentile, "samples": count},
        "phase_s": {name: t - clock[i][1]
                    for i, (name, t) in enumerate(clock[1:])},
    }
    return metrics, len(jobs), failed, detail


# ---------------------------------------------------------------------------
# Trace 1: per-layer metrics.

def cli_process_seconds(runner, col, job):
    """Per interactive query: wall time minus the `total_seconds` the CLI
    itself measured (--metrics) — process start, flag parsing, exit.
    Returns (median, sum) over the queries."""
    overheads = []
    metrics_path = os.path.join(runner.work, "query-metrics.json")
    for query in interactive_queries(col):
        code, wall, _ = runner.ctl_run(*query, "--metrics", metrics_path)
        if job.expect(code == 0, f"{query[0]} --metrics failed"):
            with open(metrics_path) as handle:
                overheads.append(wall - json.load(handle)["total_seconds"])
    return median_of_values(overheads), sum(overheads)


def trace(runner, env, work, out, workload, seed):
    _, ref_crc, _, jobs = setup(runner, work, workload="analyze", seed=seed,
                                repeats=1)
    ref_dir = os.path.join(work, "setup0")
    csv = os.path.join(ref_dir, "ref.csv")
    col = os.path.join(ref_dir, "ref.col")
    code, _, stdout = runner.spawn([
        env["trace"], "--workload", workload, "--seed", seed, "--csv", csv,
        "--col", col, "--ref-crc", f"{ref_crc:08x}", "--work",
        os.path.join(work, "trace"), "--out", out])
    if code != 0:
        raise BenchError("syrbench_trace failed")
    result = json.loads(stdout.decode().strip().splitlines()[-1])
    for problem in result["failures"]:
        sys.stderr.write(f"trace check failed: {problem}\n")
    metrics = result["metrics"]
    # The traced run derives the report's views with a copy of the CLI's
    # private code; its col report must equal the CLI's byte for byte.
    report = Job("report")
    code, _, cli_report = runner.ctl_run("report", col, "--seed", seed,
                                         "--threads", THREADS)
    with open(os.path.join(out, "report.txt"), "rb") as handle:
        report.expect(code == 0 and cli_report == handle.read(),
                      "traced col report differs from syrwatchctl report")
    cli = Job("cli")
    metrics["cli.process_s"], metrics["self.tools_s"] = cli_process_seconds(
        runner, col, cli)
    jobs += [report, cli]
    attempted = len(jobs) + result["attempted"]
    failed = sum(1 for j in jobs if not j.ok) + result["failed"]
    return metrics, attempted, failed, {
        "checks": {j.kind: j.problems for j in jobs}}


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(REPO, ".bench_work", tag)
    out = os.path.join(REPO, ".bench_out", tag)
    runner = None

    def on_deadline(signum, frame):
        raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")

    def on_terminate(signum, frame):
        raise BenchError(f"stopped by signal {signum}")

    try:
        spec = load_spec()
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload}")
        kind = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[kind]}
        env = build()
        print("# env " + json.dumps(
            {k: env[k] for k in ("build_type", "compiler", "nproc",
                                 "loadavg_1m")}), flush=True)
        signal.signal(signal.SIGALRM, on_deadline)
        signal.signal(signal.SIGTERM, on_terminate)
        signal.signal(signal.SIGINT, on_terminate)
        signal.alarm(RUN_DEADLINE_S)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        os.makedirs(out, exist_ok=True)
        runner = Runner(env["ctl"], work)
        seed = str(args.seed)
        if args.trace:
            values, attempted, failed, detail = trace(
                runner, env, work, out, args.workload, seed)
        else:
            values, attempted, failed, detail = measure(
                runner, work, args.workload, seed, args.seconds)
        signal.alarm(0)
    except (BenchError, subprocess.CalledProcessError) as error:
        signal.alarm(0)
        if runner is not None:
            runner.kill_child()
        sys.stderr.write(f"syrbench: {error}\n")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name in units
               if not isinstance(values.get(name), (int, float))
               or values[name] != values[name]]
    if missing:
        sys.stderr.write(f"syrbench: no value for {', '.join(missing)}\n")
        failed += 1
        values = {**values, **{name: 0.0 for name in missing}}
    with open(os.path.join(out, "run.json"), "w") as handle:
        json.dump({"env": env, "args": vars(args), "metrics": values,
                   "attempted": attempted, "failed": failed, **detail},
                  handle, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
