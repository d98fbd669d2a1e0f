#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the shipped ppstats servers.

    python3 perfbench/run.py --workload paper|served|churn|cluster \\
        --seed <n> --seconds <s> --trace 0|1

Run from the root of a checkout. The first run builds ppstats_server,
ppstats_coordinator and the load generator (perfbench/loadgen.cc) into
.bench_build/; every run works in .bench_run/ and removes it again.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer ones
(--trace 1). perfbench/README.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import queue
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "cmake")
RUN_ROOT = ".bench_run"
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
TARGETS = ("ppstats_server", "ppstats_coordinator", "ppstats_loadgen")
SETUP_REPEATS = 3       # setups per untraced run; setup_s is their median
STATS_INTERVAL_MS = 50  # --stats-interval-ms of every serving process
SUM_GAP_TOLERANCE_PCT = 5.0
# Queries an untraced run must complete for its result to count as
# correct: p90 then has ten samples above it.
MIN_SAMPLES = 100

# Column name -> (rows, lowest value, highest value). income^2 * rows
# stays below 2^64, so the load generator checks answers exactly.
WORKLOADS = {
    "paper": {"transport": "tcp", "shards": 0,
              "columns": {"v": (500, 0, 1000000)}},
    "served": {"transport": "tcp", "shards": 0,
               "columns": {"age": (2048, 18, 90),
                           "income": (2048, 0, 200000)}},
    "churn": {"transport": "unix", "shards": 0,
              "columns": {"v": (64, 0, 1000000)}},
    "cluster": {"transport": "tcp", "shards": 2,
                "columns": {"age": (4096, 18, 90)}},
}

END_TO_END = [
    ("qps", "1/s"), ("p50_ms", "ms"), ("p90_ms", "ms"), ("setup_s", "s"),
    ("client_cpu_ms_per_q", "ms"), ("server_cpu_ms_per_q", "ms"),
    ("server_rss_mb", "MB"), ("wire_kb_per_q", "KiB"),
]

PER_LAYER = [
    ("crypto.encrypt_ms", "ms"), ("crypto.decrypt_ms", "ms"),
    ("crypto.keygen_ms", "ms"), ("crypto.preencrypt_s", "s"),
    ("net.connect_ms", "ms"), ("net.send_ms", "ms"), ("net.wait_ms", "ms"),
    ("net.frames_per_q", "frames/q"), ("net.bytes_per_q", "B/q"),
    ("core.handshake_ms", "ms"), ("core.header_rtt_ms", "ms"),
    ("core.fold_ms", "ms"), ("core.decode_ms", "ms"),
    ("core.sum_server_ms", "ms"), ("fold.rows_per_q", "rows/q"),
    ("fold.chunks_per_q", "chunks/q"), ("host.sessions_per_q", "sessions/q"),
    ("host.sessions_failed", "count"),
    ("bigint.server_mont_ops_per_q", "ops/q"),
    ("bigint.client_mont_ops_per_q", "ops/q"),
    ("bigint.server_ns_per_mont_op", "ns"),
    ("sched.dispatch_wait_ms", "ms"), ("sched.steals_per_q", "steals/q"),
    ("sched.rejected", "count"),
    ("reactor.wakeups_per_q", "wakeups/q"),
    ("reactor.ready_events_mean", "events"),
    ("net.writev_frames_per_call", "frames"),
    ("net.deadline_expirations", "count"),
    ("cluster.fanout_ms", "ms"), ("cluster.shard_leg_ms", "ms"),
    ("cluster.shard_leg_p99_ms", "ms"), ("cluster.coord_self_ms", "ms"),
    ("cluster.redials_per_q", "redials/q"),
    ("cluster.retries_per_q", "retries/q"), ("cluster.legs_failed", "count"),
    ("proc.coordinator_cpu_ms_per_q", "ms"),
    ("proc.shard_cpu_ms_per_q", "ms"), ("proc.coordinator_rss_mb", "MB"),
    ("client.other_ms", "ms"), ("client.replayed_upload_pct", "%"),
    ("trace.sum_gap_pct", "%"), ("trace.overhead_pct", "%"),
]


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    """Configures (once) and builds the three binaries from the sources
    in this checkout. Output goes to .bench_build/build.log."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise BenchError("no ppstats sources here; run from a checkout root")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(".bench_build", "build.log")
    with open(log_path, "a") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", BUILD_DIR, "-j",
                      str(os.cpu_count() or 1), "--target"] + list(TARGETS))
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                raise BenchError("build failed; see " + log_path)
    tools = os.path.abspath(os.path.join(BUILD_DIR, "ppstats", "tools"))
    return {
        "server": os.path.join(tools, "ppstats_server"),
        "coordinator": os.path.join(tools, "ppstats_coordinator"),
        "loadgen": os.path.abspath(os.path.join(BUILD_DIR, "ppstats_loadgen")),
    }


# -------------------------------------------------------------- processes

def placement(shards):
    """CPU of each process, fixed from spawn to exit (set-up included):
    the load generator on the first CPU, the server or coordinator on
    the second, each shard on one of its own after that. With too few
    CPUs for that every process may use all of them."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2 + shards:
        return lambda name: set(cpus)
    fixed = {"loadgen": {cpus[0]}, "server": {cpus[1]},
             "coordinator": {cpus[1]}}
    for s in range(shards):
        fixed["shard%d" % s] = {cpus[2 + s]}
    return fixed.__getitem__


def spawn(cmd, cpus, **kwargs):
    return subprocess.Popen(
        cmd, preexec_fn=lambda: os.sched_setaffinity(0, cpus), **kwargs)


class Proc:
    """A child process whose stdout goes to a file in the run directory."""

    def __init__(self, name, cmd, run_dir, cpus):
        self.name = name
        self.out_path = os.path.join(run_dir, name + ".out")
        self.out = open(self.out_path, "w")
        self.popen = spawn(cmd, cpus, cwd=run_dir, stdout=self.out,
                           stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        self.stats_path = None

    @property
    def pid(self):
        return self.popen.pid

    def wait_listening(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.out_path) as f:
                m = re.search(r"^listening on (\S+)$", f.read(), re.M)
            if m:
                return m.group(1)
            if self.popen.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchError(self.name + " did not start listening")

    def stop(self):
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
            try:
                self.popen.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait()
        self.out.close()


class LoadGen:
    """The load generator, driven line by line over stdin/stdout."""

    def __init__(self, cmd, run_dir, cpus):
        self.err = open(os.path.join(run_dir, "loadgen.err"), "w")
        self.popen = spawn(cmd, cpus, cwd=run_dir, stdin=subprocess.PIPE,
                           stdout=subprocess.PIPE, stderr=self.err,
                           text=True, bufsize=1)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.popen.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def send(self, line):
        self.popen.stdin.write(line + "\n")
        self.popen.stdin.flush()

    def expect(self, verb, timeout):
        """Waits for the reply `verb {json}` and returns the JSON."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchError("load generator: no %s reply" % verb)
            if line is None:
                raise BenchError("load generator exited before " + verb)
            if line.startswith(verb + " "):
                return json.loads(line[len(verb) + 1:])
            if line.startswith("FAIL"):
                raise BenchError("load generator: " + line)

    def stop(self):
        if self.popen.poll() is None:
            try:
                self.send("QUIT")
                self.popen.stdin.close()
                self.popen.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.popen.kill()
                self.popen.wait()
        self.reader.join(timeout=5)
        self.err.close()


class Deployment:
    """Columns, serving processes and a connected load generator: one
    setup of a workload."""

    def __init__(self, workload, seed, bins, run_dir, spans_path=None):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.bins = bins
        self.run_dir = run_dir
        self.spans_path = spans_path
        self.cpus = placement(self.spec["shards"])
        self.servers = []       # every serving process
        self.front = None       # the process clients connect to
        self.coordinator = None
        self.loadgen = None
        self.ready = None

    def write_columns(self):
        """Seeded column files; returns name -> list of file names (one
        per shard)."""
        rng = random.Random("columns-%d" % self.seed)
        shards = max(1, self.spec["shards"])
        files = {}
        for name, (rows, low, high) in sorted(self.spec["columns"].items()):
            values = [rng.randint(low, high) for _ in range(rows)]
            per = rows // shards
            files[name] = []
            for s in range(shards):
                fname = "%s.%d.txt" % (name, s)
                with open(os.path.join(self.run_dir, fname), "w") as f:
                    f.write("\n".join(map(str, values[s * per:(s + 1) * per])))
                    f.write("\n")
                files[name].append(fname)
        return files

    def start_server(self, name, args):
        proc = Proc(name, args + ["--stats-json", name + ".stats.json",
                                  "--stats-interval-ms",
                                  str(STATS_INTERVAL_MS)], self.run_dir,
                    self.cpus(name))
        proc.stats_path = os.path.join(self.run_dir, name + ".stats.json")
        self.servers.append(proc)
        return proc

    def start(self):
        os.makedirs(self.run_dir)
        files = self.write_columns()
        listen = ("unix:%s.sock" % self.workload
                  if self.spec["transport"] == "unix" else "tcp:127.0.0.1:0")
        common = ["--threads", "1", "--reactor-threads", "1"]
        if self.spec["shards"] == 0:
            dbs = []
            for name, (fname,) in files.items():
                dbs += ["--db", "%s=%s" % (name, fname)]
            self.front = self.start_server(
                "server", [self.bins["server"]] + dbs + ["--listen", listen]
                + common)
            uri = self.front.wait_listening()
        else:
            blind = hashlib.sha256(b"blind-%d" % self.seed).hexdigest()[:32]
            count = self.spec["shards"]
            maps = []
            shard_procs = []
            for s in range(count):
                dbs = []
                for name, fnames in files.items():
                    dbs += ["--db", "%s=%s" % (name, fnames[s])]
                shard_procs.append(self.start_server(
                    "shard%d" % s, [self.bins["server"]] + dbs
                    + ["--listen", "tcp:127.0.0.1:0",
                       "--shard-blind", "%d:%d:%s:64" % (s, count, blind)]
                    + common))
            for s, proc in enumerate(shard_procs):
                shard_uri = proc.wait_listening()
                for name, (rows, _, _) in self.spec["columns"].items():
                    per = rows // count
                    maps += ["--map", "%s=%d-%d@%s" % (name, s * per,
                                                       (s + 1) * per,
                                                       shard_uri)]
            self.coordinator = self.start_server(
                "coordinator", [self.bins["coordinator"]] + maps
                + ["--listen", listen, "--blind-seed", blind,
                   "--blind-mod-bits", "64", "--reactor-threads", "1"])
            self.front = self.coordinator
            uri = self.front.wait_listening()
        cmd = [self.bins["loadgen"], "--workload",
               self.workload, "--seed", str(self.seed), "--uri", uri]
        for name, fnames in files.items():
            cmd += ["--column", "%s=%s" % (name, "+".join(fnames))]
        if self.spans_path:
            cmd += ["--spans", os.path.abspath(self.spans_path)]
        self.loadgen = LoadGen(cmd, self.run_dir, self.cpus("loadgen"))
        self.ready = self.loadgen.expect("READY", timeout=120)

    def stop(self):
        if self.loadgen is not None:
            self.loadgen.stop()
        # Coordinator first, so the shards see its sessions end cleanly.
        for proc in sorted(self.servers, key=lambda p: p is not self.coordinator):
            proc.stop()

    # ---------------------------------------------------------- phases

    def read_stats(self):
        out = {}
        for proc in self.servers:
            try:
                with open(proc.stats_path) as f:
                    out[proc.name] = json.load(f)
            except (OSError, ValueError):
                out[proc.name] = None
        return out

    def quiesced_stats(self, timeout=10.0):
        """Stats documents snapshotted after this call began: waits
        until each process has rewritten its file twice (the first
        rewrite may hold a snapshot taken just before the call)."""
        seen = {p.name: [] for p in self.servers}
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            docs = self.read_stats()
            done = True
            for name, doc in docs.items():
                if doc is None:
                    done = False
                    continue
                uptimes = seen[name]
                if not uptimes or uptimes[-1] != doc.get("uptime_s"):
                    uptimes.append(doc.get("uptime_s"))
                if len(uptimes) < 3:
                    done = False
            if done:
                return docs
            time.sleep(0.01)
        raise BenchError("servers did not refresh their stats")

    def cpu_seconds(self):
        return {p.name: benchlib.proc_cpu_seconds(p.pid) for p in self.servers}

    def timed_phase(self, seconds, traced, composed):
        """One closed-loop phase with server CPU and stats diffed
        around it (both read while the load generator is idle)."""
        before = self.quiesced_stats()
        cpu0 = self.cpu_seconds()
        host0 = benchlib.parse_cpu_times(benchlib.read_file("/proc/stat"))
        self.loadgen.send("RUN %.3f %d %d" % (seconds, traced, composed))
        done = self.loadgen.expect("DONE", timeout=seconds + 60)
        done["steal_pct"] = benchlib.steal_pct(
            host0, benchlib.parse_cpu_times(benchlib.read_file("/proc/stat")))
        cpu1 = self.cpu_seconds()
        after = self.quiesced_stats()
        done["windows"] = [[done["start_ns"], done["end_ns"]]]
        diffs = {name: benchlib.stats_diff(before[name], after[name])
                 for name in after}
        cpu = {name: cpu1[name] - cpu0[name] for name in cpu1}
        return done, diffs, cpu


def merge_phases(phases):
    """Adds up several timed phases of one deployment."""
    done = {"latencies_ms": [], "errors": [], "windows": []}
    for d, _, _ in phases:
        for key, value in d.items():
            if key in ("start_ns", "end_ns", "ends_ms", "steal_pct"):
                continue  # phase-relative; the windows list replaces them
            done[key] = done.get(key, 0) + value
    names = phases[0][1].keys()
    diffs = {n: benchlib.merge_diffs([p[1][n] for p in phases]) for n in names}
    cpu = {n: sum(p[2][n] for p in phases) for n in names}
    return done, diffs, cpu


# ---------------------------------------------------------------- metrics

def succeeded(done):
    return done["attempted"] - done["failed"]


def end_to_end(done, cpu, rss_mb, setup_s):
    q = max(1, succeeded(done))
    lat = done["latencies_ms"]
    return {
        "qps": succeeded(done) / done["wall_s"],
        "p50_ms": benchlib.percentile(lat, 50) if lat else 0.0,
        "p90_ms": benchlib.percentile(lat, 90) if lat else 0.0,
        "setup_s": setup_s,
        "client_cpu_ms_per_q": done["cpu_s"] * 1e3 / q,
        "server_cpu_ms_per_q": sum(cpu.values()) * 1e3 / q,
        "server_rss_mb": sum(rss_mb.values()),
        "wire_kb_per_q": done["bytes"] / 1024.0 / q,
    }


def per_layer(dep, done, diffs, cpu, rss_mb, untraced_qps, replayed, spans):
    q = max(1, succeeded(done))
    servers = [p.name for p in dep.servers]
    folders = [n for n in servers if n != "coordinator"]
    front = dep.front.name
    all_diff = benchlib.merge_diffs([diffs[n] for n in servers])
    fold_diff = benchlib.merge_diffs([diffs[n] for n in folders])
    coord = diffs.get("coordinator", {"counters": {}, "histograms": {}})
    C = benchlib.counter

    nq, parts, self_ns, total_ns = benchlib.query_breakdown(
        spans, done["windows"])
    nq = max(1, nq)

    def part_ms(name):
        return parts.get(name, 0) / nq * 1e-6

    def session_span_ms(name):
        return benchlib.span_mean_ns(spans, name, done["windows"]) * 1e-6

    folds = C(fold_diff, "host.queries_served")
    fold_ns = C(fold_diff, "host.server_compute_ns")
    fold_ops = (benchlib.counter_prefix(fold_diff, "mont.mul_ops.")
                + benchlib.counter_prefix(fold_diff, "mont.sqr_ops."))
    server_ops = (benchlib.counter_prefix(all_diff, "mont.mul_ops.")
                  + benchlib.counter_prefix(all_diff, "mont.sqr_ops."))
    fanout_ms = benchlib.hist_mean(coord, "span.cluster_fanout") * 1e-6
    leg_ms = benchlib.hist_mean(coord, "span.cluster_shard_query") * 1e-6
    writev_calls = C(all_diff, "net.writev_calls")
    uploads = done["replayed_uploads"] + done["fresh_uploads"]
    return {
        "crypto.encrypt_ms": part_ms("crypto.encrypt"),
        "crypto.decrypt_ms": part_ms("crypto.decrypt"),
        "crypto.keygen_ms": dep.ready["keygen_ms"],
        "crypto.preencrypt_s": dep.ready["preencrypt_s"],
        "net.connect_ms": session_span_ms("net.connect"),
        "net.send_ms": part_ms("net.send"),
        "net.wait_ms": part_ms("net.wait"),
        "net.frames_per_q": done["frames"] / q,
        "net.bytes_per_q": done["bytes"] / q,
        "core.handshake_ms": session_span_ms("core.handshake"),
        "core.header_rtt_ms": part_ms("core.header_rtt"),
        "core.fold_ms": fold_ns / folds * 1e-6 if folds else 0.0,
        "core.decode_ms": replayed["decode_ms"],
        "core.sum_server_ms": replayed["sum_server_ms"],
        "fold.rows_per_q": C(fold_diff, "fold.rows") / q,
        "fold.chunks_per_q": C(fold_diff, "fold.chunks") / q,
        "host.sessions_per_q": C(diffs[front], "host.sessions_accepted") / q,
        "host.sessions_failed": C(all_diff, "host.sessions_failed"),
        "bigint.server_mont_ops_per_q": server_ops / q,
        "bigint.client_mont_ops_per_q": done["mont_ops"] / q,
        "bigint.server_ns_per_mont_op": fold_ns / fold_ops if fold_ops else 0.0,
        "sched.dispatch_wait_ms":
            all_diff["histograms"].get("sched.dispatch_ns", {}).get("sum", 0)
            / q * 1e-6,
        "sched.steals_per_q": C(all_diff, "sched.steals") / q,
        "sched.rejected": C(all_diff, "sched.rejected"),
        "reactor.wakeups_per_q": C(all_diff, "reactor.wakeups") / q,
        "reactor.ready_events_mean":
            benchlib.hist_mean(all_diff, "reactor.ready_events"),
        "net.writev_frames_per_call":
            C(all_diff, "net.writev_frames") / writev_calls
            if writev_calls else 0.0,
        "net.deadline_expirations":
            C(all_diff, "net.deadline_expirations")
            + done["deadline_expirations"],
        "cluster.fanout_ms": fanout_ms,
        "cluster.shard_leg_ms": leg_ms,
        "cluster.shard_leg_p99_ms":
            benchlib.hist_percentile(coord, "span.cluster_shard_query", 99)
            * 1e-6,
        "cluster.coord_self_ms": fanout_ms - leg_ms if fanout_ms else 0.0,
        "cluster.redials_per_q": C(coord, "cluster.upstream_redials") / q,
        "cluster.retries_per_q": C(coord, "cluster.upstream_retries") / q,
        "cluster.legs_failed": C(coord, "cluster.shard_queries_failed"),
        "proc.coordinator_cpu_ms_per_q": cpu.get("coordinator", 0.0) * 1e3 / q,
        "proc.shard_cpu_ms_per_q":
            sum(cpu[n] for n in folders if n.startswith("shard")) * 1e3 / q,
        "proc.coordinator_rss_mb": rss_mb.get("coordinator", 0.0),
        "client.other_ms": self_ns / nq * 1e-6,
        "client.replayed_upload_pct":
            100.0 * done["replayed_uploads"] / uploads if uploads else 0.0,
        "trace.sum_gap_pct": benchlib.sum_gap_pct(parts, total_ns),
        "trace.overhead_pct":
            100.0 * (untraced_qps - succeeded(done) / done["wall_s"])
            / untraced_qps if untraced_qps else 0.0,
    }


def source_stamp():
    """The git commit when this directory is the top of a git work tree,
    else a hash of the sources (benchmark checkouts are not git
    repositories)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(".")):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        paths = [top] if os.path.isfile(top) else [
            os.path.join(d, f) for d, _, fs in os.walk(top)
            if "__pycache__" not in d for f in fs]
        for path in sorted(paths):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def check_counts(dep, done, diffs):
    """The front process must have answered exactly the queries the
    load generator saw succeed."""
    served = benchlib.counter(diffs[dep.front.name], "host.queries_served")
    return served == succeeded(done)


# ------------------------------------------------------------------- main

def run(args):
    bins = build()
    os.makedirs(RUN_ROOT, exist_ok=True)
    base = os.path.join(RUN_ROOT, "%s-%d" % (args.workload, os.getpid()))
    setups = []
    deployments = []
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        spans_path = base + ".spans.jsonl" if args.trace else None
        dep = None
        for rep in range(repeats):
            if dep is not None:
                dep.stop()
            t0 = time.monotonic()
            dep = Deployment(args.workload, args.seed, bins,
                             "%s.%d" % (base, rep), spans_path)
            deployments.append(dep)
            dep.start()
            setups.append(time.monotonic() - t0)
        setup_s = benchlib.median(setups)

        correct = True
        if args.trace:
            # Untraced, traced, traced, untraced: a drift over the run
            # cancels out of trace.overhead_pct. Every quarter drives the
            # same client calls, so only the spans differ.
            quarter = args.seconds / 4.0
            phases = [dep.timed_phase(quarter, traced, composed=True)
                      for traced in (False, True, True, False)]
            phase_qps = [succeeded(d) / d["wall_s"] for d, _, _ in phases]
            untraced, _, _ = merge_phases([phases[0], phases[3]])
            done, diffs, cpu = merge_phases(phases[1:3])
            dep.loadgen.send("REPLAY")
            replayed = dep.loadgen.expect("REPLAYED", timeout=120)
            correct &= replayed["ok"] and untraced["failed"] == 0
        else:
            done, diffs, cpu = dep.timed_phase(args.seconds, False,
                                               composed=False)
            correct &= len(done["latencies_ms"]) >= MIN_SAMPLES
        rss = {p.name: benchlib.proc_vmhwm_mb(p.pid) for p in dep.servers}
        correct &= check_counts(dep, done, diffs)
        dep.stop()
        spans = []
        if args.trace:
            with open(spans_path) as f:
                spans = [json.loads(line) for line in f if line.strip()]
    finally:
        for d in deployments:
            d.stop()
            shutil.rmtree(d.run_dir, ignore_errors=True)
        if spans_path and os.path.exists(spans_path):
            os.remove(spans_path)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass  # another run is using it

    correct &= done["failed"] == 0 and succeeded(done) > 0
    if args.trace:
        untraced_qps = succeeded(untraced) / untraced["wall_s"]
        metrics = per_layer(dep, done, diffs, cpu, rss, untraced_qps,
                            replayed, spans)
        correct &= abs(metrics["trace.sum_gap_pct"]) <= SUM_GAP_TOLERANCE_PCT
        units = PER_LAYER
    else:
        metrics = end_to_end(done, cpu, rss, setup_s)
        units = END_TO_END

    n = len(done["latencies_ms"])
    tail = benchlib.tail_percentile(n)
    all_ops = benchlib.merge_diffs(list(diffs.values()))
    uploads = done["replayed_uploads"] + done["fresh_uploads"]
    env = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "mont_backend": benchlib.resolved_backend(all_ops),
        "build_type": BUILD_TYPE, "commit": source_stamp(),
        "samples": n, "samples_beyond_p90": benchlib.samples_beyond(n, 90)
        if n else 0,
        "tail_percentile": tail and benchlib.percentile_label(tail),
        "tail_ms": tail and benchlib.percentile(done["latencies_ms"], tail),
        "attempted": done["attempted"], "succeeded": succeeded(done),
        "failed": done["failed"], "errors": done["errors"],
        "sessions": done["sessions"],
        "replayed_upload_share": done["replayed_uploads"] / uploads
        if uploads else 0.0,
        "setup_runs_s": setups,
        "steal_pct_by_cpu": {c: round(v, 2) for c, v in
                             done.get("steal_pct", {}).items()},
        "qps_by_tenth": [round(r, 3) for r in benchlib.window_rates(
            done["ends_ms"], done["wall_s"])] if not args.trace else None,
    }
    if args.trace:
        env["phase_qps_u_t_t_u"] = phase_qps
    for name, unit in units:
        print("%-32s %14.6f %s" % (name, metrics[name], unit))
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": int(done["attempted"]),
        "failed": int(done["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }
    print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    try:
        run(args)
    except BenchError as e:
        log("error: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
