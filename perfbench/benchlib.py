"""Pure helpers behind perfbench/run.py: percentiles, /proc parsing,
stats-json diffs and span self times. No process handling lives here,
so perfbench/test_benchlib.py can test all of it offline."""

import math
import os

# Percentiles the benchmark may report, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10  # samples that must lie above a reported percentile


def nearest_rank(n, p):
    """1-based rank of the p-th percentile of n samples: ceil(p/100 * n),
    with a guard so that 99.9% of 10000 is 9990 despite rounding."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(samples, p):
    """Nearest-rank percentile of `samples`."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[nearest_rank(len(samples), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - nearest_rank(n, p)


def tail_percentile(n):
    """The highest percentile in PERCENTILES with at least MIN_BEYOND of
    n samples above it, or None when even the median has too few."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def percentile_label(p):
    return "p" + ("%g" % p).replace(".", "_")


def window_rates(ends_ms, wall_s, windows=10):
    """Completions per second in each of `windows` equal slices of a
    phase, from the completion offsets (ms since the phase began): a
    within-run view of how steady the rate was."""
    width_ms = wall_s * 1e3 / windows
    counts = [0] * windows
    for end in ends_ms:
        counts[min(windows - 1, int(end / width_ms))] += 1
    return [c / (width_ms * 1e-3) for c in counts]


def median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ------------------------------------------------------------------ /proc

def parse_proc_stat_cpu_ticks(text):
    """utime + stime (clock ticks) from one /proc/<pid>/stat line. The
    command name may hold spaces and parentheses, so fields are counted
    from the last ')'."""
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return int(rest[11]) + int(rest[12])


def parse_schedstat_ns(text):
    """On-CPU nanoseconds from one /proc/.../schedstat line."""
    return int(text.split()[0])


def parse_vmhwm_kb(status_text):
    """Peak resident set (VmHWM, kB) from /proc/<pid>/status."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise ValueError("no VmHWM line")


def parse_cpu_times(stat_text):
    """Per-CPU (total, steal) clock ticks from /proc/stat."""
    out = {}
    for line in stat_text.splitlines():
        fields = line.split()
        if fields and fields[0].startswith("cpu") and fields[0] != "cpu":
            ticks = [int(x) for x in fields[1:]]
            # user nice system idle iowait irq softirq steal [guest...]:
            # guest time is already inside user and nice.
            out[fields[0]] = (sum(ticks[:8]), ticks[7])
    return out


def steal_pct(before, after):
    """Share of each CPU's time the hypervisor gave to someone else
    between two parse_cpu_times() readings, in percent."""
    out = {}
    for cpu, (total, steal) in after.items():
        total0, steal0 = before.get(cpu, (0, 0))
        out[cpu] = (100.0 * (steal - steal0) / (total - total0)
                    if total > total0 else 0.0)
    return out


def read_file(path):
    with open(path) as f:
        return f.read()


def proc_cpu_seconds(pid, proc="/proc"):
    """utime+stime of every thread of `pid`, in seconds. The per-thread
    schedstat runtime is the same quantity at nanosecond resolution
    (the stat fields are 10 ms ticks); the stat fields are the fallback
    on kernels without schedstat."""
    base = os.path.join(proc, str(pid))
    try:
        total = 0
        for tid in os.listdir(os.path.join(base, "task")):
            total += parse_schedstat_ns(
                read_file(os.path.join(base, "task", tid, "schedstat")))
        return total * 1e-9
    except (OSError, ValueError, IndexError):
        ticks = parse_proc_stat_cpu_ticks(
            read_file(os.path.join(base, "stat")))
        return ticks / float(os.sysconf("SC_CLK_TCK"))


def proc_vmhwm_mb(pid, proc="/proc"):
    status = read_file(os.path.join(proc, str(pid), "status"))
    return parse_vmhwm_kb(status) / 1024.0


# ------------------------------------------------------- stats-json diffs

def stats_diff(before, after):
    """Counter and histogram deltas between two `--stats-json` documents
    of one process. Histograms diff bucket by bucket, so percentiles of
    the phase alone can be read from the result."""
    counters = {}
    for name, value in after.get("counters", {}).items():
        counters[name] = value - before.get("counters", {}).get(name, 0)
    histograms = {}
    for name, hist in after.get("histograms", {}).items():
        old = before.get("histograms", {}).get(name, {})
        old_buckets = {ub: c for ub, c in old.get("buckets", [])}
        buckets = []
        for ub, count in hist.get("buckets", []):
            delta = count - old_buckets.get(ub, 0)
            if delta:
                buckets.append([ub, delta])
        histograms[name] = {
            "count": hist.get("count", 0) - old.get("count", 0),
            "sum": hist.get("sum", 0) - old.get("sum", 0),
            "buckets": buckets,
        }
    return {"counters": counters, "histograms": histograms}


def merge_diffs(diffs):
    """Adds several processes' diffs into one."""
    out = {"counters": {}, "histograms": {}}
    for d in diffs:
        for name, value in d["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        for name, hist in d["histograms"].items():
            acc = out["histograms"].setdefault(
                name, {"count": 0, "sum": 0, "buckets": []})
            acc["count"] += hist["count"]
            acc["sum"] += hist["sum"]
            merged = {ub: c for ub, c in acc["buckets"]}
            for ub, c in hist["buckets"]:
                merged[ub] = merged.get(ub, 0) + c
            acc["buckets"] = sorted([ub, c] for ub, c in merged.items())
    return out


def counter(diff, name):
    return diff["counters"].get(name, 0)


def counter_prefix(diff, prefix):
    return sum(v for k, v in diff["counters"].items() if k.startswith(prefix))


def hist_mean(diff, name):
    hist = diff["histograms"].get(name)
    if not hist or hist["count"] <= 0:
        return 0.0
    return hist["sum"] / hist["count"]


def hist_percentile(diff, name, p):
    """Upper bound of the log2 bucket holding the nearest-rank p-th
    sample (the exporter keeps no finer resolution)."""
    hist = diff["histograms"].get(name)
    if not hist or hist["count"] <= 0:
        return 0.0
    rank = nearest_rank(hist["count"], p)
    seen = 0
    for ub, count in sorted(hist["buckets"]):
        seen += count
        if seen >= rank:
            return float(ub)
    return float(sorted(hist["buckets"])[-1][0])


def resolved_backend(diff):
    """The mont.* backend that did the most work, e.g. "adx"."""
    ops = {}
    for name, value in diff["counters"].items():
        if name.startswith("mont.mul_ops.") or name.startswith("mont.sqr_ops."):
            kind = name.rsplit(".", 1)[1]
            ops[kind] = ops.get(kind, 0) + value
    ops = {k: v for k, v in ops.items() if v > 0}
    return max(ops, key=ops.get) if ops else "none"


# ------------------------------------------------------------------ spans

def _covered(intervals):
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def parent_indices(spans):
    """Global index of each span's parent (None for roots). Each span's
    `parent` is an index into its own thread's list, and `spans` keep
    the per-thread order the tracer wrote them in."""
    index = {}
    per_thread = {}
    for i, s in enumerate(spans):
        local = per_thread.get(s["thread"], 0)
        per_thread[s["thread"]] = local + 1
        index[(s["thread"], local)] = i
    return [index[(s["thread"], s["parent"])] if s["parent"] >= 0 else None
            for s in spans]


def self_times(spans, parents=None):
    """Self time (ns) of every span: its duration minus the part of it
    its children cover. Returns a list aligned with `spans`."""
    if parents is None:
        parents = parent_indices(spans)
    children = [[] for _ in spans]
    for s, parent in zip(spans, parents):
        if parent is not None:
            children[parent].append((s["start_ns"], s["end_ns"]))
    out = []
    for s, kids in zip(spans, children):
        kids = [(max(a, s["start_ns"]), min(b, s["end_ns"])) for a, b in kids]
        kids = [(a, b) for a, b in kids if b > a]
        out.append(s["end_ns"] - s["start_ns"] - _covered(kids))
    return out


def in_windows(t, windows):
    return any(a <= t <= b for a, b in windows)


def span_mean_ns(spans, name, windows):
    """Mean duration of the spans called `name` that start inside one of
    `windows`, or 0 when none does."""
    durs = [s["end_ns"] - s["start_ns"] for s in spans
            if s["name"] == name and in_windows(s["start_ns"], windows)]
    return sum(durs) / len(durs) if durs else 0.0


def query_breakdown(spans, windows=None):
    """Splits every `query` span (optionally only those starting inside
    one of `windows`, a list of (start_ns, end_ns)) into its children's
    time by name and its own self time. Returns
    (queries, parts_ns, self_ns, total_ns)."""
    parents = parent_indices(spans)
    selfs = self_times(spans, parents)
    chosen = set()
    total = self_ns = 0
    for i, s in enumerate(spans):
        if s["name"] != "query":
            continue
        if windows is not None and not in_windows(s["start_ns"], windows):
            continue
        chosen.add(i)
        total += s["end_ns"] - s["start_ns"]
        self_ns += selfs[i]
    parts = {}
    for s, parent in zip(spans, parents):
        if parent in chosen:
            parts[s["name"]] = (parts.get(s["name"], 0)
                                + s["end_ns"] - s["start_ns"])
    return len(chosen), parts, self_ns, total


def sum_gap_pct(parts_ns, total_ns):
    """How far the named parts fall short of the whole, in percent."""
    if total_ns <= 0:
        return 0.0
    return 100.0 * (total_ns - sum(parts_ns.values())) / total_ns
