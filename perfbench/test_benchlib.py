"""Tests for the benchmark's own logic (perfbench/benchlib.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import tempfile
import unittest

import benchlib


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(samples, 50), 50)
        self.assertEqual(benchlib.percentile(samples, 90), 90)
        self.assertEqual(benchlib.percentile(samples, 99), 99)
        self.assertEqual(benchlib.percentile([7], 90), 7)
        self.assertEqual(benchlib.percentile([3, 1, 2], 50), 2)

    def test_samples_beyond(self):
        self.assertEqual(benchlib.samples_beyond(100, 90), 10)
        self.assertEqual(benchlib.samples_beyond(99, 90), 9)
        self.assertEqual(benchlib.samples_beyond(1000, 99), 10)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertEqual(benchlib.tail_percentile(99), 50.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(999), 90.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)
        self.assertEqual(benchlib.percentile_label(99.9), "p99_9")

    def test_window_rates(self):
        ends = [100, 900, 1500, 1999, 2000, 3999.9]
        self.assertEqual(benchlib.window_rates(ends, 4.0, windows=4),
                         [2.0, 2.0, 1.0, 1.0])

    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            benchlib.median([])


class ProcTest(unittest.TestCase):
    STAT = ("4242 (ppstats (srv) x) S 1 4242 4242 0 -1 4194304 512 0 0 0 "
            "1234 567 0 0 20 0 6 0 99 1000000 300 18446744073709551615")

    def test_stat_counts_fields_after_the_last_paren(self):
        self.assertEqual(benchlib.parse_proc_stat_cpu_ticks(self.STAT),
                         1234 + 567)

    def test_schedstat(self):
        self.assertEqual(benchlib.parse_schedstat_ns("475662 67136 1\n"),
                         475662)

    def test_vmhwm(self):
        status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1 kB\n"
        self.assertEqual(benchlib.parse_vmhwm_kb(status), 2048)
        with self.assertRaises(ValueError):
            benchlib.parse_vmhwm_kb("VmRSS: 1 kB\n")

    def test_steal_share_per_cpu(self):
        before = benchlib.parse_cpu_times(
            "cpu  9 9 9 9 9 9 9 9 0 0\n"
            "cpu0 100 0 50 800 0 0 10 40 0 0\n"
            "cpu1 100 0 0 900 0 0 0 0 0 0\nintr 1 2\n")
        self.assertEqual(sorted(before), ["cpu0", "cpu1"])
        self.assertEqual(before["cpu0"], (1000, 40))
        after = benchlib.parse_cpu_times(
            "cpu0 150 0 60 860 0 0 10 120 0 0\n"
            "cpu1 100 0 0 900 0 0 0 0 0 0\n")
        self.assertEqual(benchlib.steal_pct(before, after),
                         {"cpu0": 40.0, "cpu1": 0.0})

    def test_proc_tree_sums_threads_and_falls_back_to_stat(self):
        with tempfile.TemporaryDirectory() as root:
            task = os.path.join(root, "7", "task")
            for tid, ns in (("7", 1500000000), ("8", 500000000)):
                os.makedirs(os.path.join(task, tid))
                with open(os.path.join(task, tid, "schedstat"), "w") as f:
                    f.write("%d 0 0\n" % ns)
            with open(os.path.join(root, "7", "status"), "w") as f:
                f.write("VmHWM:\t  3072 kB\n")
            self.assertAlmostEqual(benchlib.proc_cpu_seconds(7, root), 2.0)
            self.assertAlmostEqual(benchlib.proc_vmhwm_mb(7, root), 3.0)

            os.makedirs(os.path.join(root, "9"))
            with open(os.path.join(root, "9", "stat"), "w") as f:
                f.write(self.STAT)
            ticks = float(os.sysconf("SC_CLK_TCK"))
            self.assertAlmostEqual(benchlib.proc_cpu_seconds(9, root),
                                   (1234 + 567) / ticks)


class StatsDiffTest(unittest.TestCase):
    BEFORE = {
        "counters": {"host.queries_served": 10, "mont.mul_ops.adx": 100},
        "histograms": {"span.fold": {"count": 3, "sum": 300,
                                     "buckets": [[127, 2], [255, 1]]}},
    }
    AFTER = {
        "counters": {"host.queries_served": 25, "mont.mul_ops.adx": 400,
                     "mont.sqr_ops.adx": 50, "sched.steals": 4},
        "histograms": {"span.fold": {"count": 13, "sum": 5300,
                                     "buckets": [[127, 2], [255, 3],
                                                 [1023, 8]]},
                       "reactor.ready_events": {"count": 4, "sum": 6,
                                                "buckets": [[1, 2], [3, 2]]}},
    }

    def test_counters_and_histograms_diff(self):
        d = benchlib.stats_diff(self.BEFORE, self.AFTER)
        self.assertEqual(benchlib.counter(d, "host.queries_served"), 15)
        self.assertEqual(benchlib.counter(d, "sched.steals"), 4)
        self.assertEqual(benchlib.counter(d, "absent"), 0)
        self.assertEqual(benchlib.counter_prefix(d, "mont."), 350)
        fold = d["histograms"]["span.fold"]
        self.assertEqual((fold["count"], fold["sum"]), (10, 5000))
        self.assertEqual(fold["buckets"], [[255, 2], [1023, 8]])
        self.assertEqual(benchlib.hist_mean(d, "span.fold"), 500)
        self.assertEqual(benchlib.hist_mean(d, "reactor.ready_events"), 1.5)
        self.assertEqual(benchlib.hist_mean(d, "absent"), 0.0)

    def test_histogram_percentile_reads_the_phase_only(self):
        d = benchlib.stats_diff(self.BEFORE, self.AFTER)
        self.assertEqual(benchlib.hist_percentile(d, "span.fold", 10), 255.0)
        self.assertEqual(benchlib.hist_percentile(d, "span.fold", 20), 255.0)
        self.assertEqual(benchlib.hist_percentile(d, "span.fold", 21), 1023.0)
        self.assertEqual(benchlib.hist_percentile(d, "span.fold", 99), 1023.0)

    def test_merge_and_backend(self):
        d = benchlib.stats_diff(self.BEFORE, self.AFTER)
        m = benchlib.merge_diffs([d, d])
        self.assertEqual(benchlib.counter(m, "host.queries_served"), 30)
        self.assertEqual(m["histograms"]["span.fold"]["buckets"],
                         [[255, 4], [1023, 16]])
        self.assertEqual(benchlib.resolved_backend(d), "adx")
        self.assertEqual(benchlib.resolved_backend(
            {"counters": {"mont.mul_ops.generic": 0}}), "none")


def span(thread, name, start, end, parent=-1, query=0):
    return {"thread": thread, "name": name, "start_ns": start,
            "end_ns": end, "parent": parent, "query": query}


class SpanTest(unittest.TestCase):
    # Thread 0: query 0..100 with header 0..10, send 10..30, wait 30..90
    # (decrypt 80..95 overlaps wait and is counted once); thread 1 has
    # its own indices, and a query outside the window.
    SPANS = [
        span(0, "query", 0, 100, query=1),
        span(0, "core.header_rtt", 0, 10, parent=0, query=1),
        span(0, "net.send", 10, 30, parent=0, query=1),
        span(0, "net.wait", 30, 90, parent=0, query=1),
        span(0, "crypto.decrypt", 80, 95, parent=0, query=1),
        span(1, "net.connect", 0, 5),
        span(1, "query", 1000, 1050, query=2),
        span(1, "net.wait", 1000, 1040, parent=1, query=2),
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        selfs = benchlib.self_times(self.SPANS)
        self.assertEqual(selfs[0], 100 - 95)
        self.assertEqual(selfs[3], 60)
        self.assertEqual(selfs[6], 10)
        self.assertEqual(benchlib.parent_indices(self.SPANS)[7], 6)

    def test_session_spans_count_only_inside_the_windows(self):
        self.assertEqual(
            benchlib.span_mean_ns(self.SPANS, "net.connect", [(0, 500)]), 5)
        self.assertEqual(
            benchlib.span_mean_ns(self.SPANS, "net.connect", [(1, 500)]), 0)

    def test_query_breakdown_and_sum_gap(self):
        n, parts, self_ns, total = benchlib.query_breakdown(self.SPANS)
        self.assertEqual((n, self_ns, total), (2, 15, 150))
        self.assertEqual(parts["net.wait"], 100)
        n, parts, self_ns, total = benchlib.query_breakdown(
            self.SPANS, [(0, 500)])
        self.assertEqual((n, self_ns, total), (1, 5, 100))
        # The overlapping decrypt makes the parts add up to more than the
        # whole: the gap goes negative instead of hiding it.
        self.assertAlmostEqual(benchlib.sum_gap_pct(parts, total), -5.0)
        self.assertEqual(benchlib.sum_gap_pct({"a": 90}, 100), 10.0)
        self.assertEqual(benchlib.sum_gap_pct({}, 0), 0.0)


if __name__ == "__main__":
    unittest.main()
