"""Tests of the benchmark's arithmetic and readers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis  # noqa: E402

# A trimmed NET_round.json as `net_round driver --n 24` writes it.
NET_ROUND = json.loads("""{
  "handshakes": 32,
  "handshake_p50_micros": 5691,
  "handshake_p99_micros": 38726,
  "retries": 2,
  "overload_rejections": 1,
  "sent": {
    "CommitteeCheckIn": {"frames": 49, "payload_bytes": 2009, "wire_bytes": 3773},
    "PullOrigin": {"frames": 40, "payload_bytes": 200, "wire_bytes": 1640},
    "PullStatus": {"frames": 11, "payload_bytes": 11, "wire_bytes": 407},
    "PushCertSig": {"frames": 5, "payload_bytes": 365, "wire_bytes": 545},
    "PushContrib": {"frames": 80, "payload_bytes": 7000, "wire_bytes": 9880},
    "PushShare": {"frames": 3, "payload_bytes": 300, "wire_bytes": 408},
    "SubmitOrigin": {"frames": 24, "payload_bytes": 2400, "wire_bytes": 3264}
  },
  "recv": {
    "CommitteeCheckIn": {"frames": 49, "payload_bytes": 4937, "wire_bytes": 6701},
    "PullOrigin": {"frames": 40, "payload_bytes": 64104, "wire_bytes": 65544},
    "PushContrib": {"frames": 80, "payload_bytes": 80, "wire_bytes": 2960},
    "SubmitOrigin": {"frames": 24, "payload_bytes": 24, "wire_bytes": 888}
  },
  "latency_micros": {
    "PullStatus": {"count": 11, "p50": 75589, "p99": 187005, "max": 187005},
    "PushContrib": {"count": 80, "p50": 61841, "p99": 214535, "max": 274571}
  }
}""")


def span(i, parent, name, start, end, kind=""):
    return [i, parent, name, kind, 0, start, end]


class Percentiles(unittest.TestCase):
    def test_median(self):
        self.assertEqual(analysis.median([3, 1, 2]), 2)
        self.assertEqual(analysis.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            analysis.median([])

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.percentile(values, 50), 50)
        self.assertEqual(analysis.percentile(values, 99), 99)
        self.assertEqual(analysis.percentile(values, 100), 100)
        self.assertEqual(analysis.percentile([7], 99), 7)

    def test_tail_needs_ten_samples_beyond(self):
        # 1000 samples: p99.9 leaves 1 beyond, p99 leaves 10.
        self.assertEqual(analysis.tail_percentile(list(range(1000))),
                         (99.0, 989))
        # 652 samples (a round_hub intake): p99 leaves 6, p95 leaves 32.
        self.assertEqual(analysis.tail_percentile(list(range(652)))[0], 95.0)
        # 20 samples: only the median leaves 10 beyond.
        self.assertEqual(analysis.tail_percentile(list(range(20))),
                         (50.0, 9))
        # 19 samples: no level qualifies; the maximum is reported.
        self.assertEqual(analysis.tail_percentile(list(range(19))),
                         (100.0, 18))


class SelfTime(unittest.TestCase):
    def test_covered_merges_and_clips(self):
        self.assertEqual(analysis.covered([(10, 30), (20, 40)], 0, 100), 30)
        self.assertEqual(analysis.covered([(90, 120)], 0, 100), 10)
        self.assertEqual(analysis.covered([(-5, 5), (50, 60)], 0, 100), 15)
        self.assertEqual(analysis.covered([], 0, 100), 0)

    def test_self_time_subtracts_covered_children(self):
        spans = [analysis.Span(r) for r in (
            span(0, -1, "root", 0, 100),
            span(1, 0, "a", 10, 30),
            span(2, 0, "b", 20, 40),
            span(3, 1, "a.child", 12, 18),
        )]
        own = analysis.self_times(spans)
        self.assertEqual(own[0], 100 - 30)
        self.assertEqual(own[1], 20 - 6)
        self.assertEqual(own[2], 20)
        self.assertEqual(own[3], 6)

    def test_blocking_path_sums_self_time_under_the_root(self):
        spans = [analysis.Span(r) for r in (
            span(0, -1, "round.replay", 0, 1_000_000_000),
            span(1, 0, "plan.build_contribution", 0, 400_000_000),
            span(2, 1, "inner", 100_000_000, 200_000_000),
            span(3, 0, "agg.handle", 500_000_000, 600_000_000),
            span(4, -1, "probe", 0, 900_000_000),
        )]
        # 300 + 100 + 100 ms of self time; the probe is off the path and
        # the gaps between children are not traced work.
        self.assertAlmostEqual(
            analysis.blocking_self_s(spans, "round.replay"), 0.5)
        self.assertEqual(analysis.blocking_self_s(spans, "absent"), 0.0)


class NetRoundReader(unittest.TestCase):
    def test_deterministic_wire_bytes(self):
        want = (545 + 9880 + 408 + 3264) + (2960 + 888)
        self.assertEqual(analysis.deterministic_wire_bytes(NET_ROUND), want)

    def test_round_counters(self):
        c = analysis.round_counters(NET_ROUND, n=24, committee=5,
                                    threshold=2, shards=1)
        self.assertEqual(c["round.handshake_p50_ms"], 5.691)
        self.assertEqual(c["round.handshake_p99_ms"], 38.726)
        self.assertEqual(c["round.push_contrib_p50_ms"], 61.841)
        self.assertEqual(c["round.push_contrib_p99_ms"], 214.535)
        self.assertEqual(c["round.pull_status_p50_ms"], 75.589)
        self.assertEqual(c["round.poll_frames"], 49 + 40 + 11)
        # 24 origin jobs + 3·5 member polls + 3 share tasks + the driver.
        self.assertAlmostEqual(c["round.poll_useful_ratio"], 43 / 100)
        self.assertEqual(c["round.retries"], 2)
        self.assertEqual(c["round.overload_rejections"], 1)

    def test_missing_kinds_read_as_zero(self):
        c = analysis.round_counters({}, n=1, committee=1, threshold=0,
                                    shards=1)
        self.assertEqual(c["round.poll_frames"], 0)
        self.assertEqual(c["round.poll_useful_ratio"], 0.0)
        self.assertEqual(analysis.deterministic_wire_bytes({}), 0)


class Stamp(unittest.TestCase):
    def test_fs_type_takes_the_longest_mount(self):
        mounts = ("/dev/vda / ext4 rw 0 0\n"
                  "tmpfs /srv/x tmpfs rw 0 0\n"
                  "odd /mnt/with\\040space xfs rw 0 0\n")
        self.assertEqual(analysis.fs_type("/srv/x/out", mounts), "tmpfs")
        self.assertEqual(analysis.fs_type("/srv/x", mounts), "tmpfs")
        self.assertEqual(analysis.fs_type("/srv/xy", mounts), "ext4")
        self.assertEqual(analysis.fs_type("/mnt/with space/a", mounts), "xfs")
        self.assertEqual(analysis.fs_type("/a", ""), "unknown")


class MetricTables(unittest.TestCase):
    def raw(self, **kw):
        base = {"op_s": [2.0, 1.0, 3.0], "setup_s": [0.5, 0.4, 0.6],
                "upload_bytes": [], "rounds": [], "values": {}, "spans": []}
        base.update(kw)
        return base

    def test_end_to_end_of_rounds(self):
        rounds = [{"n": 24, "net": NET_ROUND}] * 3
        m = analysis.end_to_end(self.raw(rounds=rounds), peak_rss_kb=1000)
        self.assertEqual(m["latency_s"], (2.0, "s"))
        self.assertEqual(m["setup_s"], (0.5, "s"))
        per_device = analysis.deterministic_wire_bytes(NET_ROUND) / 24 / 1e6
        self.assertAlmostEqual(m["mb_per_device"][0], per_device)
        self.assertAlmostEqual(m["peak_rss_mb"][0], 1.024)

    def test_end_to_end_of_a_device(self):
        m = analysis.end_to_end(self.raw(upload_bytes=[5_000_000] * 3), 1)
        self.assertEqual(m["mb_per_device"], (5.0, "MB"))

    def test_per_layer_reads_zero_for_layers_not_called(self):
        spans = [
            span(0, -1, "round.replay", 0, 1_000_000_000),
            span(1, 0, "agg.handle", 0, 200_000_000, "PushContrib"),
            span(2, 0, "agg.handle", 200_000_000, 600_000_000, "PushContrib"),
            span(3, 0, "agg.handle", 600_000_000, 700_000_000, "PullOrigin"),
        ]
        rounds = [{"n": 24, "committee": 5, "threshold": 2, "shards": 1,
                   "wall_s": 1.5, "net": NET_ROUND}]
        m, _ = analysis.per_layer(self.raw(spans=spans, rounds=rounds,
                                           values={"agg.journal_bytes": 2e6}))
        self.assertAlmostEqual(m["agg.intake_s"][0], 0.6)
        self.assertAlmostEqual(m["agg.handle_contrib_p50_ms"][0], 300.0)
        self.assertEqual(m["zkp.prove_ms"], (0.0, "ms"))
        self.assertEqual(m["agg.journal_mb"], (2.0, "MB"))
        self.assertEqual(m["codec.ct_bytes"], (0, "B"))
        # 1.5 s of real round minus 0.7 s of traced blocking-path work.
        self.assertAlmostEqual(m["round.unattributed_s"][0], 0.8)
        self.assertEqual(m["trace.overhead_s"], (0.0, "s"))

    def test_tracing_overhead_of_a_device(self):
        spans = [span(0, -1, "device.op", 0, 2_500_000_000),
                 span(1, -1, "device.op", 0, 2_100_000_000)]
        m, _ = analysis.per_layer(self.raw(spans=spans, op_s=[2.2, 2.0]))
        self.assertAlmostEqual(m["trace.overhead_s"][0], 0.2)
        self.assertEqual(m["round.poll_frames"], (0, "count"))


if __name__ == "__main__":
    unittest.main()
