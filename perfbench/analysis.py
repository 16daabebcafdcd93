"""Statistics and readers for the benchmark.

The Rust binary (`perfbench/src`) only measures and checks. Everything
computed from its raw samples lives here, where `test_analysis.py`
tests it: medians and the tail-percentile rule, span self time and the
residual of a round, the `NET_round.json` reader, and the metric tables
that `run.py` prints.
"""

import math

# The percentile levels a tail may be reported at, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

# Message kinds whose frame counts do not depend on timing: one request
# per duty, origin, participant, member or shard. Status polls,
# check-ins and origin pulls repeat until something is ready, so their
# counts vary from run to run.
DETERMINISTIC_KINDS = ("PushContrib", "SubmitOrigin", "PushShare",
                       "PushCertSig", "ShardRoot")
POLL_KINDS = ("PullOrigin", "CommitteeCheckIn", "PullStatus",
              "PullShardStatus")


def median(values):
    """The median; the mean of the middle pair for an even count."""
    if not values:
        raise ValueError("median of an empty sample")
    s = sorted(values)
    mid = len(s) // 2
    if len(s) % 2:
        return s[mid]
    return (s[mid - 1] + s[mid]) / 2.0


def percentile(values, level):
    """Nearest-rank percentile: the smallest sample with at least
    `level` percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    s = sorted(values)
    rank = max(1, math.ceil(level / 100.0 * len(s)))
    return s[rank - 1]


def tail_percentile(values):
    """The highest level in TAIL_LEVELS with at least TAIL_MIN_BEYOND
    samples strictly beyond its rank, and the sample at it.

    With fewer than 2 * TAIL_MIN_BEYOND samples no level qualifies; the
    maximum is returned with level 100 so the caller can say so.
    """
    n = len(values)
    for level in TAIL_LEVELS:
        rank = max(1, math.ceil(level / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return level, percentile(values, level)
    return 100.0, max(values)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Span:
    """One row of the binary's span table:
    [id, parent, name, kind, tag, start_ns, end_ns]."""

    __slots__ = ("id", "parent", "name", "kind", "tag", "start", "end")

    def __init__(self, row):
        (self.id, self.parent, self.name, self.kind, self.tag,
         self.start, self.end) = row

    @property
    def duration(self):
        return self.end - self.start


def covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: its duration minus the part its children cover}."""
    children = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, []), s.start, s.end)
            for s in spans}


def descendants(spans, root_id):
    """Ids of every span below `root_id`."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s.id)
    out, stack = [], list(children.get(root_id, []))
    while stack:
        i = stack.pop()
        out.append(i)
        stack.extend(children.get(i, []))
    return out


def blocking_self_s(spans, root_name):
    """Summed self time, in seconds, of every span under the first root
    span named `root_name`: the traced work along a replayed round's
    blocking path. 0 when there is no such root."""
    root = next((s for s in spans if s.name == root_name and s.parent < 0),
                None)
    if root is None:
        return 0.0
    own = self_times(spans)
    return sum(own[i] for i in descendants(spans, root.id)) / 1e9


def durations_ms(spans, name, kind=None):
    return [s.duration / 1e6 for s in spans
            if s.name == name and (kind is None or s.kind == kind)]


# ---------------------------------------------------------------------------
# NET_round.json
# ---------------------------------------------------------------------------

def deterministic_wire_bytes(net):
    """Request and reply wire bytes of the DETERMINISTIC_KINDS."""
    total = 0
    for side in ("sent", "recv"):
        for kind in DETERMINISTIC_KINDS:
            total += net.get(side, {}).get(kind, {}).get("wire_bytes", 0)
    return total


def round_counters(net, n, committee, threshold, shards):
    """The `round.*` counters of one round's NET_round.json.

    Useful polls are the ones a round cannot do without: one origin job
    per origin; per committee member a registration, a signing task and
    the Finished it exits on; one share task per participant (t + 1);
    the driver's final status poll; and, sharded, each shard's final
    status poll.
    """
    sent = net.get("sent", {})
    lat = net.get("latency_micros", {})
    polls = sum(sent.get(k, {}).get("frames", 0) for k in POLL_KINDS)
    useful = n + 3 * committee + threshold + 1 + 1
    if shards > 1:
        useful += shards

    def lat_ms(kind, field):
        return lat.get(kind, {}).get(field, 0) / 1000.0

    return {
        "round.handshake_p50_ms": net.get("handshake_p50_micros", 0) / 1000.0,
        "round.handshake_p99_ms": net.get("handshake_p99_micros", 0) / 1000.0,
        "round.push_contrib_p50_ms": lat_ms("PushContrib", "p50"),
        "round.push_contrib_p99_ms": lat_ms("PushContrib", "p99"),
        "round.pull_status_p50_ms": lat_ms("PullStatus", "p50"),
        "round.poll_frames": polls,
        "round.poll_useful_ratio": min(1.0, useful / polls) if polls else 0.0,
        "round.retries": net.get("retries", 0),
        "round.overload_rejections": net.get("overload_rejections", 0),
    }


# ---------------------------------------------------------------------------
# Host stamp
# ---------------------------------------------------------------------------

def fs_type(path, mounts_text):
    """Filesystem type of the longest mount point containing `path`,
    from the text of /proc/mounts."""
    best, kind = "", "unknown"
    for line in mounts_text.splitlines():
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1].replace("\\040", " ")
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, kind = mount, parts[2]
    return kind


# ---------------------------------------------------------------------------
# Metric tables
# ---------------------------------------------------------------------------

def end_to_end(raw, peak_rss_kb):
    """The end-to-end metrics of a timed run: {name: (value, unit)}."""
    if raw["rounds"]:
        per_device = [deterministic_wire_bytes(r["net"]) / r["n"]
                      for r in raw["rounds"]]
    else:
        per_device = raw["upload_bytes"]
    return {
        "latency_s": (median(raw["op_s"]), "s"),
        "mb_per_device": (median(per_device) / 1e6, "MB"),
        "setup_s": (median(raw["setup_s"]), "s"),
        "peak_rss_mb": (peak_rss_kb * 1024 / 1e6, "MB"),
    }


# Per-layer span metrics: name -> (span name, message kind, statistic,
# unit). "median" and "tail" are per call in ms; "total" sums every
# call, in seconds.
SPAN_METRICS = {
    "bgv.keygen_s": ("bgv.keygen", None, "median_s", "s"),
    "math.ntt_ms": ("math.ntt", None, "median", "ms"),
    "bgv.encrypt_ms": ("bgv.encrypt", None, "median", "ms"),
    "bgv.mul_ms": ("bgv.mul", None, "median", "ms"),
    "bgv.relin_ms": ("bgv.relin", None, "median", "ms"),
    "bgv.modswitch_ms": ("bgv.modswitch", None, "median", "ms"),
    "zkp.prove_ms": ("zkp.prove", None, "median", "ms"),
    "zkp.verify_ms": ("zkp.verify", None, "median", "ms"),
    "codec.encode_ms": ("codec.encode", "PushContrib", "median", "ms"),
    "codec.decode_ms": ("codec.decode", "PushContrib", "median", "ms"),
    "agg.handle_contrib_p50_ms": ("agg.handle", "PushContrib", "median", "ms"),
    "agg.handle_contrib_tail_ms": ("agg.handle", "PushContrib", "tail", "ms"),
    "agg.intake_s": ("agg.handle", "PushContrib", "total", "s"),
    "agg.digest_ms": ("agg.digest", None, "median", "ms"),
    "agg.recover_s": ("agg.recover", None, "total", "s"),
    "journal.commit_p50_ms": ("journal.commit", None, "median", "ms"),
    "journal.commit_tail_ms": ("journal.commit", None, "tail", "ms"),
    "channel.handshake_p50_ms": ("channel.handshake", None, "median", "ms"),
    "channel.handshake_tail_ms": ("channel.handshake", None, "tail", "ms"),
    "channel.exchange_ms": ("channel.exchange", None, "median", "ms"),
    "plan.build_contribution_ms": ("plan.build_contribution", None, "median", "ms"),
    "plan.combine_origin_ms": ("plan.combine_origin", None, "median", "ms"),
    "plan.multiply_into_ms": ("plan.multiply_into", None, "median", "ms"),
    "plan.aggregate_ms": ("plan.aggregate", None, "median", "ms"),
    "plan.seal_shard_ms": ("plan.seal_shard", None, "median", "ms"),
    "plan.combine_shards_ms": ("plan.combine_shards", None, "median", "ms"),
    "sharing.decrypt_share_ms": ("sharing.decrypt_share", None, "median", "ms"),
    "sharing.combine_ms": ("sharing.combine", None, "median", "ms"),
    "cert.sign_ms": ("cert.sign", None, "median", "ms"),
    "cert.verify_ms": ("cert.verify", None, "median", "ms"),
    "budget.ledger_ms": ("budget.ledger", None, "median", "ms"),
    "proc.spawn_ms": ("proc.spawn", None, "median", "ms"),
}

# Per-layer metrics read from the raw run's named values.
VALUE_METRICS = {
    "codec.ct_bytes": ("codec.ct_bytes", 1.0, "B"),
    "agg.checkpoints": ("agg.checkpoints", 1.0, "count"),
    "agg.journal_mb": ("agg.journal_bytes", 1e-6, "MB"),
}

ROUND_UNITS = {
    "round.handshake_p50_ms": "ms",
    "round.handshake_p99_ms": "ms",
    "round.push_contrib_p50_ms": "ms",
    "round.push_contrib_p99_ms": "ms",
    "round.pull_status_p50_ms": "ms",
    "round.poll_frames": "count",
    "round.poll_useful_ratio": "ratio",
    "round.retries": "count",
    "round.overload_rejections": "count",
    "round.unattributed_s": "s",
}


def per_layer(raw):
    """The per-layer metrics of a traced run: {name: (value, unit)}, and
    {name: tail level} for the tail metrics. A layer the workload never
    calls reads 0."""
    spans = [Span(row) for row in raw["spans"]]
    out, levels = {}, {}
    for name, (span, kind, stat, unit) in SPAN_METRICS.items():
        ms = durations_ms(spans, span, kind)
        if not ms:
            value = 0.0
        elif stat == "median":
            value = median(ms)
        elif stat == "median_s":
            value = median(ms) / 1e3
        elif stat == "total":
            value = sum(ms) / 1e3
        else:
            levels[name], value = tail_percentile(ms)
        out[name] = (value, unit)
    values = raw["values"]
    for name, (key, scale, unit) in VALUE_METRICS.items():
        out[name] = (values.get(key, 0) * scale, unit)
    if raw["rounds"]:
        r = raw["rounds"][0]
        counters = round_counters(r["net"], r["n"], r["committee"],
                                  r["threshold"], r["shards"])
        counters["round.unattributed_s"] = (
            r["wall_s"] - blocking_self_s(spans, "round.replay"))
    else:
        counters = {name: 0 for name in ROUND_UNITS}
    for name, unit in ROUND_UNITS.items():
        out[name] = (counters[name], unit)
    traced_ops = durations_ms(spans, "device.op")
    overhead = 0.0
    if traced_ops and raw["op_s"]:
        overhead = median(traced_ops) / 1e3 - median(raw["op_s"])
    out["trace.overhead_s"] = (overhead, "s")
    return out, levels
