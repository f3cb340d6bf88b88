"""Per-layer metrics from the spans and counts of two traced passes.

Times are self times per request (a span's duration minus its wrapped
children), except ``obs.history.record_s``, which is per call, and
the ratios.  Counts are per request.  Times are the mean of the two
passes; every count must be equal in both, or the trace is not
trustworthy and the run fails.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

#: Counts that legitimately differ between passes: artifact bytes
#: include wall-clock readings whose digit count varies.
NOT_REPEATABLE = {"obs.artifacts.bytes"}

#: (metric, span) for every self-time metric.
SELF_TIMES = (
    ("scenarios.build_fleet_s", "scenarios.build_fleet"),
    ("scenarios.build_s", "scenarios.build"),
    ("core.simulator.init_s", "core.simulator.init"),
    ("core.simulator.run_s", "core.simulator.run"),
    ("core.simulator.stop_when_s", "core.simulator.stop_when"),
    ("core.batch.kernel_s", "core.batch.kernel"),
    ("core.batch.program_load_s", "core.batch.program_load"),
    ("core.batch.program_store_s", "core.batch.program_store"),
    ("core.batch.program_step_s", "core.batch.program_step"),
    ("core.batch.schedule_lengths_s", "core.batch.schedule_lengths"),
    ("core.channel.begin_s", "core.channel.begin"),
    ("core.channel.drain_s", "core.channel.drain"),
    ("analysis.collect_metrics_s", "analysis.collect_metrics"),
    ("analysis.assess_stability_s", "analysis.assess_stability"),
    ("analysis.grid_s", "analysis.grid"),
    ("exec.cache.get_s", "exec.cache.get"),
    ("exec.cache.put_s", "exec.cache.put"),
    ("obs.artifacts.close_s", "obs.artifacts.close"),
    ("service.runner.execute_s", "service.runner.execute"),
    ("service.server.request_s", "service.server.request"),
)

#: (metric, count) for every per-request count.
COUNTS = (
    ("scenarios.stations", "scenarios.stations"),
    ("core.simulator.events", "core.simulator.events"),
    ("core.batch.kernel_calls", "core.batch.kernel_calls"),
    ("core.batch.ticks", "core.batch.ticks"),
    ("core.channel.feedback_calls", "core.channel.feedback_calls"),
    ("obs.probes.emits", "obs.probes.emits"),
    ("obs.artifacts.lines", "obs.artifacts.lines"),
    ("obs.artifacts.bytes", "obs.artifacts.bytes"),
)

#: (metric, span) for every per-request call count.
CALLS = (
    ("core.simulator.stop_when_calls", "core.simulator.stop_when"),
    ("core.channel.transmissions", "core.channel.begin"),
    ("obs.history.rows", "obs.history.record"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _union(intervals: List[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def _pool(recorded, jobs: int) -> Tuple[float, float]:
    """``(idle_s, busy_ratio)`` of every ``run_tasks`` call.

    Idle is pool time with no worker inside a cell; busy is the cell
    time over pool time times ``jobs``.
    """
    tasks = recorded.durations("exec.pool.task")
    idle = busy = capacity = 0.0
    for start, stop in recorded.durations("exec.pool"):
        inside = [(max(a, start), min(b, stop)) for a, b in tasks
                  if b > start and a < stop]
        idle += (stop - start) - _union(inside)
        busy += sum(b - a for a, b in inside)
        capacity += (stop - start) * jobs
    return idle, _ratio(busy, capacity)


def one_pass(wl, outcomes, recorded) -> Dict[str, Tuple[float, str]]:
    n = len(outcomes)
    r = recorded
    out: Dict[str, Tuple[float, str]] = {}
    for metric, span in SELF_TIMES:
        out[metric] = (r.self_s(span) / n, "s")
    for metric, key in COUNTS:
        out[metric] = (r.counts[key] / n,
                       "bytes" if metric.endswith("bytes") else "count")
    for metric, span in CALLS:
        out[metric] = (r.calls(span) / n, "count")
    out["core.simulator.batch_event_share"] = (
        _ratio(r.counts["core.batch.events"], r.counts["core.simulator.events"]),
        "ratio")
    out["core.batch.events_per_tick"] = (
        _ratio(r.counts["core.batch.events"], r.counts["core.batch.ticks"]),
        "count")
    idle, busy = _pool(r, getattr(wl, "jobs", 1))
    out["exec.pool.idle_s"] = (idle / n, "s")
    out["exec.pool.worker_busy_ratio"] = (busy, "ratio")
    out["exec.cache.hit_ratio"] = (
        _ratio(r.counts["exec.cache.hits"], r.counts["exec.cache.gets"]),
        "ratio")
    out["obs.history.record_s"] = (
        _ratio(r.self_s("obs.history.record"), r.calls("obs.history.record")),
        "s")
    daemon = sum(b - a for a, b in r.durations("service.server.request"))
    transport = (sum(o.latency for o in outcomes) - daemon) / n if daemon else 0.0
    out["service.client.transport_s"] = (transport, "s")
    return out


def repeatable(recorded) -> Dict[str, int]:
    counts = {k: v for k, v in recorded.counts.items()
              if k not in NOT_REPEATABLE}
    counts.update({f"{name} calls": int(total[1])
                   for name, total in recorded.totals.items()})
    return counts


def per_layer(wl, passes, plain) -> Tuple[Dict, List[str]]:
    """Metrics averaged over the traced passes, and any count that differs."""
    (first, rec_a), (second, rec_b) = passes
    a, b = one_pass(wl, first, rec_a), one_pass(wl, second, rec_b)
    metrics = {name: {"value": (a[name][0] + b[name][0]) / 2, "unit": unit}
               for name, (_, unit) in a.items()}
    ttfb = [o.ttfb for o in plain if o.ttfb is not None]
    metrics["service.client.ttfb_p50_s"] = {
        "value": statistics.median(ttfb) if ttfb else 0.0, "unit": "s"}
    counts_a, counts_b = repeatable(rec_a), repeatable(rec_b)
    differing = [f"{key}: {counts_a.get(key)} vs {counts_b.get(key)}"
                 for key in sorted(set(counts_a) | set(counts_b))
                 if counts_a.get(key) != counts_b.get(key)]
    return metrics, differing
