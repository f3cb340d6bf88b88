"""End-to-end benchmark of the run service: one workload per invocation.

    python3 e2ebench/run.py --workload fleet --seed 1 --seconds 15 --trace 0

Runs the named workload (fleet, election, sweep, serve; see README.md)
through the public run service as a closed loop with one client,
checks every request against its object-engine reference, and prints
one JSON object as the last line of standard output:

* ``--trace 0``: the end-to-end metrics (``events_per_s``,
  ``latency_p50_s``, ``setup_s``, ``peak_rss_mb``);
* ``--trace 1``: the per-layer split from two traced passes over the
  same requests, after one untraced pass that gives the tracing
  overhead.

The exit code is 1 when any request failed or mismatched its
reference (the result is still printed), 2 when the checkout holds no
program to measure.  Everything the run writes stays in a scratch
directory inside the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from time import perf_counter
from typing import Dict, List

import common

#: Set-up launches per run; the reported set-up time is their median.
SETUP_LAUNCHES = 11
#: Share of ``--seconds`` given to each pass of a traced run.
TRACED_PASS_SHARE = 1 / 3


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    """Peak RSS of this process and its waited-for children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _throughput(outcomes) -> float:
    """Events of the requests that executed over their total request time."""
    ran = [o for o in outcomes if o.events is not None and not o.error]
    busy = sum(o.latency for o in ran)
    return sum(o.events for o in ran) / busy if busy else 0.0


def _run_pass(wl, rounds=None, *, stop_after=None, store=None, setups=None):
    """Warm up and prime, then submit the timed requests.

    With ``rounds`` the given rounds are replayed; otherwise new rounds
    are drawn until the request time reaches ``stop_after`` seconds.
    With a ``setups`` list, set-up launches follow rounds, spread so
    that ``SETUP_LAUNCHES`` of them fall evenly over the timed loop.
    Returns ``(outcomes, rounds)``.
    """
    untimed = wl.warmup() + wl.prime()
    for req in untimed:
        warm = wl.submit(req)
        if warm.error:
            raise RuntimeError(f"warm-up request failed: {warm.error}")
    if store is not None:
        if not wl.in_process:
            _await_daemon_spans(store.spool, len(untimed))
        store.reset()
        _clear_spool(store.spool)
    outcomes, done, busy = [], [], 0.0
    pending = iter(rounds) if rounds is not None else None
    while True:
        if pending is not None:
            batch = next(pending, None)
            if batch is None:
                break
        elif busy >= stop_after:
            break
        else:
            batch = wl.next_round()
        for req in batch:
            if store is not None:
                store.request = len(outcomes) + 1
            outcome = wl.submit(req)
            outcomes.append(outcome)
            busy += outcome.latency
        done.append(batch)
        if setups is not None:
            while len(setups) < SETUP_LAUNCHES * min(1.0, busy / stop_after):
                setups.append(wl.setup_launch())
    if store is not None and not wl.in_process:
        _await_daemon_spans(store.spool, len(outcomes))
    return outcomes, done


def _clear_spool(spool) -> None:
    if spool is not None:
        for path in spool.glob("spans-*.jsonl"):
            path.unlink()


def _await_daemon_spans(spool, requests: int, timeout: float = 30.0) -> None:
    """Wait until the daemon has spooled one root span per request.

    The daemon closes a request's span just after the client has read
    the last byte, so the spool can lag the client by a moment.
    """
    deadline = perf_counter() + timeout
    while True:
        lines = sum(path.read_text().count("\n")
                    for path in spool.glob("spans-*.jsonl"))
        if lines >= requests:
            return
        if perf_counter() > deadline:
            raise RuntimeError(f"daemon spooled {lines} of {requests} "
                               "request spans")
        time.sleep(0.01)


def measure(wl, seconds: float) -> Dict:
    """``--trace 0``: the end-to-end metrics of one timed run."""
    wl.start()
    try:
        setups: List[float] = []
        outcomes, _ = _run_pass(wl, stop_after=seconds, setups=setups)
        while len(setups) < SETUP_LAUNCHES:
            setups.append(wl.setup_launch())
    finally:
        daemon_peak = wl.stop()
    peak = daemon_peak if daemon_peak is not None else _peak_rss_mb()
    wl.check(outcomes)
    latencies = [o.latency for o in outcomes]
    report(wl, outcomes, setups)
    return result(outcomes, {
        "events_per_s": _metric(_throughput(outcomes), "events/s"),
        "latency_p50_s": _metric(statistics.median(latencies), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(peak, "MB"),
    })


def traced(wl, seconds: float, scratch) -> Dict:
    """``--trace 1``: an untraced pass, then two traced passes, same requests."""
    import layers
    import spans

    wl.fresh_state("untraced")
    wl.start()
    try:
        plain, rounds = _run_pass(wl, stop_after=seconds * TRACED_PASS_SHARE)
    finally:
        wl.stop()
    spool = scratch / "spool"
    spool.mkdir()
    store = spans.SpanStore(spool)
    passes = []
    for tag in ("traced-a", "traced-b"):
        wl.fresh_state(tag)
        inst = None
        wl.start(spool)
        try:
            if wl.in_process:
                inst = spans.install(store)
                for target in inst.missing:
                    print(f"not traced (absent): {target}", file=sys.stderr)
            outcomes, _ = _run_pass(wl, rounds, store=store)
        finally:
            if inst is not None:
                inst.restore()
            wl.stop()
        passes.append((outcomes, store.merged()))
        store.reset()
        _clear_spool(spool)
    everything = plain + passes[0][0] + passes[1][0]
    wl.check(everything)
    metrics, differing = layers.per_layer(wl, passes, plain)
    traced_eps = _throughput(passes[0][0] + passes[1][0])
    untraced_eps = _throughput(plain)
    metrics["trace.events_per_s_untraced"] = _metric(untraced_eps, "events/s")
    metrics["trace.overhead_ratio"] = _metric(
        untraced_eps / traced_eps if traced_eps else 0.0, "ratio")
    print(f"tracing overhead: {untraced_eps:,.0f} events/s untraced, "
          f"{traced_eps:,.0f} traced", file=sys.stderr)
    for line in differing:
        print(f"count differs between traced passes: {line}", file=sys.stderr)
    report(wl, everything, [])
    return result(everything, metrics, extra_failure=bool(differing))


def report(wl, outcomes, setups) -> None:
    """Human-readable detail on stderr: per-class latency and failures."""
    by_class: Dict[str, List[float]] = {}
    for o in outcomes:
        by_class.setdefault(o.req.cls, []).append(o.latency)
    print(f"workload {wl.name}: {len(outcomes)} requests", file=sys.stderr)
    if len(outcomes) >= 100:
        p90 = statistics.quantiles([o.latency for o in outcomes], n=10)[-1]
        print(f"  latency_p90_s={p90:.4f} (n={len(outcomes)})", file=sys.stderr)
    for cls, values in by_class.items():
        print(f"  {cls:16s} n={len(values):4d} "
              f"p50={statistics.median(values):.4f}s", file=sys.stderr)
    ttfb = [o.ttfb for o in outcomes if o.ttfb is not None]
    if ttfb:
        print(f"  ttfb_p50_s={statistics.median(ttfb):.4f} "
              f"(n={len(ttfb)})", file=sys.stderr)
    if setups:
        print(f"  setup launches n={len(setups)} "
              f"p50={statistics.median(setups):.4f}s", file=sys.stderr)
    failed = [o for o in outcomes if o.error]
    print(f"  error_rate={len(failed) / max(1, len(outcomes)):.4f}",
          file=sys.stderr)
    for o in failed[:5]:
        print(f"  FAILED {o.req.cls}: {o.error}", file=sys.stderr)


def result(outcomes, metrics, extra_failure: bool = False) -> Dict:
    failed = sum(1 for o in outcomes if o.error)
    return {
        "correct": failed == 0 and not extra_failure,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    import loads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(loads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.use_checkout_sources()
    except common.MissingProgram as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    base = common.ROOT / ".e2ebench-scratch"
    scratch = base / f"run-{os.getpid()}"
    (scratch / "tmp").mkdir(parents=True)
    os.environ.update(common.child_env(scratch))
    tempfile.tempdir = None  # re-read TMPDIR
    common.quiet_storage()
    started = perf_counter()
    try:
        wl = loads.WORKLOADS[args.workload](args.seed, scratch)
        if args.trace:
            out = traced(wl, args.seconds, scratch)
        else:
            out = measure(wl, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"wall {perf_counter() - started:.1f}s", file=sys.stderr)
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
