"""The four workloads: seeded request generators, submitters and oracles.

Each workload is a closed loop with one client.  Requests come in
rounds of fixed class composition; the seed picks the free parameters
(injection rate, scenario seed, exact fleet size within a narrow band),
never the amount of work, so runs with different seeds are comparable.
Every timed request is checked against a reference of the same spec on
``engine="object"``, computed once per distinct spec after the timed
section.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import random
import re
import select
import signal
import subprocess
import sys
import urllib.request
from dataclasses import dataclass, replace
from multiprocessing import get_context
from multiprocessing.connection import wait
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import common

LAUNCH = str(pathlib.Path(__file__).resolve().parent / "launch.py")
#: How long a helper process may take to become ready.
READY_TIMEOUT_S = 60.0


@dataclass
class Req:
    """One request of a workload, with what the oracle needs to know."""

    cls: str
    request: Any  # repro.service.RunRequest
    #: Grid cells expected to be served from the result cache.
    expect_hits: int = 0
    #: Serve: an exact repeat of an earlier request.
    replay: bool = False
    #: Grid cells this request is expected to execute (not cached).
    executed: Tuple = ()


@dataclass
class Outcome:
    req: Req
    latency: float
    ttfb: Optional[float] = None
    #: Slot-end events simulated by this request (None: not executed).
    events: Optional[int] = None
    observed: Any = None
    error: Optional[str] = None


class SimCapture:
    """Remembers the last :class:`Simulator` built, for the oracle.

    The run service returns metrics, not the simulator; the event count,
    final clock and delivery times the oracle compares come from the
    simulator the request built.  One extra call per simulator.
    """

    def __init__(self) -> None:
        self.sim = None
        self._undo = None

    def install(self) -> "SimCapture":
        from repro.core.simulator import Simulator

        original = Simulator.__dict__["__init__"]
        capture = self

        def init(sim, *args, **kwargs):
            original(sim, *args, **kwargs)
            capture.sim = sim

        Simulator.__init__ = init
        self._undo = (Simulator, original)
        return self

    def restore(self) -> None:
        if self._undo is not None:
            cls, original = self._undo
            cls.__init__ = original
            self._undo = None

    def take(self):
        sim, self.sim = self.sim, None
        return sim


def delivery_digest(sim) -> str:
    """SHA-256 over every delivered packet's identity and times."""
    h = hashlib.sha256()
    for p in sim.delivered_packets:
        h.update(
            f"{p.packet_id},{p.station_id},{p.arrival_time},"
            f"{p.delivered_time},{p.cost};".encode()
        )
    return h.hexdigest()


def run_fingerprint(metrics, sim) -> Tuple:
    return (metrics.delivered, metrics.backlog, metrics.collisions,
            str(metrics.horizon), sim.events_processed, delivery_digest(sim))


class Workload:
    """Shared structure; subclasses define the requests and the oracle."""

    name = ""
    #: False when the requests run in another process (the daemon).
    in_process = True

    def __init__(self, seed: int, scratch: pathlib.Path) -> None:
        self.scratch = scratch
        self.rng = random.Random(f"{self.name}:{seed}")
        self.capture = SimCapture()

    # lifecycle: in-process workloads only capture simulators
    def start(self, spool: Optional[pathlib.Path] = None) -> None:
        self.capture.install()

    def stop(self) -> Optional[float]:
        """Stop what ``start`` began; returns a daemon's peak RSS in MB."""
        self.capture.restore()
        return None

    def fresh_state(self, tag: str) -> None:
        """Point caches at a new directory (traced rounds start equal)."""

    def setup_launch(self) -> float:
        """Fresh interpreter until ready for the first request, in seconds."""
        path = self.scratch / "setup-request.json"
        if not path.exists():
            path.write_text(self.warmup()[0].request.to_json())
        return _time_until_line(
            [sys.executable, LAUNCH, "setup", str(path)], self.scratch,
            lambda line: line.strip() == "ready",
        )[0]

    def submit(self, req: Req) -> Outcome:
        from repro.service import execute

        self.capture.take()
        started = perf_counter()
        try:
            result = execute(req.request)
        except Exception as exc:  # a failed request is counted, not fatal
            return Outcome(req, perf_counter() - started,
                           error=f"{type(exc).__name__}: {exc}")
        latency = perf_counter() - started
        return self.observe(req, latency, result, self.capture.take())

    def observe(self, req: Req, latency: float, result, sim) -> Outcome:
        raise NotImplementedError

    def warmup(self) -> List[Req]:
        raise NotImplementedError

    def prime(self) -> List[Req]:
        """Untimed requests that set up the state the timed rounds expect."""
        return []

    def next_round(self) -> List[Req]:
        raise NotImplementedError

    def check(self, outcomes: List[Outcome]) -> None:
        """Compare with references; set ``error`` on every mismatch.

        References are computed once per distinct key, after the timed
        section, on up to two worker processes.
        """
        checked = [o for o in outcomes if not o.error]
        keys = list(dict.fromkeys(k for o in checked for k in self.ref_keys(o)))
        refs = compute_references(self.name, keys)
        for o in checked:
            self.compare(o, refs)

    def ref_keys(self, o: Outcome) -> List[str]:
        """JSON keys of the references ``o`` is compared with."""
        raise NotImplementedError

    @staticmethod
    def reference(key: str) -> Any:
        """The reference for one key (runs in a worker process)."""
        raise NotImplementedError

    def compare(self, o: Outcome, refs: Dict[str, Any]) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# fleet


class Fleet(Workload):
    """Large batch-eligible fleets through in-process ``run`` requests."""

    name = "fleet"
    # (class, algorithm, n, horizon, rho choices, weight per round)
    CLASSES = (
        ("rrw-n1e5", "rrw", 100_000, 6, ("1/2", "3/5", "2/3", "3/4"), 1),
        ("rrw-n1e4", "rrw", 10_000, 24, ("1/2", "3/5", "2/3", "3/4"), 1),
        ("ca-arrow-n1e4", "ca-arrow", 10_000, 24, ("1/2", "3/5", "2/3"), 1),
        ("abs-n1e4", "abs", 10_000, 16, (None,), 1),
        ("ao-arrow-n1e4", "ao-arrow", 10_000, 16, ("1/2", "3/5", "2/3"), 4),
    )

    def __init__(self, seed, scratch) -> None:
        super().__init__(seed, scratch)
        from repro.service import RunRequest
        from repro.scenarios import ScenarioSpec

        def spec(row, scenario_seed):
            cls, algorithm, n, horizon, rhos, _ = row
            return ScenarioSpec(
                algorithm=algorithm, n=n, horizon=horizon, schedule="sync",
                rho=self.rng.choice(rhos), seed=scenario_seed,
            )

        # One spec per class, repeated every round (no cache on this
        # path); the warm-up uses other scenario seeds, so no spec is shared.
        self._round = []
        self._warmup = []
        for row in self.CLASSES:
            timed = RunRequest(specs=(spec(row, self.rng.randrange(1, 10**6)),))
            warm = RunRequest(specs=(spec(row, 10**6 + self.rng.randrange(10**6)),))
            self._round += [Req(row[0], timed)] * row[5]
            self._warmup.append(Req(row[0], warm))

    def warmup(self):
        return list(self._warmup)

    def next_round(self):
        return list(self._round)

    def observe(self, req, latency, result, sim):
        return Outcome(req, latency, events=sim.events_processed,
                       observed=run_fingerprint(result.metrics, sim))

    def ref_keys(self, o):
        return [o.req.request.spec.to_json()]

    @staticmethod
    def reference(key):
        from repro.analysis import collect_metrics
        from repro.core import Trace
        from repro.scenarios import ScenarioSpec

        spec = ScenarioSpec.from_json(key)
        sim = spec.build(engine="object", trace=Trace(backlog_stride=8))
        sim.run(until_time=spec.horizon)
        return run_fingerprint(collect_metrics(sim), sim)

    def compare(self, o, refs):
        ref = refs[self.ref_keys(o)[0]]
        if o.observed != ref:
            o.error = f"mismatch: {o.observed} != reference {ref}"


# ---------------------------------------------------------------------------
# election


class Election(Workload):
    """ABS leader election through in-process ``sst`` requests."""

    name = "election"
    # Fleet size band: ±1% around 4 000, so the seed does not move the work.
    N_LOW, N_SPAN = 4_000, 40
    WEIGHTS = (("abs-sync", "sync", 1), ("abs-worst", "worst", 3))

    def __init__(self, seed, scratch) -> None:
        super().__init__(seed, scratch)
        from repro.service import RunRequest
        from repro.scenarios import ScenarioSpec

        n = self.N_LOW + self.rng.randrange(self.N_SPAN)
        warm_n = n + self.N_SPAN  # outside the timed band: no shared spec
        self._round, self._warmup = [], []
        for cls, schedule, weight in self.WEIGHTS:
            timed = RunRequest(command="sst", specs=(ScenarioSpec(
                algorithm="abs", n=n, schedule=schedule),))
            warm = RunRequest(command="sst", specs=(ScenarioSpec(
                algorithm="abs", n=warm_n, schedule=schedule),))
            self._round += [Req(cls, timed)] * weight
            self._warmup.append(Req(cls, warm))

    def warmup(self):
        return list(self._warmup)

    def next_round(self):
        return list(self._round)

    def observe(self, req, latency, result, sim):
        if not result.ok:
            return Outcome(req, latency, error=f"status {result.status}")
        sst = result.sst
        return Outcome(req, latency, events=sim.events_processed,
                       observed=(sst["winner"], str(sst["solved_at"]),
                                 sst["max_slots"]))

    def ref_keys(self, o):
        return [o.req.request.to_json()]

    @staticmethod
    def reference(key):
        """The ``repro sst`` procedure, built directly on the object engine
        (``_execute_sst`` ignores ``options.engine``)."""
        from repro.service import RunRequest

        request = RunRequest.from_json(key)
        sim = request.spec.build(engine="object")
        fleet = {i: sim.algorithm(i) for i in sim.station_ids}
        solved_at = sim.run_until_success(max_events=request.options.max_events)
        if solved_at is not None:
            sim.run(max_events=sim.events_processed + 100_000,
                    stop_when=lambda s: all(a.is_done for a in fleet.values()))
        winners = [i for i, a in fleet.items()
                   if getattr(a, "outcome", None) == "won"]
        return (winners[0] if winners else None, str(solved_at),
                sim.max_slots_elapsed())

    def compare(self, o, refs):
        ref = refs[self.ref_keys(o)[0]]
        if o.observed != ref:
            o.error = f"mismatch: {o.observed} != reference {ref}"


# ---------------------------------------------------------------------------
# sweep


class Sweep(Workload):
    """Small-cell ``grid`` requests on the fork pool with the result cache."""

    name = "sweep"
    ALGORITHMS = ("ao-arrow", "ca-arrow", "aloha", "rrw", "mbtf")
    SIZES = (8, 16)
    # Every grid executes one new cell per (algorithm, n) pair and
    # repeats as many earlier cells, so the seed never changes the work.
    NEW = len(ALGORITHMS) * len(SIZES)
    REPEATED, HORIZON = NEW, 1000

    def __init__(self, seed, scratch) -> None:
        super().__init__(seed, scratch)
        self.jobs = min(2, os.cpu_count() or 1)
        self._scenario_seed = 0
        self.fresh_state("timed")
        # The warm-up grid draws from its own seed range (never repeated);
        # the priming cells give the first timed grid its repeats.
        self._warm_cells = self._new_cells(10**7) + self._new_cells(10**7)
        self._prime_cells = self._new_cells()
        self._seen = list(self._prime_cells)

    def fresh_state(self, tag: str) -> None:
        self.cache_dir = str(self.scratch / f"cache-{tag}")

    def _new_cells(self, base: int = 0) -> list:
        from repro.scenarios import ScenarioSpec

        cells = []
        for algorithm in self.ALGORITHMS:
            for n in self.SIZES:
                self._scenario_seed += 1
                cells.append(ScenarioSpec(
                    algorithm=algorithm, n=n,
                    max_slot=self.rng.choice(("2", "5/2")),
                    rho=self.rng.choice(("1/2", "3/4")),
                    horizon=self.HORIZON,
                    seed=base + self._scenario_seed,
                ))
        return cells

    def _grid(self, cls: str, cells, new) -> Req:
        from repro.service import RunOptions, RunRequest

        return Req(cls, RunRequest(command="grid", specs=tuple(cells),
                                   options=RunOptions(jobs=self.jobs, cache=True,
                                                      cache_dir=self.cache_dir)),
                   expect_hits=len(cells) - len(new), executed=tuple(new))

    def warmup(self):
        return [self._grid("warmup", self._warm_cells, self._warm_cells)]

    def prime(self):
        """Fills the cache with the first timed grid's repeats."""
        return [self._grid("prime", self._prime_cells, self._prime_cells)]

    def next_round(self):
        new = self._new_cells()
        cells = new + self.rng.sample(self._seen, self.REPEATED)
        self._seen += new
        return [self._grid(f"grid-{len(cells)}", cells, new)]

    def submit(self, req):
        # The cache directory follows fresh_state(), so traced passes can
        # replay the same grids against an empty cache.
        return super().submit(replace(
            req, request=req.request.replace_options(cache_dir=self.cache_dir)))

    def observe(self, req, latency, result, sim):
        report = result.report
        rows = [row.as_row() for row in report.results]
        if report.failures or not result.ok:
            return Outcome(req, latency, error=f"{len(report.failures)} "
                           "cell(s) failed")
        return Outcome(req, latency, observed=(rows, result.cache_hits))

    def ref_keys(self, o):
        return [spec.to_json() for spec in o.req.request.specs]

    @staticmethod
    def reference(key):
        """The cell's result row and event count on the object engine."""
        from repro.analysis.experiments import ExperimentCell, run_cell
        from repro.scenarios import ScenarioSpec

        capture = SimCapture().install()
        try:
            cell = ExperimentCell.from_spec(ScenarioSpec.from_json(key))
            row = run_cell(cell, 8, engine="object").as_row()
            return row, capture.take().events_processed
        finally:
            capture.restore()

    def compare(self, o, refs):
        rows, hits = o.observed
        expected = [refs[key][0] for key in self.ref_keys(o)]
        if rows != expected:
            bad = next((i for i, (a, b) in enumerate(zip(rows, expected))
                        if a != b), min(len(rows), len(expected)))
            o.error = f"grid row {bad} differs from its reference"
        elif hits != o.req.expect_hits:
            o.error = f"{hits} cache hits, expected {o.req.expect_hits}"
        # Events of the cells this grid executed: its cache misses.
        o.events = sum(refs[spec.to_json()][1] for spec in o.req.executed)


# ---------------------------------------------------------------------------
# serve


class _StreamCapture:
    """The client's output stream: records every line and the first byte."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.first: Optional[float] = None

    def write(self, text: str) -> int:
        if self.first is None:
            self.first = perf_counter()
        self.lines.append(text)
        return len(text)


#: Artifact fields that hold wall-clock readings; all others must match.
WALL_CLOCK_FIELDS = {
    "manifest": (("created_at",),),
    "summary": (("wall_time_s",), ("events_per_second",),
                ("metrics", "events_per_second")),
}


def artifact_digest(lines: List[str]) -> str:
    """SHA-256 of the artifact's records without their wall-clock fields."""
    h = hashlib.sha256()
    for line in lines:
        record = json.loads(line)
        for path in WALL_CLOCK_FIELDS.get(record.get("type"), ()):
            parent = record
            for key in path[:-1]:
                parent = parent.get(key) or {}
            parent.pop(path[-1], None)
        h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


class Serve(Workload):
    """Streamed ``run`` requests to a ``repro serve`` daemon over HTTP."""

    name = "serve"
    in_process = False
    # (class, algorithm, n, horizon, schedule, weight per round)
    CLASSES = (
        ("ca-arrow-n16", "ca-arrow", 16, 400, "worst", 1),
        ("ao-arrow-n100", "ao-arrow", 100, 100, "worst", 5),
        ("rrw-n1e3", "rrw", 1000, 40, "sync", 1),
    )
    #: Repeats per round, of the round's ao-arrow requests (cache replays).
    REPLAYS = 2
    RHOS = ("1/2", "3/5", "2/3", "3/4")

    def __init__(self, seed, scratch) -> None:
        super().__init__(seed, scratch)
        self.daemon: Optional[subprocess.Popen] = None
        self.url = ""
        self._scenario_seed = 0
        self.fresh_state("timed")
        self._warmup = self._fresh_round(base=10**7)

    def fresh_state(self, tag: str) -> None:
        self.cache_dir = str(self.scratch / f"daemon-{tag}")

    def _request(self, row, base: int):
        from repro.service import RunRequest
        from repro.scenarios import ScenarioSpec

        cls, algorithm, n, horizon, schedule, _ = row
        self._scenario_seed += 1
        return Req(cls, RunRequest(specs=(ScenarioSpec(
            algorithm=algorithm, n=n, horizon=horizon, schedule=schedule,
            rho=self.rng.choice(self.RHOS),
            seed=base + self._scenario_seed),)))

    def _fresh_round(self, base: int = 0) -> List[Req]:
        reqs = [self._request(row, base)
                for row in self.CLASSES for _ in range(row[5])]
        self.rng.shuffle(reqs)
        return reqs

    def warmup(self):
        return list(self._warmup)

    def next_round(self):
        reqs = self._fresh_round()
        originals = [r for r in reqs if r.cls == "ao-arrow-n100"]
        for original in self.rng.sample(originals, self.REPLAYS):
            reqs.append(Req("replay", original.request, replay=True))
        return reqs

    # -- daemon -----------------------------------------------------------

    def _spawn(self, cache_dir: str, spool: Optional[pathlib.Path] = None):
        args = [sys.executable, LAUNCH, "serve", cache_dir]
        if spool is not None:
            args.append(str(spool))
        found = {}

        def listening(line: str) -> bool:
            match = re.search(r"listening on (http://\S+)", line)
            if match:
                found["url"] = match.group(1)
            return bool(match)

        started = perf_counter()
        _, proc = _time_until_line(args, self.scratch, listening, keep=True)
        try:
            with urllib.request.urlopen(found["url"] + "/healthz",
                                        timeout=READY_TIMEOUT_S) as response:
                if response.status != 200:
                    raise RuntimeError(f"/healthz answered {response.status}")
        except BaseException:
            _stop_daemon(proc)
            raise
        return perf_counter() - started, proc, found["url"]

    def start(self, spool=None) -> None:
        _, self.daemon, self.url = self._spawn(self.cache_dir, spool)

    def stop(self) -> Optional[float]:
        if self.daemon is None:
            return None
        peak_kb = _stop_daemon(self.daemon)
        self.daemon = None
        return None if peak_kb is None else peak_kb / 1024.0

    def setup_launch(self) -> float:
        seconds, proc, _ = self._spawn(str(self.scratch / "daemon-setup"))
        _stop_daemon(proc)
        return seconds

    def submit(self, req):
        from repro.service import submit_request

        out = _StreamCapture()
        started = perf_counter()
        try:
            envelope = submit_request(self.url, req.request, out=out,
                                      timeout=120)
        except Exception as exc:
            return Outcome(req, perf_counter() - started,
                           error=f"{type(exc).__name__}: {exc}")
        latency = perf_counter() - started
        ttfb = None if out.first is None else out.first - started
        replayed = envelope.get("served_from") == "cache"
        if replayed != req.replay:
            return Outcome(req, latency, ttfb, error=(
                f"served_from={envelope.get('served_from')!r}, expected "
                f"{'cache' if req.replay else 'exec'}"))
        events = None
        if not replayed:
            summary = json.loads(out.lines[-1]) if out.lines else {}
            events = summary.get("slot_events")
        return Outcome(req, latency, ttfb, events=events,
                       observed=artifact_digest(out.lines))

    def ref_keys(self, o):
        return [o.req.request.to_json()]

    @staticmethod
    def reference(key):
        """Digest of the artifact a local ``execute`` streams."""
        from repro.service import RunRequest, execute

        buffer = io.StringIO()
        execute(RunRequest.from_json(key), artifact_stream=buffer)
        return artifact_digest(buffer.getvalue().splitlines(True))

    def compare(self, o, refs):
        if o.observed != refs[self.ref_keys(o)[0]]:
            o.error = "streamed artifact differs from local execution"


WORKLOADS = {cls.name: cls for cls in (Fleet, Election, Sweep, Serve)}


def compute_references(name: str, keys: List[str]) -> Dict[str, Any]:
    """Every reference of ``keys``, dealt to up to two forked workers.

    Fork, not spawn: spawn starts a resource-tracker process that
    outlives the run, and the parent runs no threads at this point.
    """
    if not keys:
        return {}
    ctx = get_context("fork")
    workers = []
    for _ in range(min(2, os.cpu_count() or 1, len(keys))):
        conn, child = ctx.Pipe()
        # The fork copies every parent-side end open so far; the worker
        # closes them, so each sees EOF once the parent closes its end.
        inherited = [c for _, c in workers] + [conn]
        proc = ctx.Process(target=_reference_worker,
                           args=(name, keys, child, inherited))
        proc.start()
        child.close()
        workers.append((proc, conn))
    refs: Dict[str, Any] = {}
    pending = list(range(len(keys)))[::-1]
    busy: Dict[Any, int] = {}
    try:
        for _, conn in workers:
            if pending:
                busy[conn] = pending.pop()
                conn.send(busy[conn])
        while busy:
            for conn in wait(list(busy)):
                refs[keys[busy.pop(conn)]] = conn.recv()
                if pending:
                    busy[conn] = pending.pop()
                    conn.send(busy[conn])
    finally:
        for proc, conn in workers:
            conn.close()  # the worker sees EOF and returns
            proc.join()
    return refs


def _reference_worker(name: str, keys: List[str], conn, inherited) -> None:
    for other in inherited:
        other.close()
    while True:
        try:
            index = conn.recv()
        except EOFError:
            return
        conn.send(WORKLOADS[name].reference(keys[index]))


# ---------------------------------------------------------------------------
# helper processes


def _time_until_line(args, scratch: pathlib.Path, ready, keep: bool = False):
    """Start ``args``; seconds until a stdout line satisfies ``ready``.

    With ``keep`` the process is returned still running; otherwise it
    is waited for.
    """
    env = common.child_env(scratch)
    started = perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env,
                            cwd=str(common.ROOT), text=True)
    try:
        while True:
            remaining = READY_TIMEOUT_S - (perf_counter() - started)
            if remaining <= 0 or not select.select([proc.stdout], [], [],
                                                   remaining)[0]:
                raise RuntimeError(f"{args[2]} helper not ready in time")
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"{args[2]} helper exited before ready "
                                   f"(code {proc.wait()})")
            if ready(line):
                elapsed = perf_counter() - started
                break
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if keep:
        return elapsed, proc
    proc.stdout.read()
    proc.wait(timeout=READY_TIMEOUT_S)
    return elapsed, None


def _stop_daemon(proc: subprocess.Popen) -> Optional[int]:
    """SIGINT the daemon launcher; returns its reported peak RSS in KiB."""
    proc.send_signal(signal.SIGINT)
    try:
        tail, _ = proc.communicate(timeout=READY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None
    for line in reversed(tail.splitlines()):
        if line.startswith("{"):
            return json.loads(line).get("peak_rss_kb")
    return None
