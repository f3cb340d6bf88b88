"""Tests for the transport-agnostic run service (:mod:`repro.service`).

Three layers of contract:

* **Request** — :class:`RunRequest` round-trips through JSON exactly
  and rejects malformed documents naming the offending field.
* **Runner** — :func:`execute` produces results identical to driving
  the engine directly (the CLI's golden fixtures pin the rendered
  output; here we pin the data).
* **Server** — a live daemon streams artifacts record-identical to a
  local ``--emit-jsonl`` run, answers repeats from its cache, and
  records every submission in run-history.
"""

import io
import json
import threading

import pytest

from repro.analysis import ExperimentCell, run_grid_report
from repro.core.errors import ConfigurationError
from repro.obs import RunHistory
from repro.scenarios import ScenarioSpec
from repro.service import (
    RunOptions,
    RunRequest,
    ServiceError,
    create_server,
    execute,
    fetch_version,
    plan,
    submit_request,
)


def _spec(**overrides):
    base = dict(
        algorithm="ca-arrow", n=3, max_slot=2, schedule="worst",
        rho="1/2", horizon=400, seed=0,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestRunRequest:
    def test_json_round_trip_exact(self):
        request = RunRequest(
            specs=(_spec(),),
            command="run",
            options=RunOptions(engine="object", metrics=True, progress=5),
        )
        assert RunRequest.from_json(request.to_json()) == request

    def test_grid_round_trip_preserves_spec_order(self):
        request = RunRequest(
            specs=(_spec(rho="3/10"), _spec(rho="7/10")),
            command="grid",
            options=RunOptions(jobs=2, cache=True, retries=1),
        )
        rebuilt = RunRequest.from_json(request.to_json())
        assert rebuilt == request
        assert [s.rho for s in rebuilt.specs] == [s.rho for s in request.specs]

    def test_single_spec_key_accepted(self):
        document = {"spec": _spec().canonical(), "command": "run"}
        assert RunRequest.from_json(document).spec == _spec()

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(bogus=1), "unknown request key(s): bogus"),
            (lambda d: d.update(request=99), "unsupported schema version"),
            (lambda d: d.update(command="fly"), "command:"),
            (lambda d: d.pop("specs"), "specs: required key is missing"),
            (lambda d: d["options"].update(jobs=-1), "options.jobs"),
            (lambda d: d["options"].update(warp=9), "options: unknown key(s): warp"),
            (lambda d: d["options"].update(engine="steam"), "options.engine"),
            (lambda d: d["specs"][0].update(n=0), "specs[0]"),
        ],
    )
    def test_validation_names_offending_field(self, mutate, fragment):
        document = RunRequest(specs=(_spec(),)).canonical()
        mutate(document)
        with pytest.raises(ConfigurationError, match=None) as excinfo:
            RunRequest.from_json(document)
        assert fragment in str(excinfo.value)

    def test_malformed_json_text(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            RunRequest.from_json("{not json")

    def test_run_takes_exactly_one_spec(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            RunRequest(specs=(_spec(), _spec(seed=1)), command="run")

    def test_sst_plan_rejects_dynamic_algorithm(self):
        request = RunRequest(specs=(_spec(),), command="sst")
        with pytest.raises(ConfigurationError, match="not an SST algorithm"):
            plan(request)

    def test_sst_plan_rejects_forced_batch_engine(self):
        spec = ScenarioSpec(algorithm="abs", n=4, schedule="worst", rho=None)
        request = RunRequest(
            specs=(spec,), command="sst", options=RunOptions(engine="batch")
        )
        with pytest.raises(ConfigurationError, match="options.engine"):
            plan(request)


class TestExecuteParity:
    def test_run_matches_direct_engine_drive(self):
        spec = _spec()
        result = execute(RunRequest(specs=(spec,)))
        sim = spec.build()
        sim.run(until_time=spec.horizon)
        from repro.analysis import collect_metrics

        direct = collect_metrics(sim)
        assert result.ok
        assert result.metrics.delivered == direct.delivered
        assert result.metrics.backlog == direct.backlog
        assert result.metrics.collisions == direct.collisions
        assert result.engine == sim.engine
        assert result.served_from == "exec"

    def test_grid_matches_run_grid_report(self):
        specs = (_spec(rho="3/10"), _spec(rho="7/10"))
        result = execute(RunRequest(specs=specs, command="grid"))
        report = run_grid_report(
            [ExperimentCell.from_spec(s) for s in specs], backlog_stride=8
        )
        assert result.ok
        assert [r.metrics.delivered for r in result.report.results] == [
            r.metrics.delivered for r in report.results
        ]
        assert [r.stable for r in result.report.results] == [
            r.stable for r in report.results
        ]

    def test_grid_cache_served_second_time(self, tmp_path):
        options = RunOptions(cache=True, cache_dir=str(tmp_path / "cache"))
        request = RunRequest(specs=(_spec(),), command="grid", options=options)
        first = execute(request)
        second = execute(request)
        assert first.cache_hits == 0
        assert second.cache_hits == 1
        assert second.served_from == "cache"

    def test_sst_solves_and_reports_bound(self):
        spec = ScenarioSpec(
            algorithm="abs", n=4, max_slot=2, schedule="worst",
            seed=0, rho=None,
        )
        result = execute(RunRequest(specs=(spec,), command="sst"))
        assert result.ok
        assert result.sst["solved_at"] is not None
        assert result.sst["max_slots"] <= result.sst["bound"]

    @pytest.mark.parametrize("schedule", ["worst", "sync"])
    def test_sst_honours_engine_and_timebase_options(self, schedule):
        pytest.importorskip("numpy")
        spec = ScenarioSpec(
            algorithm="abs", n=40, max_slot=2, schedule=schedule,
            seed=0, rho=None,
        )

        def sst(**options):
            return execute(RunRequest(
                specs=(spec,), command="sst", options=RunOptions(**options)
            ))

        auto = sst()
        results = [
            (sst(engine="object"), "object", "lattice"),
            (sst(engine="object", timebase="fraction"), "object", "fraction"),
            (sst(timebase="fraction"), "object", "fraction"),
        ]
        assert auto.engine == "batch"
        for result, engine, timebase in [(auto, "batch", "lattice")] + results:
            assert result.ok
            assert result.sst == auto.sst
            assert result.engine == engine
            assert result.timebase.startswith(timebase)

    def test_artifact_stream_receives_records(self):
        stream = io.StringIO()
        result = execute(
            RunRequest(specs=(_spec(),)), artifact_stream=stream
        )
        assert result.ok
        records = [json.loads(line) for line in
                   stream.getvalue().splitlines() if line]
        kinds = {r["type"] for r in records}
        assert "manifest" in kinds and "summary" in kinds

    def test_emit_jsonl_unwritable_path_names_it(self, tmp_path):
        options = RunOptions(emit_jsonl=str(tmp_path / "no" / "dir" / "o.jsonl"))
        with pytest.raises(ConfigurationError, match="cannot write"):
            execute(RunRequest(specs=(_spec(),), options=options))


@pytest.fixture()
def daemon(tmp_path):
    server = create_server(
        "127.0.0.1", 0, cache_dir=str(tmp_path / "serve-cache"), quiet=True
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestServer:
    def test_version_endpoint(self, daemon):
        _, url = daemon
        from repro import __version__

        payload = fetch_version(url)
        assert payload["version"] == __version__
        assert "git_sha" in payload and "request_schema" in payload

    def test_streamed_artifact_matches_local_run(self, daemon, tmp_path):
        _, url = daemon
        request = RunRequest(specs=(_spec(),))
        out = io.StringIO()
        envelope = submit_request(url, request, out=out, timeout=30)
        assert envelope["status"] == "ok"
        assert envelope["served_from"] == "exec"

        local_path = tmp_path / "local.jsonl"
        execute(request.replace_options(emit_jsonl=str(local_path)))

        def events(text):
            return [
                json.loads(line) for line in text.splitlines()
                if line and json.loads(line).get("type")
                not in ("manifest", "summary")
            ]

        assert events(out.getvalue()) == events(local_path.read_text())

    def test_second_submission_is_cache_served(self, daemon):
        server, url = daemon
        request = RunRequest(specs=(_spec(seed=7),))
        first = submit_request(url, request, timeout=30)
        out = io.StringIO()
        second = submit_request(url, request, out=out, timeout=30)
        assert first["served_from"] == "exec"
        assert second["served_from"] == "cache"
        # The cached replay still streams the full artifact.
        assert any(
            json.loads(line).get("type") == "summary"
            for line in out.getvalue().splitlines() if line
        )
        history = RunHistory(server.history_db)
        serves = history.query(kind="serve")
        assert len(serves) == 2
        assert history.query(kind="serve", served="cache")[0].cache_hits == 1

    def test_grid_submission_streams_result_rows(self, daemon):
        _, url = daemon
        request = RunRequest(
            specs=(_spec(rho="3/10"), _spec(rho="7/10")), command="grid"
        )
        out = io.StringIO()
        envelope = submit_request(url, request, out=out, timeout=60)
        assert envelope["status"] == "ok"
        assert envelope["cells"] == 2
        rows = [json.loads(line) for line in out.getvalue().splitlines()
                if line]
        assert [r["type"] for r in rows] == ["result", "result"]
        assert all(r["stable"] in (True, False) for r in rows)

    def test_invalid_request_is_400_naming_field(self, daemon):
        _, url = daemon

        class Bad:
            def to_json(self, indent=None):
                document = RunRequest(specs=(_spec(),)).canonical()
                document["options"]["jobs"] = -1
                return json.dumps(document)

        with pytest.raises(ServiceError, match="options.jobs"):
            submit_request(url, Bad(), timeout=30)

    def test_client_paths_are_sanitized_away(self, daemon, tmp_path):
        _, url = daemon
        evil = str(tmp_path / "evil.jsonl")
        request = RunRequest(
            specs=(_spec(seed=3),),
            options=RunOptions(emit_jsonl=evil, trace=str(tmp_path / "t.json")),
        )
        envelope = submit_request(url, request, timeout=30)
        assert envelope["status"] == "ok"
        assert not (tmp_path / "evil.jsonl").exists()
        assert not (tmp_path / "t.json").exists()

    def test_unknown_endpoint_404(self, daemon):
        _, url = daemon
        with pytest.raises(ServiceError, match="no such endpoint"):
            fetch_version(url + "/nope")

    def test_unreachable_daemon(self):
        with pytest.raises(ServiceError, match="cannot reach"):
            fetch_version("http://127.0.0.1:1", timeout=2)
