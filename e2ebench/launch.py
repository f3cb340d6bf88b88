"""Helper processes of the benchmark, each a fresh interpreter.

``python3 e2ebench/launch.py setup REQUEST.json``
    Import ``repro.service``, parse the request and ``plan()`` it, then
    print ``ready``: the set-up a user pays before a first in-process
    request.

``python3 e2ebench/launch.py serve CACHE_DIR [SPOOL_DIR]``
    Run the public ``repro serve`` entry point on a free localhost port.
    With ``SPOOL_DIR`` the layer wrappers of ``spans.py`` are installed
    first and spool their spans there.  On SIGINT the daemon stops and
    this process prints ``{"peak_rss_kb": ...}``.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys

import common


def setup(request_path: str) -> int:
    common.use_checkout_sources()
    common.quiet_storage()
    from repro.service import RunRequest, plan

    plan(RunRequest.from_json(pathlib.Path(request_path).read_text()))
    print("ready", flush=True)
    return 0


def serve(cache_dir: str, spool: str = "") -> int:
    common.use_checkout_sources()
    common.quiet_storage()
    from repro.service import serve_forever

    if spool:
        import spans

        spans.install(spans.SpanStore(pathlib.Path(spool), spooling=True))
    try:
        serve_forever("127.0.0.1", 0, cache_dir, quiet=True)
    finally:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"peak_rss_kb": peak}), flush=True)
    return 0


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "serve": serve}[mode](*rest))
