"""Paths and process hygiene shared by the benchmark and its helper processes.

Every process that executes the program under test -- the benchmark
itself, its set-up probes and the ``repro serve`` daemon it spawns --
imports ``repro`` from the checkout's ``src/`` and applies
:func:`quiet_storage` before the first request.
"""

from __future__ import annotations

import os
import pathlib
import sqlite3
import sys

#: The root of the checkout: this file lives in ``<root>/e2ebench/``.
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def use_checkout_sources() -> None:
    """Import ``repro`` from ``<root>/src`` and from nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = pathlib.Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingProgram(f"repro was imported from {origin}, not {SRC}")


def child_env(scratch: pathlib.Path) -> dict:
    """Environment for helper processes: checkout sources, scratch files."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_HISTORY_DB"] = str(scratch / "history.db")
    env["TMPDIR"] = str(scratch / "tmp")
    env.pop("REPRO_NO_HISTORY", None)
    return env


def quiet_storage() -> None:
    """Open every SQLite database with ``synchronous = OFF``.

    The run-history index commits one row per request.  With SQLite's
    default ``synchronous = FULL`` each commit waits for fsync, which on
    a shared disk takes 25-110 ms and varies run to run.  ``OFF`` is
    what a tmpfs scratch directory gives (fsync is a no-op there), but
    keeps every file inside the checkout.  The row is still written, so
    the history layer's time still shows in every request.
    """
    connect = sqlite3.connect
    if getattr(connect, "_e2ebench_quiet", False):
        return

    def quiet_connect(*args, **kwargs):
        connection = connect(*args, **kwargs)
        connection.execute("PRAGMA synchronous = OFF")
        return connection

    quiet_connect._e2ebench_quiet = True
    sqlite3.connect = quiet_connect
