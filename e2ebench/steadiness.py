"""Steadiness report: is each end-to-end metric steadier than its bound?

    python3 e2ebench/steadiness.py --workloads fleet,serve --seeds 1-10 --sets 2

Runs ``run.py`` once per (set, workload, seed), each in a fresh
process, then prints for every workload and end-to-end metric the
median and the quartile spread of each set's values, as a share of
the median, next to the metric's bound from ``BENCHMARK.json``.

* ``SPREAD!`` marks a spread wider than a third of the bound (the
  target) and ``SPREAD!!`` one wider than the bound itself; the spread
  of ``setup_s`` is informational.
* With two or more sets, ``DRIFT!`` marks a set whose median is worse
  than the first set's by more than the bound.
* ``--holdout SEED`` adds one run on a seed outside the set and prints
  how far each of its metrics lies from the first set's median.

The exit code is 1 when any run failed or any flag was raised.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: Dict, base: float, value: float) -> float:
    """How much worse ``value`` is than ``base``, as a share of ``base``."""
    change = (value - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--holdout", type=int)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    metrics = bench["end_to_end"]
    flagged = False
    for workload in args.workloads.split(","):
        sets: List[Dict[str, List[float]]] = []
        for _ in range(args.sets):
            values: Dict[str, List[float]] = {m["name"]: [] for m in metrics}
            for seed in seeds:
                out = run_once(workload, seed, args.seconds)
                if not out["correct"]:
                    print(f"{workload} seed {seed}: INCORRECT "
                          f"({out['failed']}/{out['attempted']} failed)")
                    flagged = True
                for m in metrics:
                    values[m["name"]].append(out["metrics"][m["name"]]["value"])
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{m['name']}={values[m['name']][-1]:.5g}" for m in metrics),
                    flush=True)
            sets.append(values)
        holdout = run_once(workload, args.holdout, args.seconds) \
            if args.holdout is not None else None
        print(f"\n{workload}  ({len(seeds)} seeds x {args.sets} set(s), "
              f"{args.seconds}s runs)")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = statistics.median(sets[0][name])
            cells = []
            for index, values in enumerate(set_[name] for set_ in sets):
                med, sp = statistics.median(values), spread(values)
                flag = ""
                if name != "setup_s" and sp > bound:
                    flag = " SPREAD!!"
                elif name != "setup_s" and sp > bound / 3:
                    flag = " SPREAD!"
                if index and worse_by(m, first, med) > bound:
                    flag += " DRIFT!"
                flagged = flagged or bool(flag)
                cells.append(f"{med:12.5g} ±{sp * 100:5.1f}%{flag}")
            line = f"  {name:16s} bound {bound * 100:4.1f}%  " + "  ".join(cells)
            if holdout is not None:
                value = holdout["metrics"][name]["value"]
                line += f"  holdout {value:.5g} ({(value - first) / first * 100:+.1f}%)"
            print(line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
