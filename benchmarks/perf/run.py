#!/usr/bin/env python3
"""Perf ledger: the simulator's host cost, end to end and layer by layer.

Run from the repository root::

    python benchmarks/perf/run.py                    # all workloads, R=5
    python benchmarks/perf/run.py --workload testbed --repeat 3 --trace
    python benchmarks/perf/run.py --check            # + reference gate
    python benchmarks/perf/run.py compare A.json B.json

Every repetition of a workload runs in a fresh child process
(``workloads.py``), one child at a time, and the workload order rotates
between repetitions.  The child generates its inputs from ``--seed``,
times the program's public calls from outside and checks its outputs;
this parent aggregates medians and quartiles, checks that every child
produced the same outputs and counters, prints every metric with its
unit and writes one JSON document.  ``--trace`` adds one traced child
per workload for the per-layer breakdown.

While a child waits after its set-up and after its run, the parent
times a fixed calibration job (:func:`calibrate`).  Every end-to-end
time is reported in reference seconds: the child's time scaled by how
much slower than on the reference host the calibrations next to it
ran.

With ``--seconds N`` the harness instead measures one workload for
about N seconds — as many timed children as fit, or timed and traced
pairs with ``--trace 1`` — and prints one JSON object as its last line
(the ``BENCHMARK.json`` contract).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

from metrics import (  # noqa: E402
    DEFAULT_SEED, END_TO_END, END_TO_END_BY_NAME, PAUSE_LINE,
    UNIFORM_END_TO_END, UNIFORM_LAYER, WORKLOADS, is_exact, layer_metrics,
    quartiles, trimmed_mean, unit_of)

REFERENCE = HERE / "reference.json"
RESULT_PREFIX = "PERF-RESULT "

#: A child that has not finished by then is killed with its process
#: group (dispatch workers included) and counted as failed.
CHILD_TIMEOUT_S = 150.0

#: ``--seconds`` runs set the workload up at least this many times.
MIN_SETUPS = 3

#: Per-layer times measured by every child around its set-up calls,
#: reported as the median over the timed children.
SETUP_PARTS = {"net.session.build_s": "build_s",
               "traffic.arrivals_s": "arrivals_s",
               "runner.fingerprint_s": "fingerprint_s"}

#: Seconds :func:`calibrate` takes on the reference host (2-vCPU Xeon,
#: Python 3.11.7) at full speed.
CALIBRATION_REF_S = 0.08

_active: subprocess.Popen | None = None


def calibrate() -> float:
    """Seconds this host takes, right now, for a fixed interpreter loop.

    On a shared host the speed of the program swings by tens of percent
    within seconds to minutes, and this loop's with it.  Of the jobs
    tried, plain integer arithmetic tracked the simulator best: its
    time moved in proportion with a child's run time, where a random
    walk over a large list moved about twice as much.
    """
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def _kill_group(pid: int) -> None:
    """Kill a child and its dispatch workers (one process group)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already gone


def _stop_active(signum: int, _frame: Any) -> None:
    """Take the running child and its workers down with the parent."""
    if _active is not None and _active.poll() is None:
        _kill_group(_active.pid)
        _active.wait()
    sys.exit(128 + signum)


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, size: str, mode: str) -> dict[str, Any]:
    """Run one child to completion; its result plus ``wall_s`` (spawn to
    exit) and the factors that turn its times into reference seconds.

    The child pauses after its set-up and after its run; in each pause
    this process times :func:`calibrate`, so the calibrations sit right
    next to the measured phases and never overlap the child's work.
    ``setup_scale`` comes from the first, ``scale`` (run and wall time)
    from both.  A child that crashes or times out comes back as one
    failed operation.
    """
    global _active
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--size", size, "--mode", mode, "--pause"]
    lines: list[str] = []
    calibrations: list[float] = []
    paused_s = 0.0
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, start_new_session=True) as proc:
        _active = proc
        watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group,
                                   (proc.pid,))
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.rstrip("\n") != PAUSE_LINE:
                    lines.append(line)
                    continue
                began = time.perf_counter()
                calibrations.append(calibrate())
                try:
                    proc.stdin.write("\n")
                    proc.stdin.flush()
                except BrokenPipeError:
                    pass  # the child died; its exit code tells
                paused_s += time.perf_counter() - began
            proc.wait()
        finally:
            watchdog.cancel()
            _active = None
    wall_s = time.perf_counter() - start - paused_s
    factors = [CALIBRATION_REF_S / c for c in calibrations] or [1.0]
    scales = {"setup_scale": factors[0],
              "scale": sum(factors) / len(factors)}
    result = None
    for line in reversed(lines):
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
            break
    if proc.returncode != 0 or result is None:
        tail = " | ".join("".join(lines).strip().splitlines()[-3:])
        return {"workload": workload, "mode": mode, "crashed": True,
                "attempted": 1, "failed": 1, "digests": [],
                "errors": [f"child exited with {proc.returncode}: {tail}"],
                "wall_s": wall_s, **scales}
    result["wall_s"] = wall_s
    result.update(scales)
    return result


def _exact_counters(child: dict[str, Any]) -> dict[str, float]:
    merged = {**child.get("counters", {}), **child.get("layer", {})}
    return {name: value for name, value in merged.items()
            if is_exact(name)}


def audit(children: list[dict[str, Any]],
          reference: dict[str, Any] | None = None) -> None:
    """Cross-check children of one workload, seed and size.

    Every child must reproduce the same outputs (results digests) and
    the same exact counters — traced children included — and, when a
    reference entry is given, the reference's digests and counters.  A
    child that misses them has all its operations marked failed.
    """
    ran = [c for c in children
           if not c.get("crashed") and c.get("digests")]
    if not ran:
        return
    if reference is not None:
        digests = reference["digests"]
        counters = reference["counters"]
        source = "reference.json"
    else:
        digests = ran[0]["digests"]
        counters = _exact_counters(ran[0])
        source = "the first child"
    for child in ran:
        problems = []
        if child["digests"] != digests:
            problems.append(f"results digests differ from {source}")
        mine = _exact_counters(child)
        differing = sorted(name for name in mine.keys() & counters.keys()
                           if mine[name] != counters[name])
        if differing:
            problems.append(f"counters differ from {source}: "
                            + ", ".join(f"{name} {mine[name]} != "
                                        f"{counters[name]}"
                                        for name in differing[:4]))
        if problems:
            child["failed"] = child["attempted"]
            child["errors"].extend(problems)
        if reference is None:
            # Traced children add counters the first child lacks.
            for name, value in mine.items():
                counters.setdefault(name, value)


def _load_reference(size: str, seed: int, check: bool
                    ) -> dict[str, Any] | None:
    """The reference entries for this size, when ``--check`` applies
    them: only the default seed has recorded outputs."""
    if not check or seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(size)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _median(values: list[float]) -> float:
    return quartiles(values)[1]


def end_to_end_values(workload: str, timed: list[dict[str, Any]],
                      setups: list[dict[str, Any]]
                      ) -> dict[str, list[float]]:
    """Per-metric value lists, one value per timed child (``setup_s``
    also counts set-up-only children); times in reference seconds."""
    ok = [c for c in timed if not c.get("crashed")]
    values: dict[str, list[float]] = {
        "wall_s": [c["wall_s"] * c["scale"] for c in ok],
        "setup_s": [c["setup"]["setup_s"] * c["setup_scale"]
                    for c in ok + setups if not c.get("crashed")],
        "run_s": [c["run_s"] * c["scale"] for c in ok],
        "peak_rss_mb": [c["peak_rss_mb"] for c in ok],
    }
    for metric in END_TO_END:
        if metric.name not in values and workload in metric.workloads \
                and metric.name != "failed_share":
            values[metric.name] = [
                c["throughput"][metric.name] / c["scale"] for c in ok]
    attempted = sum(c["attempted"] for c in timed)
    failed = sum(c["failed"] for c in timed)
    values["failed_share"] = [failed / attempted if attempted else 1.0]
    return {name: vals for name, vals in values.items() if vals}


def layer_values(workload: str, timed: list[dict[str, Any]],
                 traced: list[dict[str, Any]]) -> dict[str, list[float]]:
    """Per-layer samples: counts and run-phase times from the traced
    children, set-up parts from the timed children."""
    ok_timed = [c for c in timed if not c.get("crashed")]
    ok_traced = [c for c in traced if not c.get("crashed")]
    values: dict[str, list[float]] = {}
    for name in layer_metrics(workload):
        part = SETUP_PARTS.get(name)
        if part is not None:
            samples = [c["setup"][part] for c in ok_timed]
        elif name == "trace.overhead_ratio":
            samples = []
            if ok_traced and ok_timed:
                samples = [_median([c["traceable_s"] * c["scale"]
                                    for c in ok_traced])
                           / _median([c["traceable_s"] * c["scale"]
                                      for c in ok_timed])]
        else:
            source = ok_traced or ok_timed
            samples = [{**c["counters"], **c["layer"]}[name]
                       for c in source
                       if name in c["counters"] or name in c["layer"]]
        if samples:
            values[name] = samples
    return values


def summary_row(values: list[float]) -> dict[str, Any]:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def _print_row(name: str, unit: str, row: dict[str, Any]) -> None:
    print(f"  {name:<36} {unit:<9} median {row['median']:<14.6g} "
          f"q1 {row['q1']:<14.6g} q3 {row['q3']:<14.6g} n {row['n']}")


# ----------------------------------------------------------------------
# --seconds: one workload, one measurement window
# ----------------------------------------------------------------------
def measure_window(workload: str, seed: int, seconds: float, trace: bool,
                   size: str, check: bool) -> int:
    """Measure one workload for about ``seconds``; last line is JSON.

    A child is started only while the previous one's duration still
    fits in the window, so a window holds at least one child and
    rarely overruns.  Without tracing the window then tops set-up-only
    children up to :data:`MIN_SETUPS` set-ups.  Each metric reports
    the :func:`trimmed_mean` of its children's values.
    """
    start = time.perf_counter()

    def fits(estimate: float) -> bool:
        return time.perf_counter() - start + estimate <= seconds

    timed: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    setups: list[dict[str, Any]] = []
    while True:
        began = time.perf_counter()
        timed.append(spawn(workload, seed, size, "timed"))
        if trace:
            traced.append(spawn(workload, seed, size, "traced"))
        if not fits(time.perf_counter() - began):
            break
    while not trace and len(timed) + len(setups) < MIN_SETUPS:
        if setups or timed[0].get("crashed"):
            estimate = (setups or timed)[-1]["wall_s"]
        else:  # the child's own set-up plus interpreter start and exit
            estimate = timed[0]["setup"]["setup_s"] + 0.5
        if not fits(estimate):
            break
        setups.append(spawn(workload, seed, size, "setup"))

    reference = _load_reference(size, seed, check)
    audit(timed + traced,
          reference.get(workload) if reference is not None else None)
    children = timed + traced + setups
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for child in children:
        for error in child.get("errors", []):
            print(f"FAILED [{child['mode']}]: {error}")

    metrics: dict[str, dict[str, Any]] = {}
    print(f"{workload} (seed {seed}, {len(timed)} timed, "
          f"{len(traced)} traced, {len(setups)} set-up-only children)")
    if trace:
        # A layer the workload bypasses reads 0.
        values = layer_values(workload, timed, traced)
        names, units = UNIFORM_LAYER, {n: unit_of(n) for n in UNIFORM_LAYER}
    else:
        values = end_to_end_values(workload, timed, setups)
        names = UNIFORM_END_TO_END
        units = {n: END_TO_END_BY_NAME[n].unit for n in names}
    for name in names:
        if trace or name in values:
            samples = values.get(name, [0])
            _print_row(name, units[name], summary_row(samples))
            metrics[name] = {"value": trimmed_mean(samples),
                             "unit": units[name]}
    expected = UNIFORM_LAYER if trace else UNIFORM_END_TO_END
    correct = failed == 0 and set(metrics) == set(expected)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed if correct else max(1, failed),
                      "metrics": metrics}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# ledger: several workloads, R repetitions each
# ----------------------------------------------------------------------
def _machine() -> dict[str, Any]:
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "git_revision": revision}


def run_ledger(workloads: list[str], seed: int, repeat: int, trace: bool,
               size: str, check: bool) -> dict[str, Any]:
    timed: dict[str, list[dict[str, Any]]] = {w: [] for w in workloads}
    for rep in range(repeat):
        shift = rep % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            print(f"[{rep + 1}/{repeat}] {workload} ...", flush=True)
            timed[workload].append(spawn(workload, seed, size, "timed"))
    traced: dict[str, list[dict[str, Any]]] = {w: [] for w in workloads}
    if trace:
        for workload in workloads:
            print(f"[trace] {workload} ...", flush=True)
            traced[workload].append(spawn(workload, seed, size, "traced"))

    reference = _load_reference(size, seed, check)
    document: dict[str, Any] = {
        "schema": 1, "machine": _machine(),
        "settings": {"seed": seed, "repeat": repeat, "size": size,
                     "trace": trace, "check": reference is not None},
        "workloads": {}}
    for workload in workloads:
        children = timed[workload] + traced[workload]
        audit(children, reference.get(workload)
              if reference is not None else None)
        end_to_end = {
            name: {"unit": END_TO_END_BY_NAME[name].unit,
                   "better": END_TO_END_BY_NAME[name].better,
                   **summary_row(values)}
            for name, values in end_to_end_values(
                workload, timed[workload], []).items()}
        per_layer = {name: {"unit": unit_of(name), **summary_row(values)}
                     for name, values in layer_values(
                         workload, timed[workload],
                         traced[workload]).items()}
        ok = [c for c in children if not c.get("crashed")]
        document["workloads"][workload] = {
            "correct": all(c["failed"] == 0 for c in children),
            "errors": [e for c in children for e in c.get("errors", [])],
            "digests": ok[0]["digests"] if ok else [],
            "counters": _exact_counters(ok[-1]) if ok else {},
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "spans": traced[workload][0].get("spans", [])
            if traced[workload] else [],
        }
    return document


def print_ledger(document: dict[str, Any]) -> None:
    for workload, entry in document["workloads"].items():
        status = "ok" if entry["correct"] else "FAILED"
        print(f"\n{workload}: {status}")
        for error in entry["errors"]:
            print(f"  FAILED: {error}")
        for name, row in {**entry["end_to_end"],
                          **entry["per_layer"]}.items():
            _print_row(name, row["unit"], row)


def history_line(document: dict[str, Any], label: str) -> dict[str, Any]:
    """One ``history.jsonl`` record: medians only, one line per set."""
    return {
        "label": label,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": document["machine"],
        "settings": document["settings"],
        "correct": all(w["correct"]
                       for w in document["workloads"].values()),
        "medians": {workload: {name: row["median"]
                               for name, row in entry["end_to_end"].items()}
                    for workload, entry in document["workloads"].items()},
    }


def write_reference(document: dict[str, Any]) -> None:
    """Record this run's digests and exact counters as the reference
    for its size (default seed, traced runs only)."""
    settings = document["settings"]
    if settings["seed"] != DEFAULT_SEED or not settings["trace"]:
        raise SystemExit("--write-reference needs the default seed "
                         f"({DEFAULT_SEED}) and --trace")
    reference = (json.loads(REFERENCE.read_text())
                 if REFERENCE.exists() else {"seed": DEFAULT_SEED})
    table = reference.setdefault(settings["size"], {})
    for workload, entry in document["workloads"].items():
        if not entry["correct"]:
            raise SystemExit(f"{workload} failed; not recording it")
        table[workload] = {"digests": entry["digests"],
                           "counters": entry["counters"]}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(metric_name: str, base: dict[str, Any],
            change: dict[str, Any]) -> tuple[str, int, int]:
    """``(verdict, wins, pairs)`` for one workload x metric.

    Pairs are the i-th runs of each side.  *improved* needs the change
    to win at least 9 in 10 pairs and its median to differ from the
    base's by more than the base's interquartile range; *worse* means
    the median moved past the metric's bound; a spread wider than the
    bound leaves the metric *unresolved*; otherwise it is *within
    bound*.
    """
    metric = END_TO_END_BY_NAME[metric_name]
    sign = 1.0 if metric.better == "lower" else -1.0
    pairs = list(zip(base["values"], change["values"]))
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    gain = sign * (base["median"] - change["median"])
    if metric.absolute:
        allowed = metric.bound
    else:
        allowed = max(metric.bound * abs(base["median"]), metric.floor)
    if pairs and wins >= 0.9 * len(pairs) \
            and gain > base["q3"] - base["q1"]:
        return "improved", wins, len(pairs)
    if -gain > allowed:
        return "worse", wins, len(pairs)
    spread = max(row["q3"] - row["q1"] for row in (base, change))
    if not metric.absolute and spread > allowed:
        return "unresolved", wins, len(pairs)
    return "within bound", wins, len(pairs)


def compare(base_doc: dict[str, Any], change_doc: dict[str, Any]) -> int:
    """Print one row per workload x metric; 1 if anything got worse or
    an exact counter moved."""
    status = 0
    for workload, base in base_doc["workloads"].items():
        change = change_doc["workloads"].get(workload)
        if change is None:
            continue
        print(f"\n{workload}")
        for name, row_a in base["end_to_end"].items():
            row_b = change["end_to_end"].get(name)
            if row_b is None:
                continue
            result, wins, pairs = verdict(name, row_a, row_b)
            status |= result == "worse"
            print(f"  {name:<22} {row_a['unit']:<6}"
                  f" A {row_a['median']:<11.5g}[{row_a['q1']:.5g}, "
                  f"{row_a['q3']:.5g}]  B {row_b['median']:<11.5g}"
                  f"[{row_b['q1']:.5g}, {row_b['q3']:.5g}]  "
                  f"wins {wins}/{pairs}  {result}")
        counters_a, counters_b = base["counters"], change["counters"]
        moved = sorted(name for name in counters_a.keys()
                       & counters_b.keys()
                       if counters_a[name] != counters_b[name])
        shared = len(counters_a.keys() & counters_b.keys())
        print(f"  exact counters: {shared - len(moved)}/{shared} equal")
        for name in moved:
            print(f"    {name}: {counters_a[name]} -> {counters_b[name]}")
        status |= bool(moved)
        if base["digests"] != change["digests"]:
            print("  results digests differ")
            status = 1
    return status


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base", type=Path)
        parser.add_argument("change", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(json.loads(args.base.read_text()),
                       json.loads(args.change.read_text()))

    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="subcommand: run.py compare BASE.json CHANGE.json")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--size", choices=("full", "small"),
                        default="full")
    parser.add_argument("--check", action="store_true",
                        help="at the default seed, also require the "
                             "digests and exact counters of "
                             "reference.json; exit 1 on any failure")
    parser.add_argument("--seconds", type=float,
                        help="measure one workload for about this long "
                             "and print the result as JSON")
    parser.add_argument("--out", type=Path, default=Path("perf-ledger.json"))
    parser.add_argument("--history", type=Path,
                        help="append this run's medians to a JSONL file, "
                             "labelled with the --out file's stem")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _stop_active)

    if args.seconds is not None:
        if len(args.workload) != 1:
            parser.error("--seconds measures exactly one --workload")
        return measure_window(args.workload[0], args.seed, args.seconds,
                              bool(args.trace), args.size, args.check)

    document = run_ledger(list(args.workload), args.seed, args.repeat,
                          bool(args.trace), args.size, args.check)
    print_ledger(document)
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True)
                        + "\n")
    print(f"\nwrote {args.out}")
    if args.history is not None:
        with args.history.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(history_line(document, args.out.stem),
                                    sort_keys=True) + "\n")
    if args.write_reference:
        write_reference(document)
        print(f"wrote {REFERENCE}")
    failed = not all(w["correct"] for w in document["workloads"].values())
    return 1 if failed and args.check else 0


if __name__ == "__main__":
    sys.exit(main())
