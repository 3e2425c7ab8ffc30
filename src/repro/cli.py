"""Command-line interface: regenerate the paper's analyses from a shell.

Usage (after installation)::

    urllc5g table1                # the feasibility matrix
    urllc5g fig4                  # DM worst cases
    urllc5g journey               # the traced ping breakdown (Fig 3)
    urllc5g fig6 --packets 400    # testbed latency distributions
    urllc5g sweep                 # slot duration × radio latency
    urllc5g technologies          # Wi-Fi / Bluetooth / mmWave (§9)
    urllc5g check src/            # static analysis (docs/ANALYSIS.md)
    urllc5g check --determinism   # same-seed trace-digest comparison
    urllc5g bench smoke           # run a named campaign (docs/CAMPAIGNS.md)
    urllc5g bench smoke --check benchmarks/baselines/smoke.json
    urllc5g chaosdispatch --campaign smoke   # crash-point certification

or ``python -m repro.cli <command>``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.report import render_table, render_worst_case_bars
from repro.analysis.stats import histogram
from repro.baselines.bluetooth import BluetoothPiconet
from repro.baselines.mmwave import MmWaveBaseline
from repro.baselines.wifi import WifiBaseline
from repro.core.budget import slot_duration_sweep
from repro.core.design_space import feasibility_matrix, render_table1
from repro.core.journey import reconstruct_ping_journey
from repro.core.latency_model import LatencyModel
from repro.mac.catalog import minimal_dm, testbed_dddu
from repro.mac.types import AccessMode, Direction
from repro.net.session import RanConfig, RanSystem
from repro.phy.timebase import tc_from_ms
from repro.radio.interface import usb3
from repro.radio.os_jitter import gpos
from repro.radio.radio_head import RadioHead
from repro.sim.rng import RngRegistry
from repro.traffic.generators import uniform_in_horizon

__all__ = ["build_parser", "main"]


def _cmd_table1(args: argparse.Namespace) -> None:
    print(render_table1(feasibility_matrix(mu=args.mu)))


def _cmd_fig4(args: argparse.Namespace) -> None:
    model = LatencyModel(minimal_dm(mu=args.mu))
    entries = {
        "Grant-free UL": model.extremes(
            Direction.UL, AccessMode.GRANT_FREE).worst_tc,
        "Grant-based UL": model.extremes(
            Direction.UL, AccessMode.GRANT_BASED).worst_tc,
        "DL": model.extremes(Direction.DL).worst_tc,
    }
    print(render_worst_case_bars(entries, tc_from_ms(0.5)))


def _testbed(access: AccessMode, seed: int, trace: bool = False
             ) -> RanSystem:
    radio_head = RadioHead("b210", usb3(), gpos())
    return RanSystem(testbed_dddu(),
                     RanConfig(access=access, gnb_radio_head=radio_head,
                               seed=seed, trace=trace))


def _cmd_journey(args: argparse.Namespace) -> None:
    access = (AccessMode.GRANT_FREE if args.grant_free
              else AccessMode.GRANT_BASED)
    system = _testbed(access, seed=args.seed, trace=True)
    results = system.run_ping([tc_from_ms(0.2)])
    print(reconstruct_ping_journey(results[0], system.tracer).render())


def _cmd_fig6(args: argparse.Namespace) -> None:
    arrivals = uniform_in_horizon(
        args.packets, tc_from_ms(args.packets * 5),
        RngRegistry(args.seed).stream("arrivals"))
    for access in (AccessMode.GRANT_BASED, AccessMode.GRANT_FREE):
        print(f"--- {access.value} ---")
        for direction in ("Downlink", "Uplink"):
            system = _testbed(access, seed=args.seed)
            probe = (system.run_downlink(arrivals)
                     if direction == "Downlink"
                     else system.run_uplink(arrivals))
            hist = histogram(probe.latencies_ms(), bin_width=0.5,
                             low=0.0, high=8.0)
            print(hist.render(width=40,
                              label=f"{direction}: {probe.summary()}"))
            print()


def _cmd_sweep(args: argparse.Namespace) -> None:
    radio_values = [float(v) for v in args.radio_us]
    sweep = slot_duration_sweep(minimal_dm, mus=[0, 1, 2],
                                direction=Direction.DL,
                                access=AccessMode.GRANT_FREE,
                                radio_us_values=radio_values)
    rows = [(f"{radio:g} µs radio",
             *(f"{sweep[radio][mu]:8.1f}" for mu in (0, 1, 2)))
            for radio in radio_values]
    print(render_table(
        ("", "µ=0 (1 ms)", "µ=1 (0.5 ms)", "µ=2 (0.25 ms)"), rows,
        title="Worst-case DL latency (µs), DM configuration"))


def _cmd_technologies(args: argparse.Namespace) -> None:
    # Both baselines intentionally share one comparison stream so the
    # table's Monte-Carlo noise is correlated across technologies.
    rng = RngRegistry(args.seed).stream("technologies")
    rows = [("5G FR2 mmWave",
             f"{MmWaveBaseline().sub_ms_fraction(rng, 30_000):.1%} sub-ms")]
    for stations in (2, 10):
        reliability = WifiBaseline(stations).deadline_reliability(
            500.0, rng, draws=10_000)
        rows.append((f"Wi-Fi DCF ({stations} stations)",
                     f"{reliability:.1%} within 0.5 ms"))
    for slaves in (1, 7):
        piconet = BluetoothPiconet(slaves)
        rows.append((f"Bluetooth ({slaves} slaves)",
                     f"worst {piconet.worst_case_uplink_us():g} µs"))
    print(render_table(("technology", "vs the 0.5 ms budget"), rows))


def _cmd_check(args: argparse.Namespace) -> int:
    if args.determinism:
        from repro.devtools.determinism import determinism_report
        try:
            report = determinism_report(seed=args.seed,
                                        packets=args.packets,
                                        runs=args.runs)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.render())
        return 0 if report.ok else 1
    # Imported lazily so the simulation commands stay import-light.
    from repro.devtools.check import (RENDERERS, check_paths,
                                      render_manifest)
    from repro.devtools.config import CheckConfig, load_check_config
    paths = args.paths or ["src"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        # A typo'd path must not produce a green "0 files checked".
        print(f"error: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        config = (CheckConfig() if args.no_config else
                  load_check_config(pyproject=args.config, start=paths[0]))
        report = check_paths(paths, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not report.files_checked:
        print(f"error: no Python files to check under: {', '.join(paths)}",
              file=sys.stderr)
        return 2
    print(RENDERERS[args.format](report))
    if args.manifest:
        Path(args.manifest).write_text(render_manifest(report),
                                       encoding="utf-8")
        print(f"wrote certification manifest {args.manifest}",
              file=sys.stderr)
    return report.exit_code


def _cmd_bench(args: argparse.Namespace) -> int:
    # Imported lazily so analysis commands stay import-light.
    from repro.runner import (
        CAMPAIGNS, CampaignJournal, CampaignRunner, DispatchCoordinator,
        DispatchRefusedError, ResultCache, bench_payload, build_campaign,
        check_against_baseline, load_baseline, render_baseline,
        write_bench_json)
    if args.worker is not None:
        # Worker mode: attach to a dispatch queue directory and exit
        # when the campaign is drained.  No campaign name, cache or
        # journal flags apply — everything comes from the queue.
        from repro.runner import run_worker
        if args.campaign is not None:
            print("error: --worker takes no campaign name",
                  file=sys.stderr)
            return 2
        worker_id = args.worker_id or f"w{os.getpid()}"
        return run_worker(args.worker, worker_id,
                          max_retries=args.retries,
                          strikes=args.strikes)
    if args.list:
        for name in sorted(CAMPAIGNS):
            print(f"{name}: {len(build_campaign(name))} point(s)")
        return 0
    if args.campaign is None:
        print("error: campaign name required (or --list)",
              file=sys.stderr)
        return 2
    if args.resume and args.no_journal:
        print("error: --resume requires a journal (drop --no-journal)",
              file=sys.stderr)
        return 2
    try:
        campaign = build_campaign(args.campaign)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.sanitize:
        # Environment (not a flag threaded through the runner) so
        # forked worker processes inherit it; streams are wrapped in
        # recording proxies at creation time (see repro.sim.sanitize).
        # Sanitized runs are bit-identical, so cached results stay
        # valid either way.
        os.environ["URLLC5G_SANITIZE"] = "1"
    cache = None if args.no_cache else ResultCache(args.cache)
    journal = None
    if not args.no_journal:
        journal = CampaignJournal(
            args.journal or f".urllc5g-{campaign.name}.journal.jsonl")
    queue_dir = None
    if args.workers > 1:
        from repro.devtools.distcheck.manifest import (
            ManifestError, load_manifest)
        from repro.runner.dispatch import REPO_MANIFEST
        try:
            manifest = load_manifest(args.manifest or REPO_MANIFEST)
        except ManifestError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        queue_dir = Path(args.queue_dir
                         or f".urllc5g-{campaign.name}.queue")
        runner: CampaignRunner = DispatchCoordinator(
            workers=args.workers, queue_dir=queue_dir,
            manifest=manifest, cache=cache, max_retries=args.retries)
    else:
        runner = CampaignRunner(workers=1, cache=cache,
                                max_retries=args.retries)
    try:
        result = runner.run(campaign, journal=journal, resume=args.resume)
    except (DispatchRefusedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if journal is not None:
            journal.close()
    if queue_dir is not None and not args.keep_queue:
        import shutil
        shutil.rmtree(queue_dir, ignore_errors=True)
    payload = bench_payload(result)
    output = args.output or f"BENCH_{campaign.name}.json"
    write_bench_json(output, payload)
    print(f"campaign {campaign.name}: {payload['points']} point(s) on "
          f"{payload['workers']} worker(s) in "
          f"{payload['wall_clock_s']:.2f}s wall-clock, cache hit-rate "
          f"{payload['cache']['hit_rate']:.1%} -> {output}")
    if payload["journal_replays"] or payload["retries"]:
        print(f"resilience: {payload['journal_replays']} point(s) "
              f"replayed from the journal, {payload['retries']} "
              "retr(y/ies)")
    if payload.get("dispatch"):
        stats = payload["dispatch"]
        print(f"dispatch: {stats['jobs']} point(s) in "
              f"{stats['batches']} job(s) across "
              f"{stats['workers']} worker(s), {stats['steals']} "
              f"steal(s), {stats['lease_expirations']} expired "
              f"lease(s), {stats['reclaims']} reclaim(s), "
              f"{stats['inline_points']} inline point(s)")
        degraded = result.dispatch.degraded()
        if degraded:
            detail = ", ".join(f"{count} {name.replace('_', ' ')}"
                               for name, count in degraded.items())
            print(f"degraded: {detail} (run completed; see "
                  "docs/ROBUSTNESS.md)")
    for warning in payload["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    for failure in payload["failed_points"]:
        print(f"FAILED: {failure['label']} after "
              f"{failure['attempts']} attempt(s): {failure['error']}",
              file=sys.stderr)
    failed = bool(payload["failed_points"])
    if args.write_baseline:
        write_bench_json(args.write_baseline, render_baseline(payload))
        print(f"wrote baseline {args.write_baseline} "
              f"({len(payload['metrics'])} metric(s))")
        return 1 if failed else 0
    if args.check:
        try:
            baseline = load_baseline(args.check)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.check}: {exc}",
                  file=sys.stderr)
            return 2
        outcome = check_against_baseline(payload, baseline)
        print(outcome.render())
        return 0 if outcome.ok and not failed else 1
    return 1 if failed else 0


def _cmd_chaosdispatch(args: argparse.Namespace) -> int:
    # Imported lazily so analysis commands stay import-light.
    import json
    import shutil
    import tempfile

    from repro.devtools.distcheck.manifest import (ManifestError,
                                                   load_manifest)
    from repro.runner import build_campaign
    from repro.runner.chaos import certify_dispatch
    from repro.runner.dispatch import REPO_MANIFEST
    try:
        campaign = build_campaign(args.campaign)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = load_manifest(args.manifest or REPO_MANIFEST)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    work_dir = args.work_dir or tempfile.mkdtemp(
        prefix=f"urllc5g-chaos-{campaign.name}-")
    try:
        report = certify_dispatch(
            campaign, manifest, work_dir=work_dir,
            workers=args.workers, exhaustive=args.exhaustive,
            seed=args.seed, log=print)
    finally:
        if args.work_dir is None:
            shutil.rmtree(work_dir, ignore_errors=True)
    output = args.output or f"CHAOS_{campaign.name}.json"
    Path(output).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    failed = [entry["label"] for entry in report["schedules"]
              if not (entry["converged"] and entry["identical"])]
    total = len(report["schedules"])
    print(f"chaos certification: {total - len(failed)}/{total} "
          f"schedule(s) converged bit-identical to serial -> {output}")
    for label in failed:
        print(f"NOT CERTIFIED: {label}", file=sys.stderr)
    return 0 if report["certified"] else 1


def _at_least(minimum: int) -> Callable[[str], int]:
    """argparse type: an integer of at least ``minimum`` (else exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urllc5g",
        description="System-level 5G URLLC latency analysis "
                    "(HotNets '24 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="the Table 1 matrix")
    table1.add_argument("--mu", type=int, default=2)
    table1.set_defaults(func=_cmd_table1)

    fig4 = sub.add_parser("fig4", help="DM worst cases (Fig 4)")
    fig4.add_argument("--mu", type=int, default=2)
    fig4.set_defaults(func=_cmd_fig4)

    journey = sub.add_parser("journey",
                             help="traced ping breakdown (Fig 3)")
    journey.add_argument("--grant-free", action="store_true")
    journey.add_argument("--seed", type=int, default=5)
    journey.set_defaults(func=_cmd_journey)

    fig6 = sub.add_parser("fig6",
                          help="testbed latency distributions (Fig 6)")
    fig6.add_argument("--packets", type=int, default=200)
    fig6.add_argument("--seed", type=int, default=11)
    fig6.set_defaults(func=_cmd_fig6)

    sweep = sub.add_parser("sweep",
                           help="slot duration × radio latency (§4)")
    sweep.add_argument("--radio-us", nargs="+",
                       default=["0", "100", "300", "500"])
    sweep.set_defaults(func=_cmd_sweep)

    tech = sub.add_parser("technologies",
                          help="Wi-Fi/Bluetooth/mmWave baselines (§9)")
    tech.add_argument("--seed", type=int, default=3)
    tech.set_defaults(func=_cmd_technologies)

    check = sub.add_parser(
        "check",
        help="static analysis: every rule family in one pass "
             "(see docs/ANALYSIS.md); --determinism runs the "
             "runtime sanitizer instead")
    check.add_argument("paths", nargs="*", default=["src"],
                       help="files or directories (default: src)")
    check.add_argument("--format", choices=("text", "json", "sarif"),
                       default="text")
    check.add_argument("--config", default=None,
                       help="explicit pyproject.toml path")
    check.add_argument("--no-config", action="store_true",
                       help="ignore [tool.urllc5g.check] entirely")
    check.add_argument("--manifest", default=None, metavar="FILE",
                       help="write the per-scenario certification "
                            "manifest to FILE")
    check.add_argument("--determinism", action="store_true",
                       help="run a scenario twice with the same seed "
                            "and compare trace digests")
    check.add_argument("--seed", type=int, default=7)
    check.add_argument("--packets", type=int, default=40)
    check.add_argument("--runs", type=int, default=2)
    check.set_defaults(func=_cmd_check)

    bench = sub.add_parser(
        "bench",
        help="run a named campaign (see docs/CAMPAIGNS.md)")
    bench.add_argument("campaign", nargs="?", default=None,
                       help="campaign name (see --list)")
    bench.add_argument("--list", action="store_true",
                       help="list known campaigns and exit")
    bench.add_argument("--workers", type=_at_least(1), default=1,
                       metavar="N",
                       help="worker processes (1 = serial, default); "
                            "N > 1 runs the dispatch queue and needs "
                            "every scenario certified in the distcheck "
                            "manifest (docs/CAMPAIGNS.md)")
    bench.add_argument("--cache", default=".urllc5g-bench-cache.json",
                       metavar="FILE",
                       help="result-cache location")
    bench.add_argument("--no-cache", action="store_true",
                       help="recompute every point")
    bench.add_argument("--output", default=None, metavar="FILE",
                       help="bench document path "
                            "(default: BENCH_<campaign>.json)")
    bench.add_argument("--check", default=None, metavar="BASELINE",
                       help="compare metrics against a baseline file; "
                            "exit 1 on regression, 2 if unreadable")
    bench.add_argument("--write-baseline", default=None, metavar="FILE",
                       help="record this run's metrics as a baseline")
    bench.add_argument("--retries", type=_at_least(0), default=2,
                       metavar="N",
                       help="extra attempts a failing point gets "
                            "before it is recorded as failed "
                            "(default: 2)")
    bench.add_argument("--journal", default=None, metavar="FILE",
                       help="campaign journal path (default: "
                            ".urllc5g-<campaign>.journal.jsonl)")
    bench.add_argument("--no-journal", action="store_true",
                       help="disable per-point checkpointing")
    bench.add_argument("--resume", action="store_true",
                       help="replay completed points from the journal "
                            "of an interrupted run (docs/ROBUSTNESS.md)")
    bench.add_argument("--sanitize", action="store_true",
                       help="run under the determinism sanitizer "
                            "(URLLC5G_SANITIZE=1): stream draws are "
                            "recorded and ownership violations raise, "
                            "results stay bit-identical")
    bench.add_argument("--queue-dir", default=None, metavar="DIR",
                       help="dispatch queue directory (default: "
                            ".urllc5g-<campaign>.queue); put it on a "
                            "shared filesystem to attach workers from "
                            "other hosts")
    bench.add_argument("--keep-queue", action="store_true",
                       help="keep the queue directory (leases, "
                            "events, per-worker journals) after a "
                            "parallel run")
    bench.add_argument("--manifest", default=None, metavar="FILE",
                       help="distcheck certification manifest gating "
                            "--workers N > 1 (default: the checked-in "
                            "distcheck-manifest.json at the repository "
                            "root)")
    bench.add_argument("--worker", default=None, metavar="QUEUE_DIR",
                       help="run as a dispatch worker attached to an "
                            "existing queue directory (no campaign "
                            "name); exits 0 when the queue is drained, "
                            "2 if refusing to participate")
    bench.add_argument("--worker-id", default=None, metavar="ID",
                       help="worker identity inside the queue "
                            "(default: w<pid>)")
    bench.add_argument("--strikes", type=_at_least(1), default=8,
                       metavar="N",
                       help="worker mode only: heartbeat observations "
                            "without progress before a peer is "
                            "declared dead (default: 8)")
    bench.set_defaults(func=_cmd_bench)

    chaos = sub.add_parser(
        "chaosdispatch",
        help="certify dispatch against filesystem faults and worker "
             "crashes at every protocol crash point "
             "(docs/ROBUSTNESS.md)")
    chaos.add_argument("--campaign", default="smoke",
                       help="campaign to certify (default: smoke)")
    chaos.add_argument("--workers", type=int, default=2,
                       help="worker processes per schedule "
                            "(default: 2; minimum 2)")
    chaos.add_argument("--manifest", default=None, metavar="FILE",
                       help="distcheck certification manifest gating "
                            "dispatch (default: the checked-in "
                            "distcheck-manifest.json at the repository "
                            "root)")
    chaos.add_argument("--output", default=None, metavar="FILE",
                       help="certification document path "
                            "(default: CHAOS_<campaign>.json)")
    chaos.add_argument("--work-dir", default=None, metavar="DIR",
                       help="queue/marker scratch directory (kept "
                            "afterwards; default: a temp dir, "
                            "removed)")
    chaos.add_argument("--exhaustive", action="store_true",
                       help="target every worker with every schedule "
                            "(nightly mode) instead of the first only")
    chaos.add_argument("--seed", type=int, default=None,
                       help="chaos RNG seed (default: the campaign "
                            "seed)")
    chaos.set_defaults(func=_cmd_chaosdispatch)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.func(args) or 0)


if __name__ == "__main__":
    sys.exit(main())
