"""Campaign execution: one front end for serial and parallel runs.

:class:`CampaignRunner` executes a :class:`~repro.runner.campaign.Campaign`:
it replays journaled and cached points, executes the rest, and merges
every payload in campaign order.  ``workers=1`` executes pending points
in-process; higher counts hand them to the dispatch queue
(:class:`~repro.runner.dispatch.DispatchCoordinator`, the subclass that
overrides only how pending points execute).  Three properties make the
two modes interchangeable:

- every point carries its own derived seed, so no point's randomness
  depends on which worker runs it or what ran before it;
- merged results are assembled in campaign order, keyed by point
  digest, so the document is independent of completion order;
- workers never touch shared mutable state — the result cache and the
  journal are consulted and written only by the coordinating process.

Consequently a parallel run is bit-identical to a serial run of the
same campaign, which the test-suite asserts.

The runner is also *hardened* (docs/ROBUSTNESS.md): a point that
raises, or — on the dispatch queue — crashes or wedges its worker,
fails after bounded retries only itself, never the campaign.  Failure
handling is deterministic in everything that reaches the result
document: retries are *counted* (in :class:`PointResult.attempts`, and
as lost leases on the queue), never timed, and a retried point
recomputes from its own derived seed so the payload is the same
whichever attempt produced it.  The wall
clock is read only for the campaign-level ``wall_clock_s`` span
(both ``time.perf_counter`` reads carry a ``no-wall-clock`` pragma);
it can never alter a payload.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.runner import envconfig
from repro.runner.cache import ResultCache, source_fingerprint
from repro.runner.campaign import Campaign, ScenarioPoint
from repro.runner.journal import CampaignJournal
from repro.runner.scenarios import run_point

if TYPE_CHECKING:
    from repro.runner.dispatch import DispatchStats

__all__ = ["CampaignResult", "CampaignRunner", "Outcome", "PointResult",
           "execute_point"]


@dataclass(frozen=True)
class PointResult:
    """One executed (or replayed) scenario point.

    ``attempts`` counts executions including the successful (or final
    failing) one; ``error`` is None for a successful point and holds
    the last failure description otherwise (``result`` is then empty).
    ``from_journal`` marks points replayed from a resume journal rather
    than executed or cache-replayed in this run.
    """

    point: ScenarioPoint
    result: dict[str, Any]
    from_cache: bool
    attempts: int = 1
    error: str | None = None
    from_journal: bool = False

    @property
    def failed(self) -> bool:
        """Whether the point exhausted its attempts without a payload."""
        return self.error is not None


@dataclass(frozen=True)
class Outcome:
    """How one executed point ended up: a payload or the last error."""

    result: dict[str, Any] | None
    attempts: int
    error: str | None


@dataclass(frozen=True)
class CampaignResult:
    """The merged outcome of one campaign run."""

    campaign: Campaign
    point_results: tuple[PointResult, ...]
    workers: int
    cache_hits: int
    cache_misses: int
    wall_clock_s: float
    journal_replays: int = 0
    warnings: tuple[str, ...] = ()
    #: Present only for dispatched runs (repro.runner.dispatch).
    dispatch: "DispatchStats | None" = None

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of points replayed from the result cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def failures(self) -> tuple[PointResult, ...]:
        """Points that exhausted their retry budget."""
        return tuple(pr for pr in self.point_results if pr.failed)

    @property
    def retries(self) -> int:
        """Total extra attempts beyond the first, across all points."""
        return sum(max(0, pr.attempts - 1) for pr in self.point_results)

    def metrics(self) -> dict[str, float]:
        """Flat ``"<point label>/<metric>"`` map of scalar metrics.

        Only int/float values are merged (sample lists and strings are
        artifact material, not gateable metrics); key order follows
        campaign order, so the rendering is deterministic.  A failed
        point has an empty result and thus contributes no metrics.
        """
        merged: dict[str, float] = {}
        for point_result in self.point_results:
            label = point_result.point.label
            for name in sorted(point_result.result):
                value = point_result.result[name]
                if isinstance(value, bool) \
                        or not isinstance(value, (int, float)):
                    continue
                merged[f"{label}/{name}"] = float(value)
        return merged

    def results_digest(self) -> str:
        """Content hash over every point's *full* payload, in order.

        The merged metrics table only carries scalars; this digest
        additionally covers sample lists (per-packet latencies) and
        string payload fields, so two runs agree on it iff their
        documents are bit-identical point for point.  It is what the
        dispatch CI job compares between a serial and a distributed
        run — execution provenance (cache hits, journal replays,
        attempt counts) is deliberately excluded because it may
        legitimately differ between equal runs.
        """
        hasher = hashlib.sha256()
        for point_result in self.point_results:
            record = {
                "point": point_result.point.digest(),
                "result": point_result.result,
                "error": point_result.error,
            }
            hasher.update(json.dumps(record,
                                     sort_keys=True).encode("utf-8"))
            hasher.update(b"\n")
        return hasher.hexdigest()


def execute_point(point: ScenarioPoint, max_retries: int) -> Outcome:
    """Run one point in this process with the bounded retry budget.

    Serial runs, dispatch workers and the coordinator's inline drain
    all execute through here.  ``run_point`` is looked up in this
    module at call time, so a tracer that patches
    ``repro.runner.executor.run_point`` sees every execution in its
    process.
    """
    error = None
    for attempt in range(1, max_retries + 2):
        try:
            return Outcome(run_point(point), attempt, None)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return Outcome(None, max_retries + 1, error)


#: Receives each pending point's outcome as soon as it is known.
Record = Callable[[str, Outcome], None]


class CampaignRunner:
    """Executes campaigns in-process or through the dispatch queue.

    ``workers=1`` runs pending points serially in this process.  Higher
    counts hand them to a
    :class:`~repro.runner.dispatch.DispatchCoordinator` with that many
    local worker processes, a temporary queue directory and the
    checked-in ``distcheck-manifest.json``: only certified scenarios
    run in parallel, and a missing manifest refuses the run before
    the journal or any queue file is touched.
    ``max_retries`` is the number of extra attempts a failing point
    gets before it is recorded as failed (the campaign always
    completes).
    """

    def __init__(self, workers: int = 1,
                 cache: ResultCache | None = None,
                 fingerprint: str | None = None,
                 max_retries: int = 2):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {max_retries}")
        self.workers = workers
        self.cache = cache
        self.max_retries = max_retries
        self._fingerprint = fingerprint

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """The source fingerprint cached results are keyed against."""
        if self._fingerprint is None:
            self._fingerprint = source_fingerprint()
        return self._fingerprint

    # ------------------------------------------------------------------
    def run(self, campaign: Campaign,
            journal: CampaignJournal | None = None,
            resume: bool = False) -> CampaignResult:
        """Execute every point, merging results in campaign order.

        With a ``journal`` each executed point is checkpointed as soon
        as its payload is known; with ``resume`` additionally matching
        entries from a previous (interrupted) run are replayed instead
        of recomputed.  A point that keeps failing past ``max_retries``
        is recorded as failed — the campaign itself always completes.
        """
        # Sanctioned wall-clock read: elapsed-time span, never results.
        start_s = time.perf_counter()  # check: disable=no-wall-clock
        self._admit(campaign)
        # One consistent URLLC5G_* reading for the whole campaign:
        # mid-run environment mutation is never observed.
        envconfig.refresh()
        warnings: list[str] = []
        if self.cache is not None:
            warnings.extend(self.cache.warnings)

        # Each point's digest is computed once and reused throughout.
        digests = [point.digest() for point in campaign.points]
        replayed: dict[str, tuple[dict[str, Any], int]] = {}
        if journal is not None:
            replayed = journal.start(
                name=campaign.name, seed=campaign.seed,
                fingerprint=self.fingerprint, points=len(digests),
                digests=set(digests), resume=resume)

        cached: dict[str, dict[str, Any]] = {}
        pending: dict[str, ScenarioPoint] = {}
        for point, digest in zip(campaign.points, digests):
            if digest in replayed:
                continue
            if self.cache is not None:
                payload = self.cache.lookup(digest, self.fingerprint)
                if payload is not None:
                    cached[digest] = payload
                    continue
            pending[digest] = point

        outcomes: dict[str, Outcome] = {}

        def record(digest: str, outcome: Outcome) -> None:
            outcomes[digest] = outcome
            if outcome.result is None:
                return
            if self.cache is not None:
                self.cache.store(digest, self.fingerprint,
                                 outcome.result)
            if journal is not None:
                journal.record(digest, outcome.result, outcome.attempts)

        stats = self._execute(campaign, digests, pending, record,
                              warnings)
        if pending and self.cache is not None:
            self.cache.save()
        if journal is not None:
            warnings.extend(journal.warnings)

        point_results: list[PointResult] = []
        for point, digest in zip(campaign.points, digests):
            if digest in replayed:
                result, attempts = replayed[digest]
                point_results.append(PointResult(
                    point, result, from_cache=False, attempts=attempts,
                    from_journal=True))
            elif digest in cached:
                point_results.append(PointResult(
                    point, cached[digest], from_cache=True))
            else:
                outcome = outcomes[digest]
                point_results.append(PointResult(
                    point, outcome.result or {}, from_cache=False,
                    attempts=outcome.attempts, error=outcome.error))
        end_s = time.perf_counter()  # check: disable=no-wall-clock (span end)
        return CampaignResult(
            campaign=campaign,
            point_results=tuple(point_results),
            workers=self.workers,
            cache_hits=len(cached),
            cache_misses=len(pending),
            wall_clock_s=end_s - start_s,
            journal_replays=len(replayed),
            warnings=tuple(dict.fromkeys(warnings)),
            dispatch=stats,
        )

    # ------------------------------------------------------------------
    def _admit(self, campaign: Campaign) -> None:
        """Refuse a campaign before anything is written."""
        if self.workers > 1:
            from repro.runner.dispatch import (check_certified,
                                               load_repo_manifest)
            check_certified(load_repo_manifest(), campaign)

    def _execute(self, campaign: Campaign, digests: list[str],
                 pending: dict[str, ScenarioPoint], record: Record,
                 warnings: list[str]) -> "DispatchStats | None":
        """Execute ``pending`` (digest -> point, campaign order).

        Every outcome goes to ``record``; returns the dispatch
        provenance, or None for an in-process run.
        """
        if self.workers == 1:
            for digest, point in pending.items():
                record(digest, execute_point(point, self.max_retries))
            return None
        from repro.runner.dispatch import (DispatchCoordinator,
                                           load_repo_manifest)
        with tempfile.TemporaryDirectory(prefix="urllc5g-") as scratch:
            return DispatchCoordinator(
                self.workers, Path(scratch) / "queue",
                load_repo_manifest(), fingerprint=self.fingerprint,
                max_retries=self.max_retries,
            )._execute(campaign, digests, pending, record, warnings)
