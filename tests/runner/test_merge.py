"""Journal merge: duplicates, foreign fingerprints, corrupt tails."""

import json

import pytest

from repro.runner import JournalMergeError, merge_worker_journals
from repro.runner.cache import RUNNER_VERSION

NAME, SEED, FP = "demo", 7, "fp-current"


def _header(**overrides):
    header = {"journal_version": RUNNER_VERSION, "campaign": NAME,
              "seed": SEED, "fingerprint": FP, "points": 3}
    header.update(overrides)
    return json.dumps(header, sort_keys=True)


def _entry(digest, result, attempts=1):
    return json.dumps({"digest": digest, "result": result,
                       "attempts": attempts}, sort_keys=True)


def _write(path, *lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_disjoint_journals_merge_in_full(tmp_path):
    a = _write(tmp_path / "w1.jsonl", _header(),
               _entry("d1", {"x": 1.0}))
    b = _write(tmp_path / "w2.jsonl", _header(),
               _entry("d2", {"x": 2.0}, attempts=2))
    outcome = merge_worker_journals(
        [a, b], name=NAME, seed=SEED, fingerprint=FP,
        digests={"d1", "d2"})
    assert outcome.journals_read == 2
    assert outcome.journals_rejected == 0
    assert outcome.warnings == []
    assert outcome.entries["d1"].result == {"x": 1.0}
    assert outcome.entries["d2"].attempts == 2
    assert outcome.entries["d2"].workers == ("w2",)


def test_identical_duplicate_from_cache_race_is_deduplicated(tmp_path):
    # A falsely reclaimed lease makes two workers compute (and journal)
    # the same point.  Payloads are pure, so both copies are identical
    # and the merge keeps one, recording both workers as provenance.
    a = _write(tmp_path / "w1.jsonl", _header(),
               _entry("d1", {"x": 1.0}))
    b = _write(tmp_path / "w2.jsonl", _header(),
               _entry("d1", {"x": 1.0}, attempts=3))
    outcome = merge_worker_journals(
        [a, b], name=NAME, seed=SEED, fingerprint=FP, digests={"d1"})
    assert outcome.duplicate_points == 1
    assert outcome.entries["d1"].workers == ("w1", "w2")
    assert outcome.entries["d1"].attempts == 1  # first journal wins


def test_divergent_duplicate_raises_determinism_violation(tmp_path):
    a = _write(tmp_path / "w1.jsonl", _header(),
               _entry("d1", {"x": 1.0}))
    b = _write(tmp_path / "w2.jsonl", _header(),
               _entry("d1", {"x": 2.0}))
    with pytest.raises(JournalMergeError, match="determinism"):
        merge_worker_journals([a, b], name=NAME, seed=SEED,
                              fingerprint=FP, digests={"d1"})


def test_foreign_fingerprint_journal_is_rejected_whole(tmp_path):
    # A worker running different code than the coordinator: its whole
    # journal is untrustworthy, never just individual entries.
    good = _write(tmp_path / "w1.jsonl", _header(),
                  _entry("d1", {"x": 1.0}))
    foreign = _write(tmp_path / "w2.jsonl",
                     _header(fingerprint="fp-other"),
                     _entry("d2", {"x": 2.0}))
    outcome = merge_worker_journals(
        [good, foreign], name=NAME, seed=SEED, fingerprint=FP,
        digests={"d1", "d2"})
    assert outcome.journals_rejected == 1
    assert "d2" not in outcome.entries
    assert any("mixed code versions" in w for w in outcome.warnings)


def test_wrong_campaign_or_seed_is_rejected(tmp_path):
    wrong = _write(tmp_path / "w1.jsonl", _header(seed=SEED + 1),
                   _entry("d1", {"x": 1.0}))
    outcome = merge_worker_journals(
        [wrong], name=NAME, seed=SEED, fingerprint=FP, digests={"d1"})
    assert outcome.journals_rejected == 1
    assert outcome.entries == {}


def test_corrupt_tail_loses_only_that_journals_tail(tmp_path):
    # The crash artifact of a SIGKILLed worker: a torn last line.  Its
    # earlier entries and *every* other worker's entries survive.
    torn = _write(tmp_path / "w1.jsonl", _header(),
                  _entry("d1", {"x": 1.0}),
                  '{"digest": "d2", "result": {"x":')
    intact = _write(tmp_path / "w2.jsonl", _header(),
                    _entry("d2", {"x": 2.0}),
                    _entry("d3", {"x": 3.0}))
    outcome = merge_worker_journals(
        [torn, intact], name=NAME, seed=SEED, fingerprint=FP,
        digests={"d1", "d2", "d3"})
    assert set(outcome.entries) == {"d1", "d2", "d3"}
    assert outcome.entries["d2"].workers == ("w2",)
    assert any("corrupt or truncated" in w for w in outcome.warnings)


def test_entries_outside_the_campaign_are_ignored(tmp_path):
    # A reused queue directory cannot smuggle stale points in.
    stale = _write(tmp_path / "w1.jsonl", _header(),
                   _entry("d-old", {"x": 9.0}),
                   _entry("d1", {"x": 1.0}))
    outcome = merge_worker_journals(
        [stale], name=NAME, seed=SEED, fingerprint=FP, digests={"d1"})
    assert set(outcome.entries) == {"d1"}
