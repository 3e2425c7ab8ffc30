"""Result cache: content-hash keying, fingerprinting, atomic writes."""

import json

import pytest

from repro.runner import ResultCache, atomic_write_text, source_fingerprint
from repro.runner.cache import RUNNER_VERSION


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "nested" / "artifact.txt"
    atomic_write_text(target, "hello")
    assert target.read_text(encoding="utf-8") == "hello"
    atomic_write_text(target, "replaced")
    assert target.read_text(encoding="utf-8") == "replaced"
    assert [p.name for p in target.parent.iterdir()] == ["artifact.txt"]


def test_atomic_write_creates_missing_parents(tmp_path):
    target = tmp_path / "a" / "b" / "artifact.txt"
    atomic_write_text(target, "hello")
    assert target.read_text(encoding="utf-8") == "hello"


def test_failed_atomic_write_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "artifact.txt"
    atomic_write_text(target, "kept")

    def failing_replace(source, destination):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("repro.runner.cache.os.replace", failing_replace)
    with pytest.raises(OSError):
        atomic_write_text(target, "lost")
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]
    assert target.read_text(encoding="utf-8") == "kept"


def test_cache_roundtrip_and_hit_miss_accounting(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResultCache(path)
    assert cache.lookup("digest-1", "fp") is None
    cache.store("digest-1", "fp", {"mean_us": 1.5})
    cache.save()

    reloaded = ResultCache(path)
    assert reloaded.lookup("digest-1", "fp") == {"mean_us": 1.5}
    assert reloaded.lookup("digest-2", "fp") is None
    assert (reloaded.hits, reloaded.misses) == (1, 1)


def test_cache_misses_on_fingerprint_change(tmp_path):
    cache = ResultCache(tmp_path / "cache.json")
    cache.store("digest-1", "fp-old", {"v": 1})
    assert cache.lookup("digest-1", "fp-new") is None
    assert cache.lookup("digest-1", "fp-old") == {"v": 1}


def test_cache_discards_other_versions_and_corrupt_files(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"runner_version": "not-" + RUNNER_VERSION,
                                "entries": {"d": {"fingerprint": "f",
                                                  "result": {"v": 1}}}}),
                    encoding="utf-8")
    assert ResultCache(path).entries == {}
    path.write_text("{not json", encoding="utf-8")
    assert ResultCache(path).entries == {}


def test_corrupt_cache_is_quarantined_with_a_warning(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text('{"runner_version": "1", "entries": {tru',
                    encoding="utf-8")
    cache = ResultCache(path)
    assert cache.entries == {}
    assert len(cache.warnings) == 1
    assert "quarantined" in cache.warnings[0]
    assert not path.exists()  # moved aside, next save writes clean
    corpses = list(tmp_path.glob("cache.json.corrupt-*"))
    assert len(corpses) == 1
    assert corpses[0].read_text(encoding="utf-8").startswith(
        '{"runner_version"')
    # Repeated loads of the same corpse content do not pile up copies.
    path.write_text('{"runner_version": "1", "entries": {tru',
                    encoding="utf-8")
    ResultCache(path)
    assert len(list(tmp_path.glob("cache.json.corrupt-*"))) == 1


def test_malformed_entries_count_as_corruption(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"runner_version": RUNNER_VERSION,
                                "entries": {"d": "not-an-object"}}),
                    encoding="utf-8")
    cache = ResultCache(path)
    assert cache.entries == {}
    assert any("quarantined" in warning for warning in cache.warnings)
    assert list(tmp_path.glob("cache.json.corrupt-*"))


def test_version_mismatch_is_stale_not_corrupt(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"runner_version": "not-" + RUNNER_VERSION,
                                "entries": {}}), encoding="utf-8")
    cache = ResultCache(path)
    assert cache.entries == {}
    # Stale-not-corrupt, but no longer *silent*: on a dispatched fleet
    # a version mismatch means some host runs different code, so the
    # bench document must surface it.
    assert len(cache.warnings) == 1
    assert "mixed code versions" in cache.warnings[0]
    assert f"version {'not-' + RUNNER_VERSION!r}" in cache.warnings[0]
    assert path.exists()  # left in place, not quarantined
    assert not list(tmp_path.glob("cache.json.corrupt-*"))


def test_cache_save_is_noop_when_clean(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResultCache(path)
    cache.save()
    assert not path.exists()


@pytest.fixture
def source_tree(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "a.py").write_text("A = 1\n", encoding="utf-8")
    (root / "sub").mkdir()
    (root / "sub" / "b.py").write_text("B = 2\n", encoding="utf-8")
    return root


def test_source_fingerprint_stable_on_unchanged_tree(source_tree):
    assert source_fingerprint([source_tree]) == \
        source_fingerprint([source_tree])


def test_source_fingerprint_tracks_content_and_renames(source_tree):
    before = source_fingerprint([source_tree])
    (source_tree / "a.py").write_text("A = 2\n", encoding="utf-8")
    after_edit = source_fingerprint([source_tree])
    assert after_edit != before
    (source_tree / "a.py").rename(source_tree / "renamed.py")
    assert source_fingerprint([source_tree]) != after_edit


def test_default_fingerprint_ignores_devtools():
    # The analyzer/linter cannot change simulation results, so editing
    # them must not invalidate cached campaign points.
    import repro.devtools as devtools
    from pathlib import Path

    fingerprint = source_fingerprint()
    assert fingerprint == source_fingerprint()
    devtools_root = Path(devtools.__file__).parent
    covered = source_fingerprint(
        [Path(devtools.__file__).parents[1]])
    assert devtools_root.is_dir()
    assert fingerprint != covered  # devtools files were excluded
