"""Digest-prefix-sharded store layout: leftovers, stats, corruption.

The v4 store spreads entries across 256 two-hex-char shard
directories (``shard_of(key) == key[:2]``) so service-scale stores
never pile tens of thousands of files into one directory.  These
tests lock in that layout: no key reads a root-level ``*.json`` file
(the layout of an older checkout), ``--gc`` prunes such files and
``--clear`` deletes them, and the corruption-quarantine battery holds
in the sharded layout.
"""

import json
import os

import pytest

from repro.sim.store import (
    ResultStore,
    code_version,
    shard_of,
    store_key,
)
from repro.sim.store import main as store_main


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def keys_for(*prefixes):
    """Realistic-looking 32-hex keys with chosen shard prefixes."""
    return ["%s%030x" % (prefix, index)
            for index, prefix in enumerate(prefixes)]


def flatten(store, key):
    """Move ``key``'s entry to the root, where an older layout kept it."""
    sharded = store.root / shard_of(key) / ("%s.json" % key)
    flat = store.root / ("%s.json" % key)
    os.replace(sharded, flat)
    shard_dir = sharded.parent
    if not any(shard_dir.iterdir()):
        shard_dir.rmdir()
    return flat


class TestShardLayout:
    def test_shard_of_is_first_two_chars_lowercased(self):
        assert shard_of("ABcdef") == "ab"
        assert shard_of("00ff") == "00"

    def test_writes_land_in_shard_directories(self, store):
        key = keys_for("ab")[0]
        store.save_payload(key, {"value": 1})
        path = store.root / "ab" / ("%s.json" % key)
        assert path.exists()
        assert not (store.root / ("%s.json" % key)).exists()

    def test_store_key_prefix_spreads_shards(self):
        from repro.sim.runner import Task

        keys = {
            shard_of(store_key(Task(benchmark, "lru", 0.05)))
            for benchmark in ("mcf", "art", "lucas", "twolf", "ammp")
        }
        # sha256 keys: five benchmarks are overwhelmingly unlikely to
        # all collide into one shard (probability ~ 256**-4).
        assert len(keys) > 1

    def test_len_clear_and_entry_paths_span_both_layouts(self, store):
        sharded_key, flat_key = keys_for("aa", "bb")
        store.save_payload(sharded_key, {"value": 1})
        store.save_payload(flat_key, {"value": 2})
        flatten(store, flat_key)
        assert len(store) == 2
        names = {path.stem for path in store.entry_paths()}
        assert names == {sharded_key, flat_key}
        assert store.clear() == 2
        assert len(store) == 0


class TestLeftoversAndGc:
    def test_root_level_file_is_never_served(self, store):
        key = keys_for("cd")[0]
        store.save_payload(key, {"value": 42})
        flat = flatten(store, key)
        assert store.load_payload(key) is None
        assert flat.exists()  # a miss leaves it alone
        assert not (store.root / "cd" / ("%s.json" % key)).exists()

    def test_contains_misses_root_level_file(self, store):
        key = keys_for("ef")[0]
        store.save_payload(key, {"value": 1})
        flat = flatten(store, key)
        assert not store.contains(key)
        assert flat.exists()  # contains() is read-only

    def test_gc_prunes_root_level_files(self, store):
        key = keys_for("0a")[0]
        store.save_payload(key, {"value": 7})
        flat = flatten(store, key)
        stats = store.gc()
        assert stats["kept"] == 0
        assert stats["removed"] == 1
        assert not flat.exists()
        assert not (store.root / "0a" / ("%s.json" % key)).exists()

    def test_gc_dry_run_leaves_root_level_files(self, store):
        key = keys_for("0b")[0]
        store.save_payload(key, {"value": 7})
        flat = flatten(store, key)
        assert store.gc(dry_run=True)["removed"] == 1
        assert flat.exists()

    def test_gc_still_prunes_stale_code_versions(self, store):
        current, stale = keys_for("1a", "1b")
        store.save_payload(current, {"value": 1})
        store.save_payload(stale, {"value": 2})
        stale_path = store.root / shard_of(stale) / ("%s.json" % stale)
        payload = json.loads(stale_path.read_text())
        payload["code"] = "0" * 16
        stale_path.write_text(json.dumps(payload))
        stats = store.gc()
        assert stats == {"removed": 1, "kept": 1, "quarantine_purged": 0}
        assert store.contains(current)
        assert not store.contains(stale)


class TestShardedCorruption:
    def test_corrupt_sharded_entry_is_quarantined(self, store):
        key = keys_for("2a")[0]
        store.save_payload(key, {"value": 1})
        path = store.root / "2a" / ("%s.json" % key)
        payload = json.loads(path.read_text())
        payload["result"]["value"] = 999  # digest now stale
        path.write_text(json.dumps(payload))
        assert store.load_payload(key) is None
        assert not path.exists()
        assert (store.quarantine_dir / path.name).exists()
        assert store.quarantined == 1

    def test_shard_stats_counts_everything(self, store):
        k_aa1, k_aa2, k_bb, k_flat, k_bad = keys_for(
            "aa", "aa", "bb", "cc", "dd"
        )
        for key in (k_aa1, k_aa2, k_bb, k_flat, k_bad):
            store.save_payload(key, {"value": 1})
        flatten(store, k_flat)
        bad = store.root / "dd" / ("%s.json" % k_bad)
        bad.write_text("{ torn")
        assert store.load_payload(k_bad) is None  # -> quarantine
        stats = store.shard_stats()
        # The root-level leftover is not an entry.
        assert stats["entries"] == 3
        assert stats["shards"] == {"aa": 2, "bb": 1}
        assert stats["quarantined"] == 1


class TestStoreCLI:
    def test_stats_reports_shards(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = ResultStore(tmp_path)
        first, second = keys_for("aa", "bb")
        store.save_payload(first, {"value": 1})
        store.save_payload(second, {"value": 2})
        assert store_main(["--stats"]) == 0
        out = capsys.readouterr().out
        assert "entries: 2" in out
        assert "quarantined: 0" in out
        assert "shards: 2 populated" in out
        assert "aa:1" in out and "bb:1" in out

    def test_gc_output_mentions_code_version(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ResultStore(tmp_path).save_payload(
            keys_for("aa")[0], {"value": 1}
        )
        assert store_main(["--gc"]) == 0
        out = capsys.readouterr().out
        assert "kept 1 current" in out
        assert code_version() in out

    @pytest.mark.parametrize("action", (["--clear"], ["--stats"], []))
    def test_dry_run_without_gc_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys, action
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        key = keys_for("aa")[0]
        ResultStore(tmp_path).save_payload(key, {"value": 1})
        with pytest.raises(SystemExit) as exit_info:
            store_main(action + ["--dry-run"])
        assert exit_info.value.code == 2
        assert "--dry-run only applies to --gc" in capsys.readouterr().err
        assert ResultStore(tmp_path).contains(key)
