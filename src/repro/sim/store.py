"""Persistent on-disk result store: simulate once, reuse everywhere.

Every figure in the paper reads from the same (benchmark x policy)
matrix, but the old memo in :mod:`repro.sim.runner` was a per-process
dict — a new process (or a worker pool) re-simulated everything.  The
store upgrades that memo to content-addressed JSON files, one per
result, so repeat runs are free across processes and across sessions:

* **Location** — ``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``.
  Set ``REPRO_NO_STORE=1`` to disable persistence entirely (the
  in-process memo still works).
* **Keying** — a SHA-256 over the canonical workload spec (plus its
  content fingerprint: imported trace files hash their bytes),
  canonical policy spec, trace scale, full machine config, phase
  interval, the repro package's source hash, and (for user-registered
  policies) the factory's source hash.  Any code, configuration, or
  workload-content change therefore misses cleanly instead of
  returning stale results.
* **Format** — one JSON file per key holding the key fields (for
  debugging) and ``SimResult.to_dict()``.  Floats round-trip
  bit-identically through Python's json, so a stored result is
  indistinguishable from a fresh simulation.

Writes are atomic (temp file + ``os.replace``), so concurrent workers
racing on the same key at worst both compute it; neither ever reads a
torn file.

**Shard layout** — entries live under 256 digest-prefix shard
directories (``<root>/<key[:2]>/<key>.json``), so many concurrent
writers (the distributed job service fans a grid across worker hosts)
never contend on one directory and ``--stats`` can report per-shard
counts.  Pre-shard flat layouts migrate lazily: a read that misses the
shard path checks the flat path and re-homes the entry in place — no
flag day, and a store written by an old checkout keeps serving.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

from repro import obs
from repro.config import MachineConfig
from repro.sim.stats import SimResult

# Version 4: keys identify workloads by canonical registry spec plus a
# workload content fingerprint (imported trace files hash their bytes),
# so composed/imported workloads key exactly like surrogates and a
# changed trace file invalidates instead of aliasing.
# (Version 3 added payload content digests with read-side quarantine;
# version 2 added telemetry snapshots and a metrics flag in the key.)
_FORMAT_VERSION = 4

_code_version: Optional[str] = None


def source_digest(package_root: Path) -> str:
    """Hash of the Python sources and native C sources of a package."""
    digest = hashlib.sha256()
    sources = sorted(package_root.rglob("*.py")) + sorted(
        package_root.glob("_native/*.c")
    )
    for path in sources:
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def code_version() -> str:
    """Hash of every ``repro`` source file, cached per process.

    Keys include this hash so editing the simulator — its Python or
    the C kernel and trace generator — invalidates every stored result;
    the walk costs ~1 ms and runs once per process.
    """
    global _code_version
    if _code_version is None:
        import repro

        _code_version = source_digest(Path(repro.__file__).resolve().parent)
    return _code_version


def store_key(
    benchmark,
    policy_spec: str,
    scale: float,
    config: MachineConfig,
    phase_interval: Optional[int] = None,
    prefetch_degree: Optional[int] = None,
) -> str:
    """Content hash identifying one simulation, stable across processes.

    ``benchmark`` is any workload spec; the key holds its *canonical*
    spelling plus the workload's content fingerprint, so spellings of
    one spec share a key, distinct specs never alias, and an imported
    trace file silently replaced on disk misses cleanly.  A prefetch
    cell adds ``prefetch_degree``; a cell without one hashes the same
    fields it always did.
    """
    from repro.cache.replacement.registry import policy_fingerprint
    from repro.workloads import (
        canonical_workload_spec,
        workload_fingerprint,
    )

    fields = {
        "version": _FORMAT_VERSION,
        "workload": canonical_workload_spec(benchmark),
        "policy_spec": policy_spec.strip().lower(),
        "scale": repr(float(scale)),
        "config": asdict(config),
        "phase_interval": phase_interval,
        "metrics": obs.metrics_enabled(),
        "code": code_version(),
        "policy_code": policy_fingerprint(policy_spec),
        "workload_code": workload_fingerprint(benchmark),
    }
    if prefetch_degree is not None:
        fields["prefetch_degree"] = prefetch_degree
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def shard_of(key: str) -> str:
    """Digest-prefix shard directory name for ``key`` (2 hex chars)."""
    return key[:2].lower()


def result_digest(result_dict: Dict) -> str:
    """Content digest over a serialized SimResult (canonical JSON)."""
    blob = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


class _IntegrityError(ValueError):
    """A stored payload failed its content-digest check."""


class ResultStore:
    """JSON-per-key result store rooted at one directory.

    Tracks ``hits``/``misses``/``quarantined`` counters for
    observability; the suite runner surfaces them in
    ``SuiteResult.to_json()``.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or (
                Path.home() / ".cache" / "repro"
            )
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.root / shard_of(key) / ("%s.json" % key)

    def _flat_path(self, key: str) -> Path:
        """Where a pre-shard checkout would have written ``key``."""
        return self.root / ("%s.json" % key)

    def _locate(self, key: str) -> Path:
        """The on-disk path for ``key``, lazily migrating flat entries.

        Reads prefer the sharded path; when only the legacy flat path
        exists the entry is re-homed into its shard directory first
        (atomic ``os.replace``), so old stores upgrade one read at a
        time with no flag day.  Losing a migration race to another
        process is fine — the entry is then already at the sharded
        path.
        """
        path = self._path(key)
        if path.exists():
            return path
        flat = self._flat_path(key)
        if flat.exists():
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                os.replace(flat, path)
            except OSError:
                if flat.exists():
                    return flat
        return path

    def entry_paths(self) -> List[Path]:
        """Every stored entry, sharded and legacy-flat, sorted by key."""
        if not self.root.is_dir():
            return []
        paths = list(self.root.glob("*.json"))
        for child in sorted(self.root.iterdir()):
            if child.is_dir() and child.name not in ("quarantine", "runs"):
                paths.extend(child.glob("*.json"))
        return sorted(paths, key=lambda p: p.name)

    def shard_stats(self) -> Dict[str, object]:
        """Entry counts by shard, plus flat/quarantine remainders."""
        shards: Dict[str, int] = {}
        flat = 0
        for path in self.entry_paths():
            if path.parent == self.root:
                flat += 1
            else:
                name = path.parent.name
                shards[name] = shards.get(name, 0) + 1
        quarantined = (
            sum(1 for _ in self.quarantine_dir.glob("*.json"))
            if self.quarantine_dir.is_dir() else 0
        )
        return {
            "entries": flat + sum(shards.values()),
            "flat": flat,
            "shards": shards,
            "quarantined": quarantined,
        }

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (never serve it, never crash)."""
        self.quarantined += 1
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def load(self, key: str) -> Optional[SimResult]:
        """Return the stored result for ``key``, or None on a miss.

        Every read verifies the payload's content digest, so torn
        writes, manual edits, and bit-rot all count as misses: the
        offending file is moved to ``quarantine/`` (for post-mortems)
        instead of being served or crashing the run.
        """
        path = self._locate(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            result_dict = payload["result"]
            if payload["digest"] != result_digest(result_dict):
                raise _IntegrityError("digest mismatch for %s" % key)
            result = SimResult.from_dict(result_dict)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def load_payload(self, key: str) -> Optional[Dict]:
        """Return the raw stored dict for ``key``, or None on a miss.

        The generic sibling of :meth:`load` for entries that are not
        ``SimResult`` payloads (e.g. oracle reports): same digest
        verification and quarantine behavior, no deserialization —
        callers own the payload's shape.
        """
        path = self._locate(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            result_dict = payload["result"]
            if payload["digest"] != result_digest(result_dict):
                raise _IntegrityError("digest mismatch for %s" % key)
            if not isinstance(result_dict, dict):
                raise _IntegrityError("non-dict payload for %s" % key)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return result_dict

    def save_payload(self, key: str, payload_dict: Dict, **key_fields) -> None:
        """Atomically persist an arbitrary JSON-safe dict under ``key``."""
        self.root.mkdir(parents=True, exist_ok=True)
        self._write(key, payload_dict, key_fields)

    def save(self, key: str, result: SimResult, **key_fields) -> None:
        """Atomically persist ``result`` under ``key``."""
        self.root.mkdir(parents=True, exist_ok=True)
        self._write(key, result.to_dict(), key_fields)

    def _write(self, key: str, result_dict: Dict, key_fields: Dict) -> None:
        payload = {
            "key_fields": key_fields,
            "code": code_version(),
            "digest": result_digest(result_dict),
            "result": result_dict,
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def contains(self, key: str) -> bool:
        return self._path(key).exists() or self._flat_path(key).exists()

    def __len__(self) -> int:
        return len(self.entry_paths())

    def clear(self) -> int:
        """Delete every stored result; returns the number removed."""
        removed = 0
        for path in self.entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def gc(self, dry_run: bool = False) -> Dict[str, int]:
        """Prune entries written by other code versions, plus junk.

        Store keys include the code version, so entries written by an
        older checkout can never be *served* — but they linger on disk
        forever.  ``gc`` removes them (and anything unparseable, and
        everything previously quarantined); entries from the current
        code version are kept.  ``dry_run`` only counts.
        """
        current = code_version()
        removed = kept = 0
        for path in self.entry_paths():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                stale = payload.get("code") != current
            except (OSError, ValueError):
                stale = True
            if stale:
                removed += 1
                if not dry_run:
                    try:
                        path.unlink()
                    except OSError:
                        pass
            else:
                kept += 1
                if not dry_run and path.parent == self.root:
                    # Eagerly re-home surviving flat entries: gc is the
                    # natural "tidy the store" moment, so a full pass
                    # finishes what lazy read-side migration started.
                    self._locate(path.stem)
        purged = 0
        if self.quarantine_dir.is_dir():
            for path in sorted(self.quarantine_dir.glob("*.json")):
                purged += 1
                if not dry_run:
                    try:
                        path.unlink()
                    except OSError:
                        pass
        return {"removed": removed, "kept": kept,
                "quarantine_purged": purged}

    def counters(self) -> Dict[str, int]:
        return {
            "store_hits": self.hits,
            "store_misses": self.misses,
            "store_quarantined": self.quarantined,
        }


_stores: Dict[str, ResultStore] = {}


def default_store() -> Optional[ResultStore]:
    """The process-wide store for the current environment, or None.

    Re-reads ``REPRO_CACHE_DIR``/``REPRO_NO_STORE`` on every call so
    tests (and CLIs) can redirect or disable persistence by mutating
    the environment; instances are cached per root so hit/miss
    counters accumulate.
    """
    if os.environ.get("REPRO_NO_STORE"):
        return None
    root = os.environ.get("REPRO_CACHE_DIR") or str(
        Path.home() / ".cache" / "repro"
    )
    store = _stores.get(root)
    if store is None:
        store = _stores[root] = ResultStore(root)
    return store


def main(argv=None) -> int:
    """``python -m repro.sim.store``: inspect and garbage-collect.

    ``--stats`` (default) prints the store location, entry counts
    (per shard, plus any pre-shard flat remainder), and the quarantine
    count; ``--gc`` prunes entries from old code versions and re-homes
    surviving flat entries into their shards (``--dry-run`` to
    preview); ``--clear`` deletes everything.
    """
    import argparse
    import sys

    from repro.sim.common_cli import umbrella_pointer

    umbrella_pointer("store")
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.store",
        description="Inspect and maintain the persistent result store.",
    )
    action = parser.add_mutually_exclusive_group()
    action.add_argument(
        "--stats", action="store_true",
        help="print store location and entry counts (default)",
    )
    action.add_argument(
        "--gc", action="store_true",
        help="prune entries written by other code versions (and purge "
        "the quarantine directory)",
    )
    action.add_argument(
        "--clear", action="store_true",
        help="delete every stored result",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="with --gc: report what would be removed without removing",
    )
    args = parser.parse_args(argv)

    store = default_store()
    if store is None:
        print("persistence is disabled (REPRO_NO_STORE is set)",
              file=sys.stderr)
        return 1
    if args.clear:
        removed = store.clear()
        print("cleared %d entries from %s" % (removed, store.root))
        return 0
    if args.gc:
        stats = store.gc(dry_run=args.dry_run)
        print(
            "%s%s: removed %d stale, kept %d current, purged %d "
            "quarantined (code %s)"
            % ("[dry run] " if args.dry_run else "", store.root,
               stats["removed"], stats["kept"],
               stats["quarantine_purged"], code_version()),
        )
        return 0
    stats = store.shard_stats()
    print("store: %s" % store.root)
    print("  entries: %d  quarantined: %d  code: %s"
          % (stats["entries"], stats["quarantined"], code_version()))
    shards = stats["shards"]
    if shards:
        print("  shards: %d populated" % len(shards))
        line = "  ".join(
            "%s:%d" % (name, shards[name]) for name in sorted(shards)
        )
        print("    %s" % line)
    if stats["flat"]:
        print(
            "  flat (pre-shard) entries: %d — migrated lazily on read, "
            "or eagerly by --gc" % stats["flat"]
        )
    return 0


__all__ = [
    "ResultStore",
    "default_store",
    "store_key",
    "code_version",
    "result_digest",
    "shard_of",
]


if __name__ == "__main__":
    import sys

    sys.exit(main())
