"""Persistent on-disk result store: simulate once, reuse everywhere.

Every figure in the paper reads from the same (benchmark x policy)
matrix.  The store is the one result cache:
:func:`repro.sim.runner.run_task`, every grid and the job service probe
it before simulating a cell.  It holds content-addressed JSON files,
one per result, so repeat runs are free within a process and across
processes, worker slots and sessions:

* **Location** — ``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``.
  Set ``REPRO_NO_STORE=1`` to disable persistence entirely (every cell
  is then simulated each time it is asked for).
* **Keying** — :func:`store_key` is a SHA-256 over the task's fields
  (canonical workload spec, canonical policy spec, trace scale, full
  machine config, phase interval and any other field the task sets),
  the workload's content fingerprint (imported trace files hash their
  bytes), the metrics flag, the repro package's source hash, and (for
  user-registered policies) the factory's source hash.  Any code,
  configuration, or workload-content change therefore misses cleanly
  instead of returning stale results.
* **Format** — one JSON file per key holding the task's record (for
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
counts.  No key reads a ``*.json`` file at the root: ``--gc`` prunes
such files as stale and ``--clear`` deletes them.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

# The rest of repro (and dataclasses) is imported where it is used, so
# ``python -m repro store`` loads no simulator.
if TYPE_CHECKING:
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
        package_root.glob("_native/*.[ch]")
    )
    for path in sources:
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def code_version() -> str:
    """Hash of every ``repro`` source file, cached per process.

    Keys include this hash so editing the simulator — its Python or
    the C kernel and trace generator — invalidates every stored result.
    The walk runs once per process and costs 5–9 ms: 5.2–6.1 ms and
    7.7–9.1 ms in two sets of 3 fresh processes on a shared 2-core
    host.
    """
    global _code_version
    if _code_version is None:
        import repro

        _code_version = source_digest(Path(repro.__file__).resolve().parent)
    return _code_version


def store_key(task) -> str:
    """Content hash identifying one simulation cell, stable across processes.

    ``task`` is a :class:`repro.sim.runner.Task`.  The key holds the
    workload's *canonical* spelling plus its content fingerprint, so
    spellings of one spec share a key, distinct specs never alias, and
    an imported trace file silently replaced on disk misses cleanly.
    Every optional task field that is set joins the key under its own
    name.
    """
    from repro import obs
    from repro.cache.replacement.registry import policy_fingerprint
    from repro.workloads import workload_fingerprint

    canonical = task.canonical()
    fields = {
        "version": _FORMAT_VERSION,
        "workload": canonical.benchmark,
        "policy_spec": canonical.policy_spec,
        "scale": repr(float(task.scale)),
        "config": _config_fields(task.machine()),
        "phase_interval": task.phase_interval,
        "metrics": obs.metrics_enabled(),
        "code": code_version(),
        "policy_code": policy_fingerprint(task.policy_spec),
        "workload_code": workload_fingerprint(task.benchmark),
    }
    for name, value in task.modifiers().items():
        fields.setdefault(name, value)
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


#: ``asdict`` of each machine config keyed so far, by ``repr``: unlike
#: ``==``, it tells ``1`` from ``1.0``, as the key's JSON does.
_CONFIG_FIELDS: Dict[str, Dict] = {}


def _config_fields(config) -> Dict:
    """``asdict(config)``, once per frozen :class:`MachineConfig`.

    :func:`store_key` only serializes it, never mutates it.
    """
    text = repr(config)
    fields = _CONFIG_FIELDS.get(text)
    if fields is None:
        from dataclasses import asdict

        if len(_CONFIG_FIELDS) >= 64:
            _CONFIG_FIELDS.clear()
        fields = _CONFIG_FIELDS[text] = asdict(config)
    return fields


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
        #: Shard directories this instance has made (or found) already.
        self._shards = set()

    def _path(self, key: str) -> Path:
        return self.root / shard_of(key) / ("%s.json" % key)

    def entry_paths(self) -> List[Path]:
        """Every stored file, sorted by key (root-level leftovers too)."""
        if not self.root.is_dir():
            return []
        paths = list(self.root.glob("*.json"))
        for child in sorted(self.root.iterdir()):
            if child.is_dir() and child.name not in ("quarantine", "runs"):
                paths.extend(child.glob("*.json"))
        return sorted(paths, key=lambda p: p.name)

    def shard_stats(self) -> Dict[str, object]:
        """Entry counts by shard, plus the quarantine count."""
        shards: Dict[str, int] = {}
        for path in self.entry_paths():
            if path.parent != self.root:
                name = path.parent.name
                shards[name] = shards.get(name, 0) + 1
        quarantined = (
            sum(1 for _ in self.quarantine_dir.glob("*.json"))
            if self.quarantine_dir.is_dir() else 0
        )
        return {
            "entries": sum(shards.values()),
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

        :meth:`load_payload` plus ``SimResult.from_dict``: a payload
        that passes its digest check but does not deserialize is
        quarantined like any other corrupt entry.
        """
        from repro.sim.stats import SimResult

        return self._read(key, SimResult.from_dict)

    def load_payload(self, key: str) -> Optional[Dict]:
        """Return the raw stored dict for ``key``, or None on a miss.

        Every read verifies the payload's content digest, so torn
        writes, manual edits, and bit-rot all count as misses: the
        offending file is moved to ``quarantine/`` (for post-mortems)
        instead of being served or crashing the run.  Callers own the
        payload's shape (oracle reports, the service's result op).
        """
        return self._read(key, None)

    def _read(self, key: str, decode: Optional[Callable]):
        """The one read path: load, verify, ``decode`` (None keeps the
        dict), and quarantine whatever fails on the way."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            result_dict = payload["result"]
            if payload["digest"] != result_digest(result_dict):
                raise _IntegrityError("digest mismatch for %s" % key)
            if not isinstance(result_dict, dict):
                raise _IntegrityError("non-dict payload for %s" % key)
            value = result_dict if decode is None else decode(result_dict)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def save_payload(self, key: str, payload_dict: Dict, **key_fields) -> None:
        """Atomically persist an arbitrary JSON-safe dict under ``key``."""
        self._write(key, payload_dict, key_fields)

    def save(self, key: str, result: SimResult, **key_fields) -> None:
        """Atomically persist ``result`` under ``key``."""
        self._write(key, result.to_dict(), key_fields)

    def _temp_file(self, shard: Path) -> Tuple[int, str]:
        """``mkstemp`` in ``shard``, making the directory once per
        instance (and again if it was removed since)."""
        if shard not in self._shards:
            shard.mkdir(parents=True, exist_ok=True)
            self._shards.add(shard)
        try:
            return tempfile.mkstemp(dir=str(shard), suffix=".tmp")
        except FileNotFoundError:
            shard.mkdir(parents=True, exist_ok=True)
            return tempfile.mkstemp(dir=str(shard), suffix=".tmp")

    def _write(self, key: str, result_dict: Dict, key_fields: Dict) -> None:
        payload = {
            "key_fields": key_fields,
            "code": code_version(),
            "digest": result_digest(result_dict),
            "result": result_dict,
        }
        # json.dumps runs the C encoder (json.dump streams through the
        # pure-Python one); the bytes are the same.
        text = json.dumps(payload)
        path = self._path(key)
        descriptor, tmp_name = self._temp_file(path.parent)
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def contains(self, key: str) -> bool:
        return self._path(key).exists()

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
        forever.  ``gc`` removes them (and root-level files, anything
        unparseable, and everything previously quarantined); entries
        from the current code version are kept.  It also removes the
        run journals (``runs/*.jsonl``) older versions wrote, which
        nothing reads.  ``dry_run`` only counts.
        """
        current = code_version()
        stale = []
        kept = 0
        for path in self.entry_paths():
            # No key reads a root-level file, whatever its code version.
            junk = path.parent == self.root
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                junk = junk or payload.get("code") != current
            except (OSError, ValueError):
                junk = True
            if junk:
                stale.append(path)
            else:
                kept += 1
        purged = sorted(self.quarantine_dir.glob("*.json"))
        journals = sorted((self.root / "runs").glob("*.jsonl"))
        if not dry_run:
            for path in stale + purged + journals:
                try:
                    path.unlink()
                except OSError:
                    pass
        return {"removed": len(stale), "kept": kept,
                "quarantine_purged": len(purged),
                "journals_removed": len(journals)}

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

    ``--stats`` (default) prints the store location, entry counts per
    shard, and the quarantine count; ``--gc`` prunes entries from old
    code versions and the run journals older versions wrote
    (``--dry-run`` to preview);
    ``--clear`` deletes every stored result.
    """
    import argparse
    import sys

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
        help="prune entries written by other code versions, purge the "
        "quarantine directory, and remove the run journals older "
        "versions wrote",
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
    if args.dry_run and not args.gc:
        parser.error("--dry-run only applies to --gc")

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
            "quarantined, removed %d old journals (code %s)"
            % ("[dry run] " if args.dry_run else "", store.root,
               stats["removed"], stats["kept"],
               stats["quarantine_purged"], stats["journals_removed"],
               code_version()),
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
