"""Deterministic chaos harness for the fault-tolerant engine.

Adaptive-policy evaluation is only trustworthy if the evaluation
harness itself is reliable, so this module makes the failure modes the
resilience layer guards against *injectable and seeded*: worker
crashes, worker delays, and result-store corruption.  Every decision
is a pure function of ``(seed, kind, task label, attempt)`` — no RNG
state, no wall clock — so a chaos run is exactly reproducible and CI
can assert the hard property that matters:

    with faults injected, ``run_suite`` completes and its merged
    results are **bit-identical** to the fault-free serial run.

``python -m repro.sim.chaos`` runs that differential end-to-end
against a throwaway store (fault-free serial baseline, then store
corruption + a chaotic parallel run) and exits non-zero on any digest
mismatch; CI's chaos-smoke job is exactly this command.

Crash injection has two modes:

* **raise** (default) — the worker raises :class:`ChaosCrash`; the
  task fails cleanly and is retried with backoff.
* **hard** (``hard=True``) — the worker process calls ``os._exit``,
  which kills its scheduler slot; this exercises the slot rebuild.
  Hard mode only ever exits inside a multiprocessing child — a cell
  run in the parent (``workers=0``) raises instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional


class ChaosCrash(RuntimeError):
    """Injected worker crash (raise-mode)."""


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded fault-injection knobs.

    Rates are probabilities in ``[0, 1]`` evaluated per (task,
    attempt) via :meth:`_roll`; ``delay_s`` is the injected sleep.
    """

    seed: int = 0
    crash_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.005
    hard: bool = False

    def _roll(self, kind: str, label: str, attempt: int) -> float:
        """Uniform [0, 1) deterministic in (seed, kind, label, attempt)."""
        digest = hashlib.sha256(
            ("%d|%s|%s|%d" % (self.seed, kind, label, attempt)).encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def should_crash(self, label: str, attempt: int) -> bool:
        return (
            self.crash_rate > 0
            and self._roll("crash", label, attempt) < self.crash_rate
        )

    def delay(self, label: str, attempt: int) -> float:
        if (
            self.delay_rate > 0
            and self._roll("delay", label, attempt) < self.delay_rate
        ):
            return self.delay_s
        return 0.0

    @classmethod
    def parse(cls, spec: str) -> "ChaosConfig":
        """Parse ``"crash=0.2,delay=0.3,delay-s=0.01,seed=7,hard=1"``."""
        fields: Dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                name, value = part.split("=", 1)
            except ValueError:
                raise ValueError(
                    "chaos spec entries look like key=value, got %r" % part
                )
            name = name.strip().lower().replace("-", "_")
            if name == "crash":
                name = "crash_rate"
            elif name == "delay":
                name = "delay_rate"
            if name in ("crash_rate", "delay_rate", "delay_s"):
                fields[name] = float(value)
            elif name == "seed":
                fields[name] = int(value)
            elif name == "hard":
                fields[name] = value.strip().lower() not in ("0", "false", "")
            else:
                raise ValueError("unknown chaos knob %r" % name)
        return cls(**fields)


def inject(
    chaos: Optional[ChaosConfig],
    label: str,
    attempt: int,
) -> None:
    """Apply the configured faults for one task attempt.

    Called at the top of task execution.  Delays sleep (and therefore
    count against the task's deadline); crashes either raise
    :class:`ChaosCrash` or — hard mode inside a worker process — kill
    the process outright.  A process with no multiprocessing parent is
    never killed.
    """
    if chaos is None:
        return
    delay = chaos.delay(label, attempt)
    if delay > 0:
        time.sleep(delay)
    if chaos.should_crash(label, attempt):
        if chaos.hard:
            import multiprocessing

            if multiprocessing.parent_process() is not None:
                os._exit(13)
        raise ChaosCrash(
            "chaos: injected crash for %s attempt %d" % (label, attempt)
        )


def corrupt_store(
    store, fraction: float = 0.5, seed: int = 0
) -> List[Dict[str, object]]:
    """Deterministically corrupt a fraction of stored results.

    Which entries are corrupted, and how, is a pure function of
    ``seed`` and each entry's stored task record (its ``key_fields``),
    not of its file name: store keys hash the source tree, so a choice
    by key would change with every source edit.  Chosen entries, in
    record order, alternate two corruption shapes so both integrity
    defenses get exercised: even positions get a *silent* payload
    mutation (still valid JSON — only the content digest catches it),
    odd positions a torn write (truncated file, invalid JSON).
    Returns the task records of the corrupted entries.
    """
    chosen = []
    for path in store.entry_paths():
        payload = json.loads(path.read_text())
        record = json.dumps(payload.get("key_fields"), sort_keys=True)
        roll = int.from_bytes(
            hashlib.sha256(
                ("%d|corrupt|%s" % (seed, record)).encode()
            ).digest()[:8],
            "big",
        ) / 2.0**64
        if roll < fraction:
            chosen.append((record, path, payload))
    chosen.sort(key=lambda entry: entry[0])
    for index, (_, path, payload) in enumerate(chosen):
        if index % 2 == 0:
            result = payload.get("result", {})
            for field in ("cycles", "instructions", "ipc"):
                if field in result:
                    result[field] = result[field] + 1
                    break
            path.write_text(json.dumps(payload))
        else:
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 2)])
    return [payload.get("key_fields") for _, _, payload in chosen]


# -- CLI: the chaos differential -----------------------------------------


def main(argv=None) -> int:
    from repro.cache.replacement.registry import split_specs
    from repro.sim.common_cli import scale_value, worker_count
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.chaos",
        description="Differential chaos test: a fault-free serial suite "
        "run vs a parallel run with injected crashes, delays, and store "
        "corruption must produce bit-identical results.",
    )
    parser.add_argument("--policies", default="lru,lin(4)")
    parser.add_argument("--benchmarks", default="mcf,art")
    parser.add_argument("--scale", type=scale_value, default=0.25)
    parser.add_argument("--workers", type=worker_count, default=2)
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--crash-rate", type=float, default=0.2)
    parser.add_argument("--delay-rate", type=float, default=0.3)
    parser.add_argument("--delay-s", type=float, default=0.002)
    parser.add_argument(
        "--corrupt", type=float, default=0.5, metavar="FRACTION",
        help="fraction of store entries to corrupt between runs",
    )
    parser.add_argument(
        "--hard", action="store_true",
        help="crash via os._exit in workers (kills a slot) instead of "
        "raising",
    )
    parser.add_argument("--max-retries", type=int, default=6)
    args = parser.parse_args(argv)

    # Everything below runs against a throwaway store so the chaos run
    # can never poison (or be poisoned by) a developer's warm cache.
    from repro.sim.options import RunOptions
    from repro.sim.store import default_store
    from repro.sim.suite import run_suite

    policies = split_specs(args.policies)
    benchmarks = split_specs(args.benchmarks)
    saved = os.environ.get("REPRO_CACHE_DIR")
    tmp = tempfile.mkdtemp(prefix="repro-chaos-")
    os.environ["REPRO_CACHE_DIR"] = tmp
    try:
        print("[chaos] fault-free serial baseline...", file=sys.stderr)
        baseline = run_suite(
            policies=policies, benchmarks=benchmarks, scale=args.scale,
        )
        want = baseline.content_digest()

        store = default_store()
        corrupted = corrupt_store(store, fraction=args.corrupt,
                                  seed=args.seed)
        chaos = ChaosConfig(
            seed=args.seed,
            crash_rate=args.crash_rate,
            delay_rate=args.delay_rate,
            delay_s=args.delay_s,
            hard=args.hard,
        )
        print(
            "[chaos] parallel run: workers=%d crash=%.2f delay=%.2f "
            "corrupted=%d/%d entries%s"
            % (args.workers, args.crash_rate, args.delay_rate,
               len(corrupted), len(store),
               " (hard)" if args.hard else ""),
            file=sys.stderr,
        )
        suite = run_suite(
            policies=policies, benchmarks=benchmarks, scale=args.scale,
            options=RunOptions(
                workers=args.workers,
                max_retries=args.max_retries,
                chaos=chaos,
            ),
        )
        got = suite.content_digest()
        resilience = suite.meta["resilience"]
        print(
            "[chaos] retries=%s worker_rebuilds=%s "
            "quarantined=%s failures=%d"
            % (
                resilience.get("retries"),
                resilience.get("worker_rebuilds"),
                resilience.get("store_quarantined"),
                len(suite.failures),
            ),
            file=sys.stderr,
        )
        if suite.failures:
            print("FAIL: chaos run left failed cells: %s"
                  % json.dumps(suite.failures), file=sys.stderr)
            return 1
        if got != want:
            print(
                "FAIL: digest mismatch — chaos run %s != fault-free %s"
                % (got, want),
                file=sys.stderr,
            )
            return 1
        print("OK: chaos run digest %s matches the fault-free baseline"
              % got)
        return 0
    finally:
        if saved is not None:
            os.environ["REPRO_CACHE_DIR"] = saved
        else:
            os.environ.pop("REPRO_CACHE_DIR", None)
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)


__all__ = [
    "ChaosConfig",
    "ChaosCrash",
    "corrupt_store",
    "inject",
    "main",
]


if __name__ == "__main__":
    sys.exit(main())
