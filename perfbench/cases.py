"""The benchmark's four workloads, each run the way a user runs it.

Every workload is one function taking an :class:`Iteration` — a fresh
directory with its own result store — and returning a :class:`Sample`:
set-up time, the timed region's wall time, CPU time and peak RSS, the
per-job latencies, and a digest of the program's output that the
run loop compares across runs.  Anything that does not check out raises
:class:`~harness.BenchError`.
"""

from __future__ import annotations

import hashlib
import json
import re
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import (
    PROCESS_TIMEOUT_S,
    BenchError,
    Daemon,
    Measured,
    base_env,
    fresh_dir,
    python_argv,
    run_measured,
)

#: The 14 SPEC CPU2000 surrogates, in ``repro``'s registry order.
SURROGATES = (
    "art", "mcf", "twolf", "vpr", "facerec", "ammp", "galgel", "equake",
    "bzip2", "parser", "sixtrack", "apsi", "lucas", "mgrid",
)

BASE_POLICIES = ("lru", "lin(4)", "sbar")
NEW_POLICIES = BASE_POLICIES + ("dip", "plru")
TENANTS = {
    "tenant-a": ("lru", "lin(4)", "sbar"),
    "tenant-b": ("lin(4)", "sbar", "ehc"),
}
#: Cells the two tenants' grids need between them (14 x 4 policies).
SERVICE_UNIQUE_CELLS = len(SURROGATES) * len(
    set(TENANTS["tenant-a"]) | set(TENANTS["tenant-b"])
)

#: Trace-length multiplier per workload, sized so one set-up plus timed
#: run takes a few seconds on a 2-core host.
SCALES = {
    "suite-cold": 0.25,
    "suite-warm-newpolicy": 0.05,
    "experiments-pool": 0.02,
    "service-2tenant": 0.25,
}

#: ``[figure9 finished in 0.3s]`` — the only host-dependent stdout line
#: ``repro experiments`` prints.
TIMING_LINE = re.compile(r"\[[\w-]+ finished in [0-9.]+s\]")


def surrogate_specs(seed: Optional[int]) -> List[str]:
    """The 14 surrogates, spelled ``name(seed=S)`` for a non-zero seed.

    Seed 0 (the default) means the plain surrogates, which the pinned
    digests in ``digests.json`` cover.
    """
    if not seed:
        return list(SURROGATES)
    return ["%s(seed=%d)" % (name, seed) for name in SURROGATES]


def digest_of(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def normalise_experiments(stdout: str) -> str:
    """``repro experiments`` stdout without its timing lines."""
    return "".join(
        line for line in stdout.splitlines(keepends=True)
        if not TIMING_LINE.fullmatch(line.rstrip("\r\n"))
    )


def suite_digest(json_path: Path, cells: int) -> str:
    """Digest of a suite's ``--json`` ``runs`` and ``failures``.

    ``meta`` carries wall times and worker pids, so it is left out.
    """
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    runs, failures = payload["runs"], payload.get("failures", {})
    if failures or len(runs) != cells:
        raise BenchError(
            "suite produced %d of %d cells (failures: %s)"
            % (len(runs), cells, sorted(failures))
        )
    return digest_of({"runs": runs, "failures": failures})


@dataclass
class Sample:
    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    #: Per-job latency; a CLI workload's one job is the whole command.
    job_s: List[float]
    digest: str
    #: The timed region on the ``perf_counter`` clock.
    window: Tuple[float, float]
    #: Per-layer numbers read from outside the program (store
    #: quarantine, service counters).
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def job_p50_s(self) -> float:
        return statistics.median(self.job_s)

    def scale_times(self, factor: float) -> None:
        """Multiply every reported time by ``factor`` (see
        :class:`harness.SpeedProbe`); the window stays raw."""
        self.setup_s *= factor
        self.wall_s *= factor
        self.cpu_s *= factor
        self.job_s = [value * factor for value in self.job_s]


class Iteration:
    """One set-up plus timed run, in a fresh directory and store."""

    def __init__(self, directory: Path, seed: Optional[int],
                 traced: bool) -> None:
        self.dir = fresh_dir(directory)
        self.name = directory.name
        self.store = self.dir / "store"
        self.spans = self.dir / "spans"
        self.specs = surrogate_specs(seed)
        self.traced = traced

    def env(self, traced: bool = False) -> Dict[str, str]:
        env = base_env()
        env["REPRO_CACHE_DIR"] = str(self.store)
        if traced:
            env["PERFBENCH_SPANS"] = str(self.spans)
            env["PERFBENCH_RUN_ID"] = self.name
        return env

    def repro(self, label: str, args: Sequence[str],
              traced: bool = False) -> Measured:
        """``python -m repro ARGS``; a non-zero exit is a failed run."""
        measured = run_measured(
            python_argv(list(args), traced), self.env(traced),
            self.dir / (label + ".out"), self.dir / (label + ".err"),
        )
        if measured.code != 0:
            tail = self.output(label, ".err").strip().splitlines()[-3:]
            raise BenchError("%s exited with %d: %s"
                             % (label, measured.code, " | ".join(tail)))
        return measured

    def output(self, label: str, suffix: str = ".out") -> str:
        return (self.dir / (label + suffix)).read_text(
            encoding="utf-8", errors="replace"
        )

    def quarantined(self) -> int:
        quarantine = self.store / "quarantine"
        return len(list(quarantine.iterdir())) if quarantine.is_dir() else 0

    def suite_args(self, policies: Sequence[str], scale: float,
                   json_name: str) -> List[str]:
        return [
            "suite", "--policies", ",".join(policies),
            "--benchmarks", ",".join(self.specs),
            "--scale", repr(scale), "--json", str(self.dir / json_name),
        ]


def _check_empty_store(it: Iteration) -> float:
    """Set-up of the cold workloads: confirm the fresh store is empty."""
    measured = it.repro("setup", ["store", "--stats"])
    if not re.search(r"entries: 0\b", it.output("setup")):
        raise BenchError("fresh store is not empty")
    return measured.wall_s


def _cli_sample(it: Iteration, setup_s: float, measured: Measured,
                digest: str) -> Sample:
    return Sample(
        setup_s=setup_s,
        wall_s=measured.wall_s,
        cpu_s=measured.cpu_s,
        peak_rss_mb=measured.peak_rss_mb,
        job_s=[measured.wall_s],
        digest=digest,
        window=(measured.started, measured.ended),
        layers={"store.quarantined": it.quarantined()},
    )


def suite_cold(it: Iteration) -> Sample:
    scale = SCALES["suite-cold"]
    setup_s = _check_empty_store(it)
    measured = it.repro(
        "timed", it.suite_args(BASE_POLICIES, scale, "suite.json"),
        traced=it.traced,
    )
    digest = suite_digest(it.dir / "suite.json", len(SURROGATES) * 3)
    return _cli_sample(it, setup_s, measured, digest)


def suite_warm_newpolicy(it: Iteration) -> Sample:
    scale = SCALES["suite-warm-newpolicy"]
    fill = it.repro("setup", it.suite_args(BASE_POLICIES, scale, "fill.json"))
    suite_digest(it.dir / "fill.json", len(SURROGATES) * len(BASE_POLICIES))
    measured = it.repro(
        "timed", it.suite_args(NEW_POLICIES, scale, "suite.json"),
        traced=it.traced,
    )
    digest = suite_digest(
        it.dir / "suite.json", len(SURROGATES) * len(NEW_POLICIES)
    )
    return _cli_sample(it, fill.wall_s, measured, digest)


def experiments_pool(it: Iteration) -> Sample:
    setup_s = _check_empty_store(it)
    measured = it.repro(
        "timed",
        ["experiments", "--scale", repr(SCALES["experiments-pool"]),
         "--workers", "2"],
        traced=it.traced,
    )
    stdout = it.output("timed")
    finished = sum(
        1 for line in stdout.splitlines() if TIMING_LINE.fullmatch(line)
    )
    if finished != 21:
        raise BenchError("%d of 21 experiments finished" % finished)
    digest = digest_of(normalise_experiments(stdout))
    return _cli_sample(it, setup_s, measured, digest)


def _await_job(client, job_id: str, done: List, index: int) -> None:
    """Watch one job; store when ``job_done`` arrived and this thread's
    CPU time."""
    try:
        for event in client.watch(job_id):
            if event.get("event") == "job_done":
                done[index] = (time.perf_counter(), time.thread_time())
                return
    except Exception as exc:  # reported by the caller as a failed run
        done[index] = exc


def service_2tenant(it: Iteration) -> Sample:
    """Open-loop burst of 28 per-benchmark jobs from two tenants."""
    from repro.service.client import ServiceClient

    scale = SCALES["service-2tenant"]
    daemon = Daemon(
        python_argv(["serve", "--workers", "2", "--port", "0"], it.traced),
        it.env(it.traced), it.dir / "daemon.err",
    )
    try:
        port = daemon.wait_listening()
        admin = ServiceClient(port=port, timeout=PROCESS_TIMEOUT_S)
        deadline = time.monotonic() + 30.0
        while True:
            try:
                admin.ping()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise BenchError("service daemon never answered ping")
                time.sleep(0.005)
        setup_s = time.perf_counter() - daemon.started
        daemon.mark_ready()

        jobs = [(tenant, spec) for spec in it.specs for tenant in TENANTS]
        clients = {
            tenant: ServiceClient(port=port, tenant=tenant,
                                  timeout=PROCESS_TIMEOUT_S)
            for tenant in TENANTS
        }
        done: List[object] = [None] * len(jobs)
        job_ids, threads = [], []
        submit_s = 0.0
        submit_cpu = time.thread_time()
        started = time.perf_counter()
        for index, (tenant, spec) in enumerate(jobs):
            before = time.perf_counter()
            job_id = clients[tenant].submit(
                [spec], TENANTS[tenant], scale=scale
            )
            submit_s += time.perf_counter() - before
            job_ids.append(job_id)
            thread = threading.Thread(
                target=_await_job,
                args=(clients[tenant], job_id, done, index),
            )
            thread.start()
            threads.append(thread)
        submit_cpu = time.thread_time() - submit_cpu
        deadline = time.monotonic() + PROCESS_TIMEOUT_S
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        if any(thread.is_alive() for thread in threads):
            raise BenchError("service jobs still running after %.0fs"
                             % PROCESS_TIMEOUT_S)
        errors = [d for d in done if not isinstance(d, tuple)]
        if errors:
            raise BenchError("watching a job failed: %r" % errors[0])
        ended = max(seen for seen, _ in done)
        client_cpu_s = submit_cpu + sum(cpu for _, cpu in done)

        snapshots = [admin.status(job_id) for job_id in job_ids]
        stats = admin.stats()["counters"]
        admin.shutdown()
        measured = daemon.reap()
        if measured.code != 0:
            raise BenchError("service daemon exited with %d" % measured.code)
    finally:
        daemon.close()

    digest = _service_digest(jobs, snapshots, stats)
    return Sample(
        setup_s=setup_s,
        wall_s=ended - started,
        cpu_s=measured.cpu_s + client_cpu_s,
        peak_rss_mb=measured.peak_rss_mb,
        job_s=[seen - started for seen, _ in done],
        digest=digest,
        window=(started, ended),
        layers={
            "store.quarantined": it.quarantined(),
            "service.submit.s": submit_s,
            "service.cells_executed": stats["cells_executed"],
            "service.cells_deduped": stats["cells_deduped"],
            "service.cells_store_hits": stats["cells_store_hits"],
            "service.rejected": stats["submissions_rejected"],
        },
    )


def _service_digest(jobs, snapshots, stats) -> str:
    """Digest of both tenants' job digests, after checking them.

    Every job must be done, the cells the tenants share must carry the
    same result digest in both tenants' jobs, and the service must have
    executed each unique cell exactly once.
    """
    by_job, cells = {}, {}
    for (tenant, spec), snapshot in zip(jobs, snapshots):
        if snapshot["status"] != "done" or not snapshot["digest"]:
            raise BenchError("job %s/%s ended %s"
                             % (tenant, spec, snapshot["status"]))
        by_job["%s/%s" % (tenant, spec)] = snapshot["digest"]
        for cell in snapshot["cells"].values():
            key = (cell["benchmark"], cell["policy"])
            if cells.setdefault(key, cell["digest"]) != cell["digest"]:
                raise BenchError("tenants disagree on cell %s/%s" % key)
    if stats["cells_executed"] != SERVICE_UNIQUE_CELLS:
        raise BenchError(
            "service executed %d cells, expected the %d unique ones"
            % (stats["cells_executed"], SERVICE_UNIQUE_CELLS)
        )
    return digest_of(by_job)


#: name -> (run one iteration, why the workload is in the benchmark).
CASES: Dict[str, Tuple[Callable[[Iteration], Sample], str]] = {
    "suite-cold": (
        suite_cold,
        "first suite a new user runs: empty store, serial, trace "
        "synthesis dominates and replay is all native",
    ),
    "suite-warm-newpolicy": (
        suite_warm_newpolicy,
        "warm store plus a new policy: 42 store hits, 14 trace builds "
        "and 28 replays on rungs below native",
    ),
    "experiments-pool": (
        experiments_pool,
        "all 21 experiments on 2 workers: pool prewarm, serial render, "
        "fused-rung runs, the oracle and repeated trace builds",
    ),
    "service-2tenant": (
        service_2tenant,
        "two tenants burst 28 overlapping jobs at a fresh 2-worker "
        "daemon: protocol, dedup, quotas and scheduling",
    ),
}
