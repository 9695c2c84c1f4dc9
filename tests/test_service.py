"""Job-service tests: protocol, quotas, slots, end to end.

The tentpole guarantees locked in here:

* two tenants submitting overlapping grids share executions — every
  unique cell runs exactly once, and both receive bit-identical
  digests that match a serial ``run_policy`` baseline;
* quota/backpressure rejections are 429-shaped (code +
  ``retry_after_s``) and deterministic;
* the per-worker circuit breaker trips on consecutive failures and
  recovers via half-open probes;
* ``serve --resume`` replays a crashed job's journal, re-serving
  journal-completed cells from the store;
* the umbrella ``python -m repro`` CLI reaches every subcommand.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError, submit
from repro.service.jobs import TenantQuotas, expand_cells
from repro.service.server import ServiceConfig, serve_in_thread
from repro.sim.chaos import ChaosConfig
from repro.sim.options import RunOptions
from repro.sim.store import store_key
from repro.sim.parallel import run_grid
from repro.sim.resilience import (
    RunJournal,
    journal_root,
    load_journal,
    new_run_id,
)
from repro.sim.runner import clear_cache, run_policy
from repro.sim.store import result_digest

SCALE = 0.05
BENCHMARKS = ("lucas", "mcf")
POLICIES = ("lru", "lin(4)")


@pytest.fixture(autouse=True)
def fresh_caches(tmp_path, monkeypatch):
    """Every test gets an empty memo and its own empty store."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    clear_cache()
    yield
    clear_cache()


def start_service(**overrides):
    defaults = dict(port=0, workers=2)
    defaults.update(overrides)
    return serve_in_thread(ServiceConfig(**defaults))


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"op": "submit", "benchmarks": ["mcf"], "scale": 0.25}
        line = protocol.encode(message)
        assert line.endswith(b"\n")
        assert protocol.decode(line) == message

    def test_decode_rejects_garbage(self):
        for line in (b"not json\n", b"[1,2]\n", b"\xff\xfe\n"):
            with pytest.raises(protocol.ProtocolError):
                protocol.decode(line)

    def test_validate_submit_defaults(self):
        fields = protocol.validate_submit({
            "op": "submit",
            "benchmarks": ["mcf", "art"],
            "policies": ["lru"],
        })
        assert fields["tenant"] == "anonymous"
        assert fields["scale"] is None
        assert fields["benchmarks"] == ["mcf", "art"]

    @pytest.mark.parametrize("message", [
        {"policies": ["lru"]},                       # no benchmarks
        {"benchmarks": [], "policies": ["lru"]},     # empty list
        {"benchmarks": ["mcf"], "policies": [""]},   # blank entry
        {"benchmarks": ["mcf"], "policies": ["lru"], "scale": -1},
        {"benchmarks": ["mcf"], "policies": ["lru"], "scale": "big"},
        {"benchmarks": ["mcf"], "policies": ["lru"], "tenant": ""},
        {"benchmarks": ["mcf"], "policies": ["lru"], "options": 7},
    ])
    def test_validate_submit_rejects(self, message):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_submit(message)

    def test_error_response_carries_retry_hint(self):
        response = protocol.error_response(
            "queue-full", "busy", retry_after_s=1.25
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "queue-full"
        assert response["retry_after_s"] == 1.25


class TestTenantQuotas:
    def test_admit_and_release(self):
        quotas = TenantQuotas(queue_limit=10, tenant_quota=10)
        assert quotas.try_admit("a", 4) is None
        assert quotas.inflight_total == 4
        for _ in range(4):
            quotas.release("a")
        assert quotas.inflight_total == 0
        assert quotas.inflight == {}

    def test_queue_full_rejection(self):
        quotas = TenantQuotas(queue_limit=3, tenant_quota=100)
        assert quotas.try_admit("a", 3) is None
        rejection = quotas.try_admit("b", 1)
        assert rejection is not None
        assert rejection.code == "queue-full"
        assert rejection.retry_after_s > 0
        assert quotas.rejected_queue == 1

    def test_tenant_quota_rejection_is_per_tenant(self):
        quotas = TenantQuotas(queue_limit=100, tenant_quota=2)
        assert quotas.try_admit("noisy", 2) is None
        rejection = quotas.try_admit("noisy", 1)
        assert rejection is not None
        assert rejection.code == "quota-exceeded"
        # Another tenant is unaffected by the noisy one's quota.
        assert quotas.try_admit("quiet", 2) is None

    def test_force_bypasses_checks_but_still_accounts(self):
        quotas = TenantQuotas(queue_limit=1, tenant_quota=1)
        assert quotas.try_admit("a", 5, force=True) is None
        assert quotas.inflight_total == 5

    def test_retry_after_is_deterministic_and_bounded(self):
        quotas = TenantQuotas(queue_limit=0, tenant_quota=0)
        assert quotas.retry_after(10) == quotas.retry_after(10)
        quotas.inflight_total = 10**6
        assert quotas.retry_after(1) == 30.0


class TestServiceEndToEnd:
    def test_two_clients_share_cells_and_digests_match_serial(
        self, tmp_path, monkeypatch
    ):
        # Seeded delays keep cells in flight long enough for the
        # second tenant's identical grid to attach to the first's
        # executions (any cell already finished is a store hit —
        # either way, nothing executes twice).
        chaos = ChaosConfig(delay_rate=1.0, delay_s=0.2, seed=7)
        handle = start_service(
            options=RunOptions(chaos=chaos), workers=2
        )
        try:
            snapshots = {}

            def run_client(name):
                client = ServiceClient(port=handle.port, tenant=name)
                job_id = client.submit(
                    BENCHMARKS, POLICIES, scale=SCALE
                )
                snapshots[name] = client.wait(job_id)

            threads = [
                threading.Thread(target=run_client, args=(name,))
                for name in ("alice", "bob")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = ServiceClient(port=handle.port).stats()
        finally:
            handle.stop()

        alice, bob = snapshots["alice"], snapshots["bob"]
        assert alice["status"] == "done"
        assert bob["status"] == "done"
        assert alice["digest"] == bob["digest"] is not None

        unique = len(BENCHMARKS) * len(POLICIES)
        counters = stats["counters"]
        assert counters["cells_executed"] == unique
        assert (
            counters["cells_deduped"] + counters["cells_store_hits"]
            == unique
        )

        # Bit-identical to a serial baseline computed against a second
        # fresh store (a genuine recompute, not a shared cache read).
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        clear_cache()
        for benchmark in BENCHMARKS:
            for policy in POLICIES:
                result = run_policy(benchmark, policy, scale=SCALE)
                label = "%s/%s" % (benchmark, policy)
                assert alice["cells"][label]["digest"] == result_digest(
                    result.to_dict()
                ), label

    def test_second_submission_hits_the_store(self):
        handle = start_service(workers=1)
        try:
            client = ServiceClient(port=handle.port)
            first = client.wait(
                client.submit(("lucas",), ("lru",), scale=SCALE)
            )
            second = client.wait(
                client.submit(("lucas",), ("lru",), scale=SCALE)
            )
            stats = client.stats()
        finally:
            handle.stop()
        assert first["digest"] == second["digest"]
        assert stats["counters"]["cells_executed"] == 1
        assert stats["counters"]["cells_store_hits"] == 1
        cell = second["cells"]["lucas/lru"]
        assert cell["source"] == "store"

    def test_quota_rejection_over_the_wire(self):
        handle = start_service(tenant_quota=1, queue_limit=100)
        try:
            client = ServiceClient(port=handle.port, tenant="noisy")
            with pytest.raises(ServiceError) as excinfo:
                client.submit(BENCHMARKS, POLICIES, scale=SCALE)
        finally:
            handle.stop()
        assert excinfo.value.code == "quota-exceeded"
        assert excinfo.value.retry_after_s > 0

    def test_queue_backpressure_over_the_wire(self):
        handle = start_service(queue_limit=1, tenant_quota=100)
        try:
            client = ServiceClient(port=handle.port)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(BENCHMARKS, POLICIES, scale=SCALE)
        finally:
            handle.stop()
        assert excinfo.value.code == "queue-full"
        assert excinfo.value.retry_after_s > 0

    def test_submit_helper_retries_after_rejection(self):
        # Quota admits one cell at a time: the helper's retry loop
        # (honoring retry_after_s) must eventually land both jobs.
        handle = start_service(tenant_quota=1, queue_limit=100)
        try:
            first = submit(
                ("lucas",), ("lru",), scale=SCALE, port=handle.port
            )
            second = submit(
                ("lucas",), ("lin(4)",), scale=SCALE, port=handle.port
            )
        finally:
            handle.stop()
        assert first["status"] == "done"
        assert second["status"] == "done"

    def test_unknown_job_and_unknown_op(self):
        handle = start_service()
        try:
            client = ServiceClient(port=handle.port)
            with pytest.raises(ServiceError) as excinfo:
                client.status("job-nope")
            assert excinfo.value.code == "unknown-job"
            with pytest.raises(ServiceError) as excinfo:
                client._request({"op": "frobnicate"})
            assert excinfo.value.code == "unknown-op"
        finally:
            handle.stop()

    def test_ping_reports_schema(self):
        handle = start_service()
        try:
            response = ServiceClient(port=handle.port).ping()
        finally:
            handle.stop()
        assert response["schema"] == protocol.PROTOCOL_SCHEMA

    def test_watch_streams_cell_events(self):
        # A seeded delay holds the cell, so the watcher subscribes
        # while it is still pending.
        chaos = ChaosConfig(delay_rate=1.0, delay_s=0.5, seed=7)
        handle = start_service(
            workers=1, options=RunOptions(chaos=chaos)
        )
        try:
            client = ServiceClient(port=handle.port)
            job_id = client.submit(("lucas",), ("lru",), scale=SCALE)
            events = list(client.watch(job_id))
        finally:
            handle.stop()
        names = [event["event"] for event in events]
        assert names[-1] == "job_done"
        assert "cell_finished" in names

    def test_watch_subscribes_in_the_step_that_takes_the_snapshot(self):
        # No await between the snapshot and the subscription: a cell
        # finishing while the snapshot is being sent still reaches the
        # watcher's queue.
        from repro.service.server import JobService

        async def scenario():
            service = JobService(ServiceConfig(workers=1))
            try:
                job, _ = service.submit_job(
                    tenant="t", benchmarks=["lucas"], policies=["lru"],
                    scale=SCALE,
                )
                assert not job.done
                response, (watched, queue) = service._dispatch(
                    {"op": "watch", "job_id": job.job_id}
                )
                assert response["ok"] and watched is job
                assert service._watchers[job.job_id] == [queue]
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_late_watcher_gets_only_job_done(self):
        handle = start_service(workers=1)
        try:
            client = ServiceClient(port=handle.port)
            job_id = client.submit(("lucas",), ("lru",), scale=SCALE)
            client.wait(job_id)
            events = list(client.watch(job_id))
        finally:
            handle.stop()
        assert [event["event"] for event in events] == ["job_done"]
        assert events[0]["status"] == "done"

    def test_cancel_terminates_a_pending_job(self):
        # One slot + long seeded delays: the first job occupies the
        # slot while the second job's distinct cell waits — cancelling
        # the second must drop its pending cell immediately.
        chaos = ChaosConfig(delay_rate=1.0, delay_s=0.5, seed=7)
        handle = start_service(
            workers=1, options=RunOptions(chaos=chaos)
        )
        try:
            client = ServiceClient(port=handle.port)
            blocker = client.submit(("lucas",), ("lru",), scale=SCALE)
            victim = client.submit(("mcf",), ("lru",), scale=SCALE)
            cancelled = client.cancel(victim)
            assert cancelled["status"] == "cancelled"
            final = client.wait(blocker)
        finally:
            handle.stop()
        assert final["status"] == "done"

    def test_result_includes_payloads_on_request(self):
        handle = start_service(workers=1)
        try:
            client = ServiceClient(port=handle.port)
            job_id = client.submit(("lucas",), ("lru",), scale=SCALE)
            client.wait(job_id)
            job = client.result(job_id, include_results=True)
        finally:
            handle.stop()
        payload = job["results"]["lucas/lru"]
        assert payload["policy_name"] == "lru"
        assert payload["instructions"] > 0

    def test_client_option_whitelist(self):
        from repro.service.server import JobService

        service = JobService(ServiceConfig())
        merged = service._merge_options({
            "max_retries": 7,
            "use_cache": False,       # not client-settable
            "queue_limit": 0,         # not a RunOptions field
        })
        assert merged.max_retries == 7
        assert merged.use_cache is True

    def test_invalid_options_are_refused_before_admission(self):
        # Options that make no RunOptions are a bad-request that admits
        # nothing, so they cannot leak the tenant's quota.
        handle = start_service(workers=1, tenant_quota=3)
        try:
            client = ServiceClient(port=handle.port, tenant="a")
            codes = []
            for options in (
                {"chaos": {"bogus": 1}}, {"deadline": "soon"},
                {"max_retries": -5},
            ):
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(("lucas",), ("lru",), scale=SCALE,
                                  options=options)
                codes.append(excinfo.value.code)
            refused = client.stats()
            # A key the service does not take, like an older client's
            # kernel, is ignored; the delay holds the cell in flight.
            job_id = client.submit(
                ("lucas",), ("lru",), scale=SCALE,
                options={"kernel": "generic", "chaos": {
                    "seed": 1, "delay_rate": 1.0, "delay_s": 1.0,
                }},
            )
            admitted = client.stats()
            snapshot = client.wait(job_id)
        finally:
            handle.stop()
        assert codes == ["bad-request"] * 3
        assert refused["quotas"]["inflight_total"] == 0
        assert refused["quotas"]["inflight_by_tenant"] == {}
        assert refused["counters"]["submissions_rejected"] == 3
        assert admitted["quotas"]["inflight_total"] == 1
        assert snapshot["status"] == "done"


def _serial_digests(tmp_path, monkeypatch, benchmarks, policies):
    """Cell digests of a serial run against a second fresh store."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    clear_cache()
    return {
        "%s/%s" % (benchmark, policy): result_digest(
            run_policy(benchmark, policy, scale=SCALE).to_dict()
        )
        for benchmark in benchmarks
        for policy in policies
    }


def _cell_records(run_id):
    """A journal's per-cell records, without their timing, sorted.

    Each executed cell's worker pid becomes ``"pid"``, so runs in
    different processes compare equal.
    """
    records = []
    for record in load_journal_lines(run_id):
        if record["event"] not in (
            "task_started", "task_finished", "task_failed"
        ):
            continue
        del record["ts"]
        record.pop("wall_s", None)
        if record.get("worker") is not None:
            assert isinstance(record["worker"], int), record
            record["worker"] = "pid"
        records.append(record)
    return sorted(records, key=lambda r: json.dumps(r, sort_keys=True))


def load_journal_lines(run_id):
    path = journal_root() / ("%s.jsonl" % run_id)
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestOneLifecycle:
    def test_grid_and_service_journal_cells_alike(
        self, tmp_path, monkeypatch
    ):
        # One cell is a store hit, one spec is malformed, and the rest
        # execute: every record a cell can leave, from both front ends.
        benchmarks = BENCHMARKS + ("mcf(seed=",)
        tasks = [task for _, task in expand_cells(
            benchmarks, POLICIES, SCALE
        )]
        journals = {}
        for side in ("grid", "service"):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / side))
            clear_cache()
            run_policy("lucas", "lru", scale=SCALE)
            clear_cache()
            if side == "grid":
                run_id = run_grid(tasks, RunOptions(workers=2)).run_id
            else:
                handle = start_service()
                try:
                    client = ServiceClient(port=handle.port)
                    run_id = client.submit(
                        benchmarks, POLICIES, scale=SCALE
                    )
                    client.wait(run_id)
                finally:
                    handle.stop()
            journals[side] = _cell_records(run_id)

        assert journals["grid"] == journals["service"]
        finished = [
            r for r in journals["grid"] if r["event"] == "task_finished"
        ]
        assert sorted(r["worker"] is None for r in finished) == [
            False, False, False, True,
        ]
        assert sum(
            r["event"] == "task_failed" for r in journals["grid"]
        ) == len(POLICIES)


class TestSlotFaults:
    def test_hard_crash_rebuilds_a_slot_and_digests_match_serial(
        self, tmp_path, monkeypatch
    ):
        # A seed whose rolls hard-crash some cell's first attempt and
        # let every cell through within the retry budget.
        labels = [
            "%s/%s" % (benchmark, policy)
            for benchmark in BENCHMARKS for policy in POLICIES
        ]
        for seed in range(200):
            chaos = ChaosConfig(seed=seed, crash_rate=0.3, hard=True)
            if any(chaos.should_crash(label, 1) for label in labels) and all(
                not chaos.should_crash(label, 3) for label in labels
            ) and all(
                not (chaos.should_crash(label, 1)
                     and chaos.should_crash(label, 2))
                for label in labels
            ):
                break
        else:
            pytest.fail("no seed under 200 crashes once and recovers")
        handle = start_service(
            options=RunOptions(chaos=chaos, max_retries=2)
        )
        try:
            client = ServiceClient(port=handle.port)
            snapshot = client.wait(
                client.submit(BENCHMARKS, POLICIES, scale=SCALE)
            )
            stats = client.stats()
        finally:
            handle.stop()
        assert snapshot["status"] == "done"
        assert stats["counters"]["worker_rebuilds"] >= 1
        assert stats["counters"]["retries"] >= 1
        want = _serial_digests(tmp_path, monkeypatch, BENCHMARKS, POLICIES)
        assert {
            label: cell["digest"]
            for label, cell in snapshot["cells"].items()
        } == want

    def test_deadline_shorter_than_the_delay_times_out_and_retries(self):
        # SIGALRM deadlines round up to whole seconds, so the seeded
        # delay must outlast one second on both attempts.
        chaos = ChaosConfig(delay_rate=1.0, delay_s=1.2, seed=3)
        handle = start_service(
            workers=1,
            options=RunOptions(chaos=chaos, deadline=0.5, max_retries=1),
        )
        try:
            client = ServiceClient(port=handle.port)
            snapshot = client.wait(
                client.submit(("lucas",), ("lru",), scale=SCALE)
            )
            stats = client.stats()
        finally:
            handle.stop()
        cell = snapshot["cells"]["lucas/lru"]
        assert snapshot["status"] == "failed"
        assert cell["status"] == "failed"
        assert cell["error"].startswith("TaskTimeout")
        assert cell["attempts"] == 2
        assert stats["counters"]["retries"] == 1


MALFORMED = [
    (["nosuch_bench"], ["lru"], "unknown workload"),
    (["mcf(seed="], ["lru"], "malformed workload spec"),
    (["mcf"], ["lin("], "malformed policy spec"),
]


class TestMalformedSpecs:
    @pytest.mark.parametrize("benchmarks,policies,error", MALFORMED)
    def test_bad_spec_fails_its_cell_and_releases_the_quota(
        self, benchmarks, policies, error
    ):
        handle = start_service(tenant_quota=4)
        try:
            client = ServiceClient(port=handle.port, tenant="t")
            # The submission is answered, not dropped.
            bad = client.wait(client.submit(
                benchmarks + ["lucas"], policies + ["lru"], scale=SCALE,
            ))
            # Its 4 cells left the tenant's quota: the next fits.
            good = client.wait(client.submit(
                ("lucas",), ("lin(4)",), scale=SCALE,
            ))
            stats = client.stats()
        finally:
            handle.stop()
        assert bad["status"] == "failed"
        failed = [
            cell for cell in bad["cells"].values()
            if cell["status"] == "failed"
        ]
        assert failed and all(error in cell["error"] for cell in failed)
        assert failed[0]["attempts"] == 0
        assert bad["cells"]["lucas/lru"]["status"] == "done"
        assert good["status"] == "done"
        assert stats["counters"]["cell_failures"] == len(failed)
        assert stats["quotas"]["inflight_total"] == 0
        state = load_journal(bad["job_id"])
        assert state.finished and len(state.failed) == len(failed)

    def test_resume_over_a_journal_with_a_malformed_spec(self):
        job_id = new_run_id("job")
        RunJournal.create(run_id=job_id, meta={
            "service_job": True,
            "tenant": "t",
            "benchmarks": ["mcf(seed=", "lucas"],
            "policies": ["lru"],
            "scale": SCALE,
            "options": {},
        }).close()
        handle = start_service(resume=True)
        try:
            snapshot = ServiceClient(port=handle.port).wait(job_id)
        finally:
            handle.stop()
        assert snapshot["status"] == "failed"
        assert snapshot["cells"]["lucas/lru"]["status"] == "done"
        assert load_journal(job_id).finished


class TestResume:
    def test_resume_replays_an_interrupted_job(self):
        # Forge the aftermath of a crash: a job journal with one cell
        # recorded finished (and its result in the store) and one cell
        # missing, with no run_finished line.
        done_result = run_policy("lucas", "lru", scale=SCALE)
        cells = expand_cells(BENCHMARKS[:1], POLICIES, SCALE)
        labels = {label: task for label, task in cells}
        done_task = labels["lucas/lru"]
        job_id = new_run_id("job")
        journal = RunJournal.create(run_id=job_id, meta={
            "service_job": True,
            "tenant": "crashy",
            "benchmarks": list(BENCHMARKS[:1]),
            "policies": list(POLICIES),
            "scale": SCALE,
            "options": {},
        })
        journal.task_finished(
            done_task, store_key(done_task), cache_hit=False,
            resumed=False, wall=0.1, worker=None, attempts=1,
        )
        journal.close()

        handle = start_service(resume=True)
        try:
            client = ServiceClient(port=handle.port)
            snapshot = client.wait(job_id)
            stats = client.stats()
        finally:
            handle.stop()

        assert snapshot["status"] == "done"
        assert snapshot["tenant"] == "crashy"
        assert stats["counters"]["jobs_resumed"] == 1
        resumed_cell = snapshot["cells"]["lucas/lru"]
        assert resumed_cell["source"] == "resume"
        assert resumed_cell["digest"] == result_digest(
            done_result.to_dict()
        )
        # The missing cell actually executed.
        other = snapshot["cells"]["lucas/lin(4)"]
        assert other["status"] == "done"
        assert other["source"] == "executed"

    @pytest.mark.parametrize("options", [
        {"kernel": "generic"}, {"max_retries": -5},
    ], ids=["kernel", "negative-retries"])
    def test_resume_takes_journaled_options_this_version_refuses(
        self, options
    ):
        # Journals from older versions may hold options a submit is now
        # refused for (the replay kernel, a negative retry count); the
        # job they admitted still resumes and finishes.
        job_id = new_run_id("job")
        RunJournal.create(run_id=job_id, meta={
            "service_job": True,
            "tenant": "t",
            "benchmarks": ["lucas"],
            "policies": ["lru"],
            "scale": SCALE,
            "options": options,
        }).close()
        handle = start_service(resume=True)
        try:
            client = ServiceClient(port=handle.port)
            snapshot = client.wait(job_id)
            stats = client.stats()
        finally:
            handle.stop()
        assert snapshot["status"] == "done"
        assert stats["counters"]["jobs_resumed"] == 1
        assert load_journal(job_id).finished

    def test_slots_exit_when_the_daemon_is_killed(self, tmp_path):
        # A killed daemon's slot processes must not outlive it: they
        # hold its listening port, which a restart needs.
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             "--port", "0"],
            stdout=subprocess.PIPE, text=True,
            cwd=str(Path(__file__).parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
                 "REPRO_CACHE_DIR": str(tmp_path / "store")},
        )
        try:
            port = int(re.search(
                r":(\d+) ", daemon.stdout.readline()
            ).group(1))
            client = ServiceClient(port=port)
            job_id = client.submit(("lucas",), ("lru",), scale=SCALE)
            client.wait(job_id)
        finally:
            daemon.kill()
            daemon.wait()
        record = next(iter(load_journal(job_id).completed.values()))
        slot = Path("/proc/%d/stat" % record["worker"])

        def alive():
            try:
                return slot.read_text().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return False

        deadline = time.monotonic() + 10.0
        while alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        try:
            assert not alive(), "slot process outlived its daemon"
        finally:
            if alive():
                os.kill(record["worker"], signal.SIGKILL)

    def test_finished_journals_are_not_replayed(self):
        handle = start_service(workers=1)
        try:
            client = ServiceClient(port=handle.port)
            client.wait(client.submit(("lucas",), ("lru",), scale=SCALE))
        finally:
            handle.stop()
        # Restart over the same store: the completed journal must not
        # resurrect the job.
        second = start_service(resume=True)
        try:
            stats = ServiceClient(port=second.port).stats()
        finally:
            second.stop()
        assert stats["counters"]["jobs_resumed"] == 0
        assert stats["jobs"]["total"] == 0


class TestUmbrellaCLI:
    REPO_ROOT = Path(__file__).parent.parent

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro"] + list(argv),
            capture_output=True, text=True,
            cwd=str(self.REPO_ROOT),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            timeout=120,
        )

    def test_bare_help_lists_every_subcommand(self):
        out = self._run("--help")
        assert out.returncode == 0
        for sub in ("run", "suite", "experiments", "bench",
                    "workloads", "store", "chaos", "serve", "submit"):
            assert sub in out.stdout

    @pytest.mark.parametrize("sub", [
        "run", "suite", "experiments", "bench", "workloads", "store",
        "chaos", "serve", "submit",
    ])
    def test_every_subcommand_answers_help(self, sub):
        out = self._run(sub, "--help")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip()

    def test_unknown_subcommand_fails_with_usage(self):
        out = self._run("frobnicate")
        assert out.returncode == 2
        assert "unknown command" in out.stderr

    def test_module_spelling_matches_the_umbrella(self):
        # The umbrella delegates verbatim to the module's main(argv).
        out = subprocess.run(
            [sys.executable, "-m", "repro.workloads", "--list"],
            capture_output=True, text=True,
            cwd=str(self.REPO_ROOT),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        assert out.returncode == 0
        umbrella = self._run("workloads", "--list")
        assert (out.stdout, out.stderr) == (umbrella.stdout, umbrella.stderr)


class TestApiFacade:
    def test_surface_is_complete(self):
        import repro.api as api

        expected = {
            "run_policy", "run_grid", "run_suite", "RunOptions",
            "register_policy", "register_workload",
            "parse_policy_spec", "parse_workload_spec",
            "oracle_report", "submit",
        }
        assert set(api.__all__) == expected
        for name in expected:
            assert getattr(api, name) is not None

    def test_unknown_attribute_names_the_surface(self):
        import repro.api as api

        with pytest.raises(AttributeError, match="run_policy"):
            api.not_a_thing
