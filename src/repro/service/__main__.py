"""CLI for the repro job service: ``python -m repro serve / submit``.

Server side::

    python -m repro serve --workers 4                # long-lived daemon
    python -m repro serve --port 0 --chaos "delay=0.5,seed=7"
    python -m repro serve --resume                   # replay crashed jobs

Client side::

    python -m repro submit --benchmarks mcf,art --policies lru,lin4 \\
        --scale 0.25 --watch
    python -m repro submit --status JOB_ID
    python -m repro submit --stats

``python -m repro.service`` is the same CLI (the umbrella delegates
here); ``demo`` is the self-checking end-to-end smoke used by CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.sim.common_cli import service_parent, slot_worker_count
from repro.sim.options import RunOptions


def _csv(value: str) -> List[str]:
    items = [item.strip() for item in value.split(",")]
    return [item for item in items if item]


# -- serve --------------------------------------------------------------


def _add_serve_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        parents=[service_parent()],
        help="run the job service daemon",
        description="Run the repro job service: accepts grid "
        "submissions over newline-delimited JSON on TCP, dedups "
        "overlapping cells, and executes them across worker slots.",
    )
    parser.add_argument(
        "--workers", type=slot_worker_count, default=2, metavar="N",
        help="worker slots (one process each; default: 2)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=1024, metavar="N",
        help="global in-flight cell bound before queue-full rejections "
             "(default: 1024; 0 disables)",
    )
    parser.add_argument(
        "--tenant-quota", type=int, default=256, metavar="N",
        help="per-tenant in-flight cell quota (default: 256; "
             "0 disables)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not consult or populate the persistent result store",
    )
    parser.add_argument(
        "--max-retries", type=int, default=1, metavar="N",
        help="re-executions allowed per cell after a failure",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock budget",
    )
    parser.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="seeded fault injection applied to every cell "
             "(tests/CI only)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay incomplete job journals from a previous service "
             "run before accepting new submissions",
    )
    parser.set_defaults(handler=_cmd_serve)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import JobService, ServiceConfig

    fields = {
        "use_cache": not args.no_cache,
        "max_retries": args.max_retries,
        "deadline": args.deadline,
    }
    try:
        if args.chaos:
            from repro.sim.chaos import ChaosConfig

            fields["chaos"] = ChaosConfig.parse(args.chaos)
        options = RunOptions(**fields)
    except ValueError as exc:
        print("repro serve: error: %s" % exc, file=sys.stderr)
        return 2
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        tenant_quota=args.tenant_quota,
        options=options,
        resume=args.resume,
    )

    async def _serve() -> None:
        service = JobService(config)
        await service.start()
        print(
            "repro job service listening on %s:%d (%d process slots)"
            % (config.host, service.port, len(service.scheduler.slots)),
            flush=True,
        )
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted; service stopped", file=sys.stderr)
    return 0


# -- submit / job ops ----------------------------------------------------


def _add_submit_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "submit",
        parents=[service_parent()],
        help="submit grids to a running service (and query jobs)",
        description="Submit a benchmarks x policies grid to a running "
        "job service, or query/watch/cancel an existing job.",
    )
    parser.add_argument(
        "--benchmarks", metavar="CSV", default=None,
        help="comma-separated benchmark specs to submit",
    )
    parser.add_argument(
        "--policies", metavar="CSV", default=None,
        help="comma-separated policy specs to submit",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="trace-length multiplier (default: server default)",
    )
    parser.add_argument(
        "--watch", action="store_true",
        help="stream per-cell progress until the job completes",
    )
    parser.add_argument(
        "--no-wait", action="store_true",
        help="return right after admission instead of waiting",
    )
    parser.add_argument(
        "--include-results", action="store_true",
        help="with --status/--result: include full result payloads",
    )
    parser.add_argument(
        "--status", metavar="JOB_ID", default=None,
        help="print a job snapshot instead of submitting",
    )
    parser.add_argument(
        "--watch-job", metavar="JOB_ID", default=None,
        help="stream an existing job's progress",
    )
    parser.add_argument(
        "--cancel", metavar="JOB_ID", default=None,
        help="cancel a job",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print service counters, quotas and slots",
    )
    parser.add_argument(
        "--ping", action="store_true",
        help="check the service is up and protocol-compatible",
    )
    parser.add_argument(
        "--shutdown", action="store_true",
        help="ask the service to shut down",
    )
    parser.set_defaults(handler=_cmd_submit)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError, \
        print_events, submit

    client = ServiceClient(
        host=args.host, port=args.port, tenant=args.tenant
    )
    try:
        if args.ping:
            print(json.dumps(client.ping(), indent=2, sort_keys=True))
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.shutdown:
            client.shutdown()
            print("service shutting down")
            return 0
        if args.status:
            job = client.result(
                args.status, include_results=args.include_results
            )
            print(json.dumps(job, indent=2, sort_keys=True))
            return 0 if job.get("status") in ("done", "running") else 1
        if args.watch_job:
            print_events(client.watch(args.watch_job))
            return 0
        if args.cancel:
            job = client.cancel(args.cancel)
            print(json.dumps(job, indent=2, sort_keys=True))
            return 0

        if not args.benchmarks or not args.policies:
            print(
                "error: --benchmarks and --policies are required to "
                "submit (or use --status/--stats/--ping)",
                file=sys.stderr,
            )
            return 2
        benchmarks = _csv(args.benchmarks)
        policies = _csv(args.policies)
        if args.watch:
            job_id = client.submit(
                benchmarks, policies, scale=args.scale
            )
            print("job %s submitted" % job_id)
            print_events(client.watch(job_id))
            job = client.status(job_id)
        else:
            job = submit(
                benchmarks, policies, scale=args.scale,
                host=args.host, port=args.port, tenant=args.tenant,
                wait=not args.no_wait,
            )
            print(json.dumps(job, indent=2, sort_keys=True))
        return 0 if job.get("status") in ("done", "running") else 1
    except ServiceError as exc:
        hint = (
            " (retry in %.1fs)" % exc.retry_after_s
            if exc.retry_after_s else ""
        )
        print("service error %s%s" % (exc, hint), file=sys.stderr)
        return 1
    except ConnectionRefusedError:
        print(
            "error: no job service at %s:%d (start one with "
            "'python -m repro serve')" % (args.host, args.port),
            file=sys.stderr,
        )
        return 1


# -- demo ----------------------------------------------------------------


def _add_demo_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "demo",
        help="self-checking end-to-end smoke (used by CI)",
        description="Start a throwaway service, submit two overlapping "
        "grids from two concurrent clients, and verify that shared "
        "cells executed once and both clients received bit-identical "
        "digests matching a serial baseline.",
    )
    parser.add_argument(
        "--benchmarks", metavar="CSV", default="mcf,art",
        help="demo benchmarks (default: mcf,art)",
    )
    parser.add_argument(
        "--policies", metavar="CSV", default="lru,lin(4)",
        help="demo policies (default: lru,lin(4))",
    )
    parser.add_argument(
        "--scale", type=float, default=0.05,
        help="trace scale for the demo cells (default: 0.05)",
    )
    parser.add_argument(
        "--workers", type=slot_worker_count, default=2,
        help="worker slots for the demo service (default: 2)",
    )
    parser.add_argument(
        "--chaos", metavar="SPEC", default="delay=0.5,delay-s=0.05,seed=7",
        help="fault injection for the demo service (default adds "
             "seeded delays so the second submission overlaps the "
             "first in flight)",
    )
    parser.set_defaults(handler=_cmd_demo)


def _cmd_demo(args: argparse.Namespace) -> int:
    import os
    import tempfile
    import threading

    from repro.service.client import ServiceClient
    from repro.service.server import ServiceConfig, serve_in_thread
    from repro.sim.chaos import ChaosConfig
    from repro.sim.runner import clear_cache, run_policy
    from repro.sim.store import result_digest

    benchmarks = _csv(args.benchmarks)
    policies = _csv(args.policies)
    chaos = ChaosConfig.parse(args.chaos) if args.chaos else None

    with tempfile.TemporaryDirectory(prefix="repro-demo-") as tmp:
        service_dir = os.path.join(tmp, "service")
        serial_dir = os.path.join(tmp, "serial")
        saved = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = service_dir
        handle = serve_in_thread(ServiceConfig(
            port=0,
            workers=args.workers,
            options=RunOptions(chaos=chaos),
        ))
        port = handle.port
        print("demo service on 127.0.0.1:%d" % port)
        try:
            snapshots = {}

            def run_client(name: str) -> None:
                client = ServiceClient(port=port, tenant=name)
                job_id = client.submit(
                    benchmarks, policies, scale=args.scale
                )
                snapshots[name] = client.wait(job_id)

            # Two concurrent tenants submit the SAME grid; seeded
            # delays keep cells in flight long enough for the second
            # submission to attach to the first's executions.
            threads = [
                threading.Thread(target=run_client, args=(name,))
                for name in ("alice", "bob")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            stats = ServiceClient(port=port).stats()
            ServiceClient(port=port).shutdown()
        finally:
            handle.stop()
            if saved is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved

        alice, bob = snapshots.get("alice"), snapshots.get("bob")
        failures = []
        if not alice or not bob:
            failures.append("a demo client never finished")
        else:
            if alice["status"] != "done" or bob["status"] != "done":
                failures.append(
                    "job status: alice=%s bob=%s (wanted done)"
                    % (alice["status"], bob["status"])
                )
            if alice.get("digest") != bob.get("digest") or not alice.get(
                "digest"
            ):
                failures.append(
                    "digest mismatch: alice=%s bob=%s"
                    % (alice.get("digest"), bob.get("digest"))
                )
            executed = stats["counters"]["cells_executed"]
            unique = len(benchmarks) * len(policies)
            if executed != unique:
                failures.append(
                    "expected %d executed cells, saw %d (dedup broken?)"
                    % (unique, executed)
                )
            shared = (
                stats["counters"]["cells_deduped"]
                + stats["counters"]["cells_store_hits"]
            )
            if shared != unique:
                failures.append(
                    "expected %d shared cells across tenants, saw %d"
                    % (unique, shared)
                )

            # Serial baseline against a second fresh store: the service
            # digests must match byte-for-byte what run_policy computes.
            os.environ["REPRO_CACHE_DIR"] = serial_dir
            clear_cache()
            try:
                for benchmark in benchmarks:
                    for policy in policies:
                        result = run_policy(
                            benchmark, policy, scale=args.scale
                        )
                        label = "%s/%s" % (benchmark, policy)
                        want = result_digest(result.to_dict())
                        got = alice["cells"][label]["digest"]
                        if got != want:
                            failures.append(
                                "cell %s: service digest %s != serial "
                                "digest %s" % (label, got, want)
                            )
            finally:
                if saved is None:
                    os.environ.pop("REPRO_CACHE_DIR", None)
                else:
                    os.environ["REPRO_CACHE_DIR"] = saved
                clear_cache()

    if failures:
        for failure in failures:
            print("DEMO FAIL: %s" % failure, file=sys.stderr)
        return 1
    print(
        "demo ok: %d cells executed once, both tenants saw digest %s"
        % (len(benchmarks) * len(policies), alice["digest"])
    )
    return 0


# -- entry ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.service",
        description="Distributed simulation job service: one server, "
        "many tenants, deduplicated execution over a shared "
        "content-addressed result store.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_serve_parser(subparsers)
    _add_submit_parser(subparsers)
    _add_demo_parser(subparsers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
