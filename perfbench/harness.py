"""Process plumbing for the benchmark: build, environment, measurement.

Everything here reads and writes inside the checkout that holds this
directory: the C extension is built in place, and each run keeps its
stores, outputs and spans under :data:`WORK_ROOT`, which the benchmark
deletes when it ends.
"""

from __future__ import annotations

import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

#: Longest any one benchmark subprocess may run before it is killed.
PROCESS_TIMEOUT_S = 120.0

#: CPU time :func:`_probe_loop` took on the 2-core x86-64 host (Python
#: 3.11) the benchmark was tuned on.  Reported times are scaled to it.
REFERENCE_LOOP_CPU_S = 0.0024


class BenchError(RuntimeError):
    """A run failed or produced output that does not check out."""


def _probe_loop() -> float:
    started = time.thread_time()
    total = 0
    for value in range(24_000):
        total += value * value % 7
    return time.thread_time() - started


class SpeedProbe:
    """Samples the host's CPU speed while a run is in progress.

    On a shared host the speed a process gets drifts by 20% and more
    over tens of seconds, and every timing drifts with it.  A thread
    times a fixed pure-Python loop in thread CPU time every 40 ms (about
    6% of one core); :attr:`factor` — ``REFERENCE_LOOP_CPU_S`` over the
    median sample — scales the run's times to the reference host.  The
    loop runs no ``repro`` code, so the scaling hides no change to it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.samples.append(_probe_loop())
            if self._stop.wait(0.04):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def factor(self) -> float:
        return REFERENCE_LOOP_CPU_S / statistics.median(self.samples)


def require_source() -> None:
    """Exit non-zero, printing no result, when ``repro`` is not here."""
    if not (SRC / "repro" / "__init__.py").is_file() or not (
        ROOT / "setup.py"
    ).is_file():
        raise SystemExit(
            "perfbench: no repro source tree next to %s" % BENCH_DIR.name
        )


def base_env() -> Dict[str, str]:
    """The host environment minus every ``REPRO_*`` knob.

    ``REPRO_SCALE``, ``REPRO_METRICS`` and ``REPRO_NO_STORE`` would
    change what a workload does, so none of them leaks in from the
    shell.
    """
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PERFBENCH_"))
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def build_native() -> bool:
    """Rebuild the optional C replay kernel; True when it imports.

    Runs what ``make native`` runs plus ``--force``, after deleting any
    ``.so`` already there, so a stale build from another commit can
    never be picked up.  The sources are byte-compiled at the same time
    so the first timed process does not pay for it.
    """
    native_dir = SRC / "repro" / "_native"
    for stale in native_dir.glob("replaykernel*.so"):
        stale.unlink()
    env = base_env()
    subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace", "--force"],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=600, check=False,
    )
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, timeout=300, check=False,
    )
    probe = subprocess.run(
        [sys.executable, "-c",
         "from repro.sim.native import load_extension as f; "
         "raise SystemExit(0 if f() else 1)"],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=120, check=False,
    )
    return probe.returncode == 0


def python_argv(args: List[str], traced: bool) -> List[str]:
    """``python -m repro ARGS``, or the same through the span bootstrap."""
    if traced:
        return [sys.executable, str(BENCH_DIR / "boot.py")] + list(args)
    return [sys.executable, "-m", "repro"] + list(args)


@dataclass
class Measured:
    """One finished process: exit code, host time and memory."""

    code: int
    started: float   # perf_counter just before the spawn
    ended: float     # perf_counter just after the reap
    cpu_s: float     # user+sys of the process and every child it reaped
    peak_rss_mb: float

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


def _reap(pid: int, timeout: float, kill) -> tuple:
    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    return os.waitstatus_to_exitcode(status), usage


def _measured(code: int, started: float, usage) -> Measured:
    return Measured(
        code=code,
        started=started,
        ended=time.perf_counter(),
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def run_measured(
    argv: List[str],
    env: Dict[str, str],
    stdout_path: Path,
    stderr_path: Path,
) -> Measured:
    """Run ``argv`` to completion from the checkout root, measured.

    Wall time is spawn to reap.  ``wait4`` reports the CPU time and
    peak RSS of the process together with every child it reaped, so
    pool workers are included.  ``PERFBENCH_SPAWNED_AT`` hands the
    spawn instant to the traced bootstrap.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        env = dict(env)
        started = time.perf_counter()
        env["PERFBENCH_SPAWNED_AT"] = repr(started)
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=out, stderr=err,
        )
        code, usage = _reap(proc.pid, PROCESS_TIMEOUT_S, proc.kill)
        proc.returncode = code
    return _measured(code, started, usage)


def _proc_cpu_s(pid: int) -> float:
    """User+sys CPU a live process has used so far."""
    with open("/proc/%d/stat" % pid, encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Daemon:
    """A ``repro serve`` process on a free port, killed on any failure."""

    def __init__(self, argv: List[str], env: Dict[str, str],
                 stderr_path: Path) -> None:
        self._stderr = open(stderr_path, "wb")
        env = dict(env)
        self.started = time.perf_counter()
        env["PERFBENCH_SPAWNED_AT"] = repr(self.started)
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._stderr,
        )
        self.cpu_at_ready = 0.0

    def wait_listening(self, timeout: float = 60.0) -> int:
        """Port from the daemon's ``listening on HOST:PORT`` line."""
        deadline = time.monotonic() + timeout
        stream = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = stream.readline().decode("utf-8", "replace")
            if not line:
                break
            match = re.search(r"listening on \S+:(\d+)", line)
            if match:
                return int(match.group(1))
        raise BenchError("service daemon never reported its port")

    def mark_ready(self) -> None:
        self.cpu_at_ready = _proc_cpu_s(self.proc.pid)

    def reap(self, timeout: float = 60.0) -> Measured:
        """Wait for a shut-down daemon; CPU counts from :meth:`mark_ready`."""
        code, usage = _reap(self.proc.pid, timeout, self.proc.kill)
        self.proc.returncode = code
        measured = _measured(code, self.started, usage)
        measured.cpu_s -= self.cpu_at_ready
        self.close()
        return measured

    def close(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
