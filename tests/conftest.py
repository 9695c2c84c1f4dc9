"""Shared fixtures: small machines and crafted traces.

Unit tests use deliberately tiny cache geometries so behaviors are
hand-checkable; integration tests use the experiment machine at small
trace scales.

Before any test module is collected, the optional C extension is built
in place when it does not import yet (the ``make native`` command), so
the suite exercises the native replay kernel and trace generator on
any host with a compiler.  A failed build leaves the native-only tests
skipping.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import (
    CacheGeometry,
    MachineConfig,
    MemoryConfig,
    MSHRConfig,
    ProcessorConfig,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def _build_native_extension() -> None:
    """Compile ``repro._native.replaykernel`` in place if it is missing."""
    try:
        import repro._native.replaykernel  # noqa: F401
    except ImportError:
        pass
    else:
        return
    subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=Path(__file__).resolve().parent.parent,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    importlib.invalidate_caches()


_build_native_extension()


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json snapshots from current outputs",
    )


def _assert_matches(actual, expected, path=""):
    """Recursive structural compare; floats via pytest.approx."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), "%s: expected dict" % path
        assert sorted(actual) == sorted(expected), (
            "%s: key mismatch %s != %s"
            % (path, sorted(actual), sorted(expected))
        )
        for key in expected:
            _assert_matches(actual[key], expected[key], "%s.%s" % (path, key))
    elif isinstance(expected, list):
        assert isinstance(actual, list), "%s: expected list" % path
        assert len(actual) == len(expected), "%s: length mismatch" % path
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, "%s[%d]" % (path, index))
    elif isinstance(expected, float) or isinstance(actual, float):
        assert actual == pytest.approx(expected, rel=1e-6), (
            "%s: %r != %r" % (path, actual, expected)
        )
    else:
        assert actual == expected, "%s: %r != %r" % (path, actual, expected)


@pytest.fixture
def golden_check(request):
    """Compare a JSON-safe payload against ``tests/golden/<name>.json``.

    ``pytest --update-golden`` rewrites the snapshot instead of
    comparing, so intentional behavior changes regenerate fixtures in
    one command.
    """

    def check(name: str, payload) -> None:
        path = GOLDEN_DIR / ("%s.json" % name)
        # Round-trip through JSON so the comparison sees exactly what a
        # fresh checkout would load (tuples -> lists, int keys -> str).
        payload = json.loads(json.dumps(payload, sort_keys=True))
        if request.config.getoption("--update-golden"):
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload, indent=2, sort_keys=True))
            pytest.skip("updated golden snapshot %s" % path.name)
        if not path.exists():
            pytest.fail(
                "missing golden snapshot %s — run pytest --update-golden"
                % path
            )
        expected = json.loads(path.read_text())
        _assert_matches(payload, expected)

    return check


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_store(tmp_path_factory):
    """Point the persistent result store at a session-scoped tmp dir.

    Keeps the suite hermetic (no reads from a developer's warm
    ~/.cache/repro) while still exercising store hits across tests
    within one session.
    """
    os.environ["REPRO_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("repro-store")
    )
    yield
    os.environ.pop("REPRO_CACHE_DIR", None)


@pytest.fixture
def tiny_geometry() -> CacheGeometry:
    """4 sets x 2 ways of 64B lines."""
    return CacheGeometry(512, 64, 2, 1)


@pytest.fixture
def small_machine() -> MachineConfig:
    """A Table-2-shaped machine small enough for hand analysis.

    One-block L1s (pass-through except consecutive repeats), a 4-set
    4-way L2, the real memory system.
    """
    return MachineConfig(
        processor=ProcessorConfig(),
        l1i=CacheGeometry(64, 64, 1, 1),
        l1d=CacheGeometry(64, 64, 1, 1),
        l2=CacheGeometry(4 * 4 * 64, 64, 4, 15),
        mshr=MSHRConfig(n_entries=32),
        memory=MemoryConfig(),
    )
