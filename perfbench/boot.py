"""Run ``python -m repro`` with the layer wrappers of the traced run.

Usage (the benchmark sets the environment)::

    PERFBENCH_SPANS=DIR PERFBENCH_RUN_ID=ID PERFBENCH_SPAWNED_AT=T \\
        python perfbench/boot.py suite --policies lru ...

``PERFBENCH_SPAWNED_AT`` is the parent's ``time.perf_counter()`` just
before it spawned this process; the gap until ``repro``'s ``main`` is
entered is recorded as the ``startup`` span.  Never turn on
``repro.obs`` observers or ``REPRO_METRICS`` here: they force the
generic replay loop.
"""

import os
import sys
import time

import spans


def main(argv) -> int:
    recorder = spans.Recorder(
        os.environ["PERFBENCH_SPANS"], os.environ["PERFBENCH_RUN_ID"]
    )
    spans.install(recorder, experiments=argv[:1] == ["experiments"])
    from repro.__main__ import main as repro_main

    recorder.add({
        "name": "startup",
        "start": float(os.environ["PERFBENCH_SPAWNED_AT"]),
        "end": time.perf_counter(),
    })
    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
