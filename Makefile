# Convenience targets for the MLP-aware cache replacement reproduction.

PYTHON ?= python

.PHONY: install native native-sanitize native-profile test bench bench-quick bench-pytest suite oracle chaos workload-zoo serve submit-demo experiments experiments-fast examples lint clean

# Editable install plus the optional C extension (same build as
# `make native`).
install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop
	$(PYTHON) setup.py build_ext --inplace

# Compile the optional C extension in place: the native replay kernel
# plus the native surrogate-trace generator.  Failure is non-fatal by
# design: without the extension every run takes the generic Python
# replay loop and traces come from the Python generator.  The test
# suite runs this build itself when the extension does not import.
native:
	$(PYTHON) setup.py build_ext --inplace

# Rebuild the extension with AddressSanitizer and UBSan, run the native
# batteries against it with the ASan runtime preloaded into the
# interpreter (leak checks off: CPython keeps memory until exit), then
# put the normal build back (also run by CI).  Fails on any sanitizer
# report, any failed test and any skipped one: a skip means the
# sanitized kernel was not exercised.  --capture=sys leaves file
# descriptor 2 alone, so a sanitizer report reaches the log.
SANITIZE_CFLAGS = -fsanitize=address,undefined -fno-omit-frame-pointer
SANITIZE_TESTS = tests/test_native.py tests/test_tracegen.py tests/test_fastpath.py \
	tests/test_suite_and_fuzz.py tests/test_metrics.py
SANITIZE_ENV = LD_PRELOAD=$$(gcc -print-file-name=libasan.so) \
	ASAN_OPTIONS=detect_leaks=0 \
	UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 PYTHONPATH=src
native-sanitize:
	CFLAGS="$(SANITIZE_CFLAGS)" $(PYTHON) setup.py build_ext --inplace --force
	$(SANITIZE_ENV) $(PYTHON) -c "import repro._native.replaykernel"
	$(SANITIZE_ENV) $(PYTHON) -m pytest $(SANITIZE_TESTS) -q -rs \
		--capture=sys -p no:cacheprovider > native-sanitize.log 2>&1; \
	status=$$?; cat native-sanitize.log; \
	$(PYTHON) setup.py build_ext --inplace --force > /dev/null; \
	if grep -q SKIPPED native-sanitize.log; then \
		echo "native-sanitize: tests skipped"; exit 1; fi; \
	exit $$status

# Rebuild the extension with -DREPRO_PROFILE -g, whose replay samples
# the interrupted instruction pointer on an ITIMER_PROF timer, print
# where the C loop's time goes (tools/kernel_ab.py --profile, which
# maps the samples with addr2line), then put the normal build back.
PROFILE_ROUNDS ?= 40
native-profile:
	CFLAGS="-DREPRO_PROFILE -g" $(PYTHON) setup.py build_ext --inplace --force
	$(PYTHON) tools/kernel_ab.py --profile --rounds $(PROFILE_ROUNDS); \
	status=$$?; \
	$(PYTHON) setup.py build_ext --inplace --force > /dev/null; \
	exit $$status

test:
	$(PYTHON) -m pytest tests/

# Kernel performance report (macro benchmarks) -> BENCH_local.json.
bench:
	PYTHONPATH=src $(PYTHON) -m repro.bench --out BENCH_local.json --force

# Smoke-sized bench run (what CI executes); timings are meaningless.
bench-quick:
	PYTHONPATH=src $(PYTHON) -m repro.bench --quick --out BENCH_smoke.json \
		--force

bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Quick 2-worker smoke matrix (also run by CI).
suite:
	$(PYTHON) -m repro.sim.suite --policies "lru,lin(4)" \
		--benchmarks mcf,art --workers 2 --scale 0.25 --progress

# Oracle referee smoke (also run by CI): the property battery plus one
# suite cell under --oracle; regrets must be non-negative and columns
# bit-identical serial vs parallel.
oracle:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_oracle.py -q
	PYTHONPATH=src $(PYTHON) -m repro.sim.suite \
		--policies "lru,lin(4),ehc,awrp" --benchmarks mcf,art \
		--scale 0.25 --oracle

# Seeded chaos differential (also run by CI): injected crashes, delays,
# and store corruption must not change the suite's content digest.
chaos:
	PYTHONPATH=src $(PYTHON) -m repro.sim.chaos --scale 0.25 --workers 2
	PYTHONPATH=src $(PYTHON) -m repro.sim.chaos --scale 0.25 --workers 2 --hard

# Workload registry smoke (also run by CI): list, import a committed
# ChampSim fixture, run a composed spec, and check digest determinism.
workload-zoo:
	PYTHONPATH=src $(PYTHON) -m repro.workloads --list
	PYTHONPATH=src $(PYTHON) -m repro.sim \
		--workload "champsim:tests/fixtures/mix4k.champsim.gz" --policy lru
	PYTHONPATH=src $(PYTHON) -m repro.sim \
		--workload "interleave(mcf,art)" --policy sbar --scale 0.1
	PYTHONPATH=src $(PYTHON) -m repro.workloads \
		--digest "interleave(mcf,art)" --scale 0.1

# Run the job service daemon on the default port (Ctrl-C to stop).
serve:
	PYTHONPATH=src $(PYTHON) -m repro serve --workers 2

# Self-checking service end-to-end demo (also run by CI): throwaway
# store, seeded chaos delays, two concurrent tenants submitting the
# same grid — shared cells must execute once and both tenants must see
# digests bit-identical to a serial baseline.
submit-demo:
	PYTHONPATH=src $(PYTHON) -m repro.service demo --scale 0.25

# Full-scale regeneration of every table and figure (~10 minutes).
experiments:
	$(PYTHON) -m repro.experiments

# Quick regeneration at reduced trace scale (~2 minutes).
experiments-fast:
	REPRO_SCALE=0.25 $(PYTHON) -m repro.experiments

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/pointer_chasing.py
	$(PYTHON) examples/adaptive_phases.py
	$(PYTHON) examples/custom_care_policy.py
	$(PYTHON) examples/wrong_path_injection.py
	$(PYTHON) examples/workload_analysis.py
	$(PYTHON) examples/figure1_walkthrough.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis *.egg-info src/*.egg-info
