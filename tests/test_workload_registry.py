"""Workload registry, spec language, importers, and cache keying.

Locks in the PR's API redesign: every entry point accepts a workload
*spec* (surrogate name, imported trace, CDF generator, or composition),
specs canonicalize so spellings of one workload share cache entries,
and distinct specs never alias — in the per-process trace memo and
the persistent store key.
"""

import gzip
import lzma
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import runner
from repro.sim.runner import Task, clear_cache, packed_trace
from repro.sim.store import store_key
from repro.sim import RunOptions
from repro.sim.suite import EXPORT_FIELDS, run_suite
from repro.trace.importers import (
    CHAMPSIM_RECORD,
    load_champsim,
    load_champsim_binary,
    load_lackey,
    sniff_binary_champsim,
    sniff_text_format,
)
from repro.trace.packed import PackedTrace
from repro.trace.record import LOAD, STORE, IFETCH
from repro.trace.trace_io import open_trace, save_trace
from repro.workloads import (
    UnknownWorkloadError,
    WorkloadSpecError,
    available_workloads,
    build_workload,
    canonical_workload_spec,
    experiment_config,
    parse_workload_spec,
    register_workload,
    workload_fingerprint,
)
from repro.workloads.registry import SurrogateWorkload, Workload

FIXTURE = Path(__file__).parent / "fixtures" / "mix4k.champsim.gz"
BINARY_FIXTURE = (
    Path(__file__).parent / "fixtures" / "mix256.champsim.trace"
)
SCALE = 0.05


@pytest.fixture(autouse=True)
def fresh_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    clear_cache()
    yield
    clear_cache()


class TestSpecParsing:
    def test_surrogate_name_canonicalizes_whitespace_and_case(self):
        assert canonical_workload_spec(" MCF ") == "mcf"
        assert canonical_workload_spec("Art") == "art"

    @pytest.mark.parametrize("spec", [
        "mcf",
        "mcf@0.5",
        "mcf(seed=9)",
        "scale(twolf,0.25)",
        "splice(mcf@0.5,ammp)",
        "interleave(mcf,art,quantum=64)",
        "cdf(web_search,ops=2000000,seed=7)",
        "champsim:traces/server.xz",
        "interleave(splice(mcf@0.25,art),cdf(data_mining,ops=2000,seed=3),quantum=32)",
    ])
    def test_canonical_is_idempotent(self, spec):
        canonical = canonical_workload_spec(spec)
        assert canonical_workload_spec(canonical) == canonical

    def test_defaults_materialize_in_canonical_form(self):
        assert canonical_workload_spec("interleave(mcf,art)") == (
            "interleave(mcf,art,quantum=64)"
        )
        assert canonical_workload_spec("cdf(web_search)") == (
            "cdf(web_search,ops=150000,seed=0)"
        )

    def test_numbers_canonicalize(self):
        # 2e6 and 2000000 are one spec; 0.50 and 0.5 are one spec.
        assert canonical_workload_spec("cdf(web_search,ops=2e6,seed=7)") == (
            "cdf(web_search,ops=2000000,seed=7)"
        )
        assert canonical_workload_spec("mcf@0.50") == "mcf@0.5"

    def test_path_shorthand_round_trips(self):
        spec = "champsim:tests/fixtures/mix4k.champsim.gz"
        workload = parse_workload_spec(spec)
        assert workload.canonical == spec
        assert parse_workload_spec(workload.canonical) == workload

    def test_workload_objects_pass_through(self):
        workload = parse_workload_spec("mcf")
        assert parse_workload_spec(workload) is workload

    def test_unknown_workload_is_keyerror_and_valueerror(self):
        with pytest.raises(KeyError):
            parse_workload_spec("gcc")
        with pytest.raises(ValueError):
            parse_workload_spec("gcc")
        with pytest.raises(UnknownWorkloadError) as info:
            parse_workload_spec("gcc")
        assert "gcc" in str(info.value)

    @pytest.mark.parametrize("bad", [
        "",
        "mcf(",
        "mcf)x",
        "interleave(mcf)",          # needs >= 2 children
        "interleave(mcf,4)",        # scalar is not a workload
        "scale(mcf)",               # missing factor
        "mcf@0",                    # clip fraction must be in (0, 1]
        "mcf@2",
    ])
    def test_malformed_specs_raise_spec_error(self, bad):
        with pytest.raises(WorkloadSpecError):
            parse_workload_spec(bad)

    def test_available_workloads_lists_builtins(self):
        names = available_workloads()
        for expected in ("mcf", "art", "cdf", "interleave", "splice",
                        "scale", "champsim", "lackey", "trace"):
            assert expected in names


class TestRegistration:
    def test_register_and_fingerprint(self):
        @register_workload("regtest-const")
        def _factory(n=100):
            return _ConstWorkload(int(n))

        try:
            workload = parse_workload_spec("regtest-const(n=8)")
            assert len(workload.build(1.0)) == 8
            # User registrations fingerprint by factory source, not
            # "builtin", so editing the factory invalidates store keys.
            assert workload.fingerprint() != "builtin"
        finally:
            from repro.workloads import registry

            registry._REGISTRY.pop("regtest-const", None)
            registry._REGISTRY_VERSION += 1

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_workload("mcf")(lambda: None)

    def test_bad_names_rejected(self):
        for name in ("has space", "paren(", "comma,", ""):
            with pytest.raises(ValueError):
                register_workload(name)(lambda: None)


class _ConstWorkload(Workload):
    def __init__(self, n):
        self.n = n

    @property
    def canonical(self):
        return "regtest-const(n=%d)" % self.n

    def build(self, scale=1.0):
        from repro.trace.record import Access
        from repro.trace.packed import pack_trace

        accesses = [Access(64 * i, LOAD, 10) for i in range(self.n)]
        return pack_trace(accesses)


class TestImporters:
    def _write(self, path, compress=None):
        lines = [
            "# comment",
            "0x1000 R 8",
            "0x2000 W",           # gap defaults
            "4096 L 4",           # decimal address, L == load
            "0x3000 I 2",
        ]
        data = ("\n".join(lines) + "\n").encode()
        if compress == "gz":
            path.write_bytes(gzip.compress(data, mtime=0))
        elif compress == "xz":
            path.write_bytes(lzma.compress(data))
        else:
            path.write_bytes(data)
        return path

    @pytest.mark.parametrize("compress", [None, "gz", "xz"])
    def test_champsim_loads_identically_compressed_or_not(
        self, tmp_path, compress
    ):
        path = self._write(tmp_path / "t.champsim", compress)
        trace = load_champsim(path)
        assert isinstance(trace, PackedTrace)
        assert len(trace) == 4
        assert trace[0].address == 0x1000 and trace[0].kind == LOAD
        assert trace[1].kind == STORE
        assert trace[2].address == 4096
        assert trace[3].kind == IFETCH
        plain = load_champsim(self._write(tmp_path / "p.champsim"))
        assert trace.content_digest() == plain.content_digest()

    def test_champsim_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.champsim"
        path.write_text("0x1000 R 4\nnot a record at all extra\n")
        with pytest.raises(ValueError) as info:
            load_champsim(path)
        assert ":2:" in str(info.value)

    def test_lackey_gaps_and_modify(self, tmp_path):
        path = tmp_path / "t.lackey"
        path.write_text(
            "I  0x400000,4\n"
            "I  0x400004,4\n"
            " L 0x1000,8\n"
            " M 0x2000,4\n"
            " S 0x3000,8\n"
        )
        trace = load_lackey(path)
        # M expands to load + zero-gap store; the two I lines become
        # the first data access's instruction gap.
        assert [a.kind for a in trace] == [LOAD, LOAD, STORE, STORE]
        assert trace[0].gap == 2
        assert trace[2].gap == 0

    def test_limit_truncates(self, tmp_path):
        path = self._write(tmp_path / "t.champsim")
        assert len(load_champsim(path, limit=2)) == 2

    def test_sniffing_dispatch(self, tmp_path):
        champ = self._write(tmp_path / "c.trace")
        lackey = tmp_path / "l.trace"
        lackey.write_text(" L 0x1000,8\n S 0x2000,4\n")
        assert sniff_text_format(champ) == "champsim"
        assert sniff_text_format(lackey) == "lackey"
        assert open_trace(champ).content_digest() == (
            load_champsim(champ).content_digest()
        )
        assert len(open_trace(lackey)) == 2

    def test_open_trace_reads_native_npz(self, tmp_path):
        original = build_workload("lucas", scale=0.02)
        path = tmp_path / "lucas.npz"
        save_trace(path, original)
        loaded = open_trace(path)
        assert loaded.content_digest() == original.content_digest()

    def test_fixture_spec_builds_and_fingerprints(self):
        spec = "champsim:%s" % FIXTURE
        trace = build_workload(spec)
        assert len(trace) == 4000
        assert workload_fingerprint(spec) not in ("builtin", "missing")

    def test_missing_file_fingerprint_is_sentinel(self):
        assert workload_fingerprint("champsim:/no/such/file") == "missing"


class TestBinaryChampsim:
    """ChampSim's native 64-byte ``input_instr`` record importer."""

    @staticmethod
    def _record(ip, dest=(), src=()):
        dest = tuple(dest) + (0,) * (2 - len(dest))
        src = tuple(src) + (0,) * (4 - len(src))
        return CHAMPSIM_RECORD.pack(ip, 0, 0, 1, 2, 3, 4, 5, 6,
                                    *dest, *src)

    def _write(self, path, compress=None):
        # Three instructions with no memory operands, then a 2-load
        # instruction, a pure gap instruction, and a store instruction.
        data = b"".join([
            self._record(0x400000),
            self._record(0x400004),
            self._record(0x400008),
            self._record(0x40000C, src=(0x1000, 0x2000)),
            self._record(0x400010),
            self._record(0x400014, dest=(0x3000,)),
        ])
        if compress == "gz":
            path.write_bytes(gzip.compress(data, mtime=0))
        elif compress == "xz":
            path.write_bytes(lzma.compress(data))
        else:
            path.write_bytes(data)
        return path

    @pytest.mark.parametrize("compress", [None, "gz", "xz"])
    def test_records_decode_with_instruction_gaps(self, tmp_path, compress):
        path = self._write(tmp_path / "t.trace", compress)
        assert sniff_binary_champsim(path)
        trace = load_champsim_binary(path)
        assert [a.address for a in trace] == [0x1000, 0x2000, 0x3000]
        assert [a.kind for a in trace] == [LOAD, LOAD, STORE]
        # Gap = preceding memory-less instructions, carried by the
        # first access of the next memory instruction only.
        assert [a.gap for a in trace] == [3, 0, 1]

    def test_text_front_doors_sniff_binary(self, tmp_path):
        path = self._write(tmp_path / "t.trace")
        binary = load_champsim_binary(path)
        # Both the champsim: spec loader and the open_trace sniffing
        # front door must route binary content to the binary decoder.
        assert (load_champsim(path).content_digest()
                == binary.content_digest())
        assert (open_trace(path).content_digest()
                == binary.content_digest())

    def test_text_traces_are_not_misdetected(self, tmp_path):
        text = tmp_path / "t.champsim"
        text.write_text("0x1000 R 8\n0x2000 W\n")
        assert not sniff_binary_champsim(text)
        assert len(load_champsim(text)) == 2

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(self._record(0x400000, src=(0x1000,))[:-8] * 2)
        with pytest.raises(ValueError, match="truncated"):
            load_champsim_binary(path)

    def test_limit_truncates(self, tmp_path):
        path = self._write(tmp_path / "t.trace")
        assert len(load_champsim_binary(path, limit=2)) == 2
        assert len(load_champsim(path, limit=2)) == 2

    def test_committed_fixture_loads_and_simulates(self):
        trace = build_workload("champsim:%s" % BINARY_FIXTURE)
        assert len(trace) == 132
        assert trace.content_digest() == (
            open_trace(str(BINARY_FIXTURE)).content_digest()
        )
        from repro.sim.simulator import Simulator

        result = Simulator(experiment_config(), "lru").run(trace)
        assert result.l2_misses > 0


class TestCDFGenerator:
    def test_deterministic_per_seed(self):
        first = build_workload("cdf(web_search,ops=4000,seed=7)")
        second = build_workload("cdf(web_search,ops=4000,seed=7)")
        other = build_workload("cdf(web_search,ops=4000,seed=8)")
        assert first.content_digest() == second.content_digest()
        assert first.content_digest() != other.content_digest()
        assert len(first) == 4000

    def test_distributions_differ(self):
        web = build_workload("cdf(web_search,ops=4000,seed=1)")
        mining = build_workload("cdf(data_mining,ops=4000,seed=1)")
        assert web.content_digest() != mining.content_digest()

    def test_scale_multiplies_ops(self):
        half = build_workload("cdf(web_search,ops=4000,seed=1)", scale=0.5)
        assert len(half) == 2000

    def test_unknown_distribution_rejected(self):
        with pytest.raises(WorkloadSpecError):
            parse_workload_spec("cdf(pareto)")


class TestComposition:
    def test_splice_concatenates(self):
        mcf = build_workload("mcf", scale=0.02)
        art = build_workload("art", scale=0.02)
        spliced = build_workload("splice(mcf,art)", scale=0.02)
        assert len(spliced) == len(mcf) + len(art)
        assert spliced[0] == mcf[0]
        assert spliced[len(mcf)] == art[0]

    def test_clip_takes_a_prefix(self):
        full = build_workload("mcf", scale=0.02)
        clipped = build_workload("mcf@0.5", scale=0.02)
        assert len(clipped) == len(full) // 2
        assert clipped[0] == full[0]

    def test_scale_operator_composes_with_run_scale(self):
        quarter = build_workload("scale(twolf,0.25)", scale=0.2)
        direct = build_workload("twolf", scale=0.05)
        assert quarter.content_digest() == direct.content_digest()

    def test_interleave_round_robin(self):
        mixed = build_workload("interleave(mcf,art,quantum=5)", scale=0.02)
        mcf = build_workload("mcf", scale=0.02)
        art = build_workload("art", scale=0.02)
        assert len(mixed) == len(mcf) + len(art)
        assert [mixed[i].address for i in range(5)] == [
            mcf[i].address for i in range(5)
        ]
        assert [mixed[5 + i].address for i in range(5)] == [
            art[i].address for i in range(5)
        ]

    def test_composed_builds_are_deterministic(self):
        spec = "interleave(splice(mcf@0.5,ammp),art,quantum=32)"
        first = build_workload(spec, scale=0.02)
        second = build_workload(spec, scale=0.02)
        assert first.content_digest() == second.content_digest()


class TestRunnerMemo:
    def test_spellings_share_the_trace_memo(self):
        first = packed_trace(" MCF ", scale=SCALE)
        assert packed_trace("mcf", scale=SCALE) is first
        assert len(runner._TRACE_CACHE) == 1

    def test_distinct_specs_never_alias(self):
        plain = packed_trace("mcf", scale=SCALE)
        clipped = packed_trace("mcf@0.5", scale=SCALE)
        seeded = packed_trace("mcf(seed=4)", scale=SCALE)
        digests = {
            plain.content_digest(),
            clipped.content_digest(),
            seeded.content_digest(),
        }
        assert len(digests) == 3
        assert len(runner._TRACE_CACHE) == 3


class TestStoreKeys:
    def test_aliased_spellings_share_a_key(self):
        assert store_key(Task(" MCF ", "lru", SCALE)) == (
            store_key(Task("mcf", "lru", SCALE))
        )
        assert store_key(Task("interleave(mcf,art)", "lru", SCALE)) == (
            store_key(Task("interleave(mcf,art,quantum=64)", "lru", SCALE))
        )

    def test_distinct_specs_get_distinct_keys(self):
        keys = {
            store_key(Task(spec, "lru", SCALE))
            for spec in (
                "mcf", "mcf@0.5", "mcf(seed=4)",
                "interleave(mcf,art)", "splice(mcf,art)",
                "cdf(web_search,ops=2000,seed=1)",
                "cdf(web_search,ops=2000,seed=2)",
            )
        }
        assert len(keys) == 7

    def test_keys_stable_across_processes(self):
        specs = ("interleave(mcf,art)", "champsim:%s" % FIXTURE)
        script = (
            "from repro.sim.runner import Task\n"
            "from repro.sim.store import store_key\n"
            "for spec in %r:\n"
            "    print(store_key(Task(spec, 'lru', %r)))\n"
            % (specs, SCALE)
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            cwd=str(Path(__file__).parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        child_keys = out.stdout.split()
        local_keys = [
            store_key(Task(spec, "lru", SCALE)) for spec in specs
        ]
        assert child_keys == local_keys

    def test_imported_trace_content_changes_the_key(self, tmp_path):
        path = tmp_path / "t.champsim"
        path.write_text("0x1000 R 4\n")
        before = store_key(Task("champsim:%s" % path, "lru", SCALE))
        path.write_text("0x2000 R 4\n")
        after = store_key(Task("champsim:%s" % path, "lru", SCALE))
        assert before != after


class TestSuiteAcceptance:
    """ISSUE acceptance: composed + imported specs through run_suite."""

    BENCHMARKS = ("interleave(mcf,art)", "champsim:%s" % FIXTURE)

    def test_serial_parallel_and_warm_rerun(self, tmp_path, monkeypatch):
        serial = run_suite(
            policies=("lru",), benchmarks=self.BENCHMARKS, scale=SCALE,
        )
        assert not serial.failures

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "par"))
        clear_cache()
        parallel = run_suite(
            policies=("lru",), benchmarks=self.BENCHMARKS, scale=SCALE,
            options=RunOptions(workers=2),
        )
        assert not parallel.failures
        for benchmark in self.BENCHMARKS:
            first = serial.result(benchmark, "lru")
            second = parallel.result(benchmark, "lru")
            for field in EXPORT_FIELDS:
                assert getattr(first, field) == getattr(second, field)

        rerun = run_suite(
            policies=("lru",), benchmarks=self.BENCHMARKS, scale=SCALE,
            options=RunOptions(workers=2),
        )
        assert rerun.meta["cache"] == {"hits": 2, "misses": 0}

    def test_unknown_workload_is_a_cell_failure_not_a_crash(self):
        # Keys canonicalize the spec parent-side, so a bad benchmark
        # surfaces before any worker runs; it must degrade to a
        # per-cell failure exactly like an unknown policy spec.
        suite = run_suite(
            policies=("lru",), benchmarks=("lucas", "bogus-workload"),
            scale=SCALE, options=RunOptions(workers=2),
        )
        assert suite.result("lucas", "lru").instructions > 0
        assert "bogus-workload" in suite.failures
        assert "unknown workload" in suite.failures["bogus-workload"]["lru"]

    def test_built_traces_digest_identically_across_processes(self):
        script = (
            "from repro.workloads import build_workload\n"
            "for spec in %r:\n"
            "    print(build_workload(spec, scale=%r).content_digest())\n"
            % (self.BENCHMARKS, SCALE)
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            cwd=str(Path(__file__).parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        local = [
            build_workload(spec, scale=SCALE).content_digest()
            for spec in self.BENCHMARKS
        ]
        assert out.stdout.split() == local
