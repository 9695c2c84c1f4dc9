"""Tests for the ``repro.bench`` harness (smoke-sized runs only)."""

import json
import pathlib

import pytest

from repro.bench import (
    MACRO_PHASED,
    MACRO_PREFETCHED,
    MACRO_POLICIES,
    MACRO_WORKLOADS,
    SCHEMA,
    build_report,
    machine_fingerprint,
    run_macro,
    validate_report,
)
from repro.bench.__main__ import main as bench_main
from repro.sim.native import load_extension

#: The kernel ``auto`` resolves to on this host.
AUTO_KERNEL = "native" if load_extension() is not None else "generic"


@pytest.fixture(scope="module")
def quick_report():
    macro = run_macro(quick=True, workloads=("mcf",), policies=("lru",))
    return build_report(macro, tag="test", created_unix=0)


class TestMacro:
    def test_quick_run_embeds_simulation_results(self):
        entries = run_macro(quick=True, workloads=("mcf",),
                            policies=("lru", "lin(4)"))
        # The mcf/lru prefetch cell rides along after the matrix.
        assert [(e["workload"], e["policy"], e.get("prefetch_degree"))
                for e in entries] == [
            ("mcf", "lru", None), ("mcf", "lin(4)", None), ("mcf", "lru", 2),
        ]
        for entry in entries:
            assert entry["accesses"] > 0
            assert entry["result"]["l2_misses"] > 0
            assert entry["result"]["cycles"] > 0
            assert entry["result"]["demand_misses"] > 0

    def test_cells_record_kernel_and_scale(self):
        entries = run_macro(quick=True, workloads=("mcf",),
                            policies=("lru", "sbar", "dip"))
        for entry in entries:
            # Quick mode pins scale to 0.05; the recorded value must be
            # the *effective* scale so --check can rebuild the trace.
            assert entry["scale"] == 0.05
            # Stock configs all qualify for the native kernel when it
            # is built, and a cell names the gate that kept it off.
            assert entry["kernel_used"] == AUTO_KERNEL, entry["policy"]
            assert entry["kernel_fallback"] == (
                None if AUTO_KERNEL == "native" else "extension not built"
            ), entry["policy"]
            # The bench requests no kernel, so a cell records none.
            assert "kernel" not in entry
            assert "fused" not in entry

    def test_default_matrix_names_are_valid(self):
        from repro.workloads.spec2000 import BENCHMARKS
        assert set(MACRO_WORKLOADS) <= set(BENCHMARKS)
        assert "lru" in MACRO_POLICIES
        assert "sbar" in MACRO_POLICIES
        assert "cbs-local" in MACRO_POLICIES
        assert "cbs-global" in MACRO_POLICIES

    def test_default_matrix_covers_every_registered_policy(self):
        from repro.cache.replacement.registry import available_policies
        assert {spec.partition("(")[0] for spec in MACRO_POLICIES} == set(
            available_policies()
        )
        workload, policy, interval = MACRO_PHASED
        assert workload in MACRO_WORKLOADS and policy in MACRO_POLICIES
        assert interval > 0

    def test_phased_cell_rides_along_and_checks(self, tmp_path):
        workload, policy, interval = MACRO_PHASED
        entries = run_macro(quick=True, workloads=(workload,),
                            policies=(policy,))
        assert [e.get("phase_interval") for e in entries] == [None, interval]
        plain, phased = entries
        assert "phase_misses" not in plain["result"]
        assert sum(phased["result"]["phase_misses"]) == (
            phased["result"]["demand_misses"]
        )
        assert phased["kernel_used"] == AUTO_KERNEL
        report = build_report(entries, tag="t", created_unix=0)
        path = tmp_path / "BENCH_phased.json"
        path.write_text(json.dumps(report))
        assert bench_main(["--check", str(path)]) == 0
        phased["result"]["phase_misses"][0] += 1
        path.write_text(json.dumps(report))
        assert bench_main(["--check", str(path)]) == 1


    def test_prefetch_cells_ride_along_and_check(self, tmp_path):
        entries = run_macro(quick=True, workloads=("mcf", "art"),
                            policies=("lru", "lin(4)"))
        cells = {
            (entry["workload"], entry["policy"]): entry
            for entry in entries if "prefetch_degree" in entry
        }
        assert sorted(
            (workload, policy, entry["prefetch_degree"])
            for (workload, policy), entry in cells.items()
        ) == sorted(MACRO_PREFETCHED)
        for (workload, policy), entry in cells.items():
            plain = next(e for e in entries
                         if (e["workload"], e["policy"]) == (workload, policy)
                         and "prefetch_degree" not in e)
            assert entry["kernel_used"] == AUTO_KERNEL
            assert entry["result"] != plain["result"]
        report = build_report(entries, tag="t", created_unix=0)
        path = tmp_path / "BENCH_prefetch.json"
        path.write_text(json.dumps(report))
        assert bench_main(["--check", str(path)]) == 0
        cells["art", "lin(4)"]["result"]["demand_misses"] += 1
        path.write_text(json.dumps(report))
        assert bench_main(["--check", str(path)]) == 1


class TestReport:
    def test_build_and_validate(self, quick_report):
        validate_report(quick_report)  # must not raise
        assert quick_report["schema"] == SCHEMA
        assert quick_report["tag"] == "test"
        assert quick_report["created_unix"] == 0
        assert "micro" not in quick_report
        # The report must survive a JSON round trip unchanged.
        assert json.loads(json.dumps(quick_report)) == quick_report

    def test_code_version_names_the_sources_that_ran(self, quick_report):
        # The source hash (native .c files included), not a git commit:
        # a report written from an uncommitted tree names its own code.
        from repro.sim.store import code_version

        assert quick_report["code_version"] == code_version()

    def test_fingerprint_fields(self):
        fingerprint = machine_fingerprint()
        for key in ("platform", "machine", "python", "cpus"):
            assert key in fingerprint

    @pytest.mark.parametrize("mutate", [
        lambda r: r.pop("schema"),
        lambda r: r.__setitem__("schema", "bogus/v0"),
        lambda r: r["macro"][0].pop("kernel_used"),
        lambda r: r["macro"][0].__setitem__("accesses", True),
        lambda r: r["macro"][0].pop("result"),
        lambda r: r["macro"][0]["result"].pop("l2_misses"),
        lambda r: r.__setitem__("macro", "not-a-list"),
        lambda r: r["macro"][0].__setitem__("phase_interval", 0),
        lambda r: r["macro"][0].__setitem__("phase_interval", "5000"),
        lambda r: r["macro"][0].__setitem__("prefetch_degree", 0),
        lambda r: r["macro"][0].__setitem__("prefetch_degree", 2.0),
        lambda r: r.__setitem__("schema", "repro.bench/v6"),
    ])
    def test_validate_rejects_malformed(self, quick_report, mutate):
        broken = json.loads(json.dumps(quick_report))
        mutate(broken)
        with pytest.raises(ValueError):
            validate_report(broken)


class TestCli:
    def test_quick_cli_writes_valid_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_ci.json"
        assert bench_main(["--quick", "--tag", "ci", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        validate_report(report)
        assert report["tag"] == "ci"
        assert "accesses/s" in capsys.readouterr().out

    def test_refuses_to_overwrite_without_force(self, tmp_path, capsys):
        out = tmp_path / "BENCH_base.json"
        out.write_text("{\"precious\": \"baseline\"}\n")
        code = bench_main(["--quick", "--tag", "base", "--out", str(out)])
        assert code == 2
        # The committed baseline must be untouched, and the refusal has
        # to happen *before* any benchmark runs (no timing output).
        assert json.loads(out.read_text()) == {"precious": "baseline"}
        captured = capsys.readouterr()
        assert "--force" in captured.err
        assert "accesses/s" not in captured.out

    def test_force_overwrites(self, tmp_path):
        out = tmp_path / "BENCH_base.json"
        out.write_text("{\"precious\": \"baseline\"}\n")
        code = bench_main(
            ["--quick", "--tag", "base", "--out", str(out), "--force"]
        )
        assert code == 0
        validate_report(json.loads(out.read_text()))

    def test_default_out_path_is_guarded_too(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCH_local.json").write_text("{}\n")
        assert bench_main(["--quick"]) == 2
        assert "--force" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--workers", "2"], ["--resume", "run-x"], ["--max-retries", "2"],
        ["--deadline", "1"], ["--chaos", "crash=1"], ["--no-cache"],
        ["--progress"],
    ])
    def test_execution_flags_are_rejected(self, flag, capsys):
        # Bench times serial, uncached runs: it takes no flag it would
        # have to ignore.
        with pytest.raises(SystemExit) as excinfo:
            bench_main(["--quick"] + flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCheckMode:
    @pytest.fixture(scope="class")
    def report_path(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench") / "BENCH_check.json"
        assert bench_main(
            ["--quick", "--tag", "check", "--out", str(out)]
        ) == 0
        return out

    def test_check_passes_on_fresh_report(self, report_path, capsys):
        code = bench_main(
            ["--check", str(report_path), "--cell", "mcf/sbar"]
        )
        assert code == 0
        assert "OK: mcf/sbar" in capsys.readouterr().out

    def test_check_fails_on_tampered_result(self, report_path, tmp_path,
                                            capsys):
        report = json.loads(report_path.read_text())
        for entry in report["macro"]:
            if entry["workload"] == "mcf" and entry["policy"] == "sbar":
                entry["result"]["l2_misses"] += 1
        tampered = tmp_path / "BENCH_tampered.json"
        tampered.write_text(json.dumps(report))
        code = bench_main(["--check", str(tampered), "--cell", "mcf/sbar"])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAIL" in err and "l2_misses" in err

    def test_check_unknown_cell_fails(self, report_path, capsys):
        code = bench_main(
            ["--check", str(report_path), "--cell", "mcf/nonesuch"]
        )
        assert code == 1
        assert "no macro cell" in capsys.readouterr().err

    def test_check_rejects_malformed_cell_spec(self, report_path, capsys):
        code = bench_main(
            ["--check", str(report_path), "--cell", "justoneword"]
        )
        assert code == 2
        assert "WORKLOAD/POLICY" in capsys.readouterr().err

    def test_check_without_cell_verifies_every_cell(self, report_path,
                                                    capsys):
        # --check REPORT alone sweeps every recorded macro cell.
        code = bench_main(["--check", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert out.count("OK: ") == len(report["macro"])

    def test_check_selects_a_phase_cell_by_its_label(self, report_path,
                                                     capsys):
        workload, policy, interval = MACRO_PHASED
        cell = "%s/%s@phase=%d" % (workload, policy, interval)
        assert bench_main(["--check", str(report_path), "--cell", cell]) == 0
        assert "OK: %s results match" % cell in capsys.readouterr().out

    def test_check_unknown_kernel_cell_fails(self, report_path, capsys):
        # A kernel suffix is not part of a cell's label.
        for cell in ("mcf/sbar/nonesuch", "mcf/sbar/auto"):
            code = bench_main(["--check", str(report_path), "--cell", cell])
            assert code == 1
            assert "no macro cell" in capsys.readouterr().err

    def test_committed_baseline_cell_verifies(self):
        # Re-simulate mcf/sbar at the committed baseline's recorded
        # scale and compare the machine-independent result fields.
        baseline = pathlib.Path(__file__).resolve().parent.parent / (
            "BENCH_pr28.json"
        )
        code = bench_main(["--check", str(baseline), "--cell", "mcf/sbar"])
        assert code == 0

    @pytest.mark.parametrize("name,expected_schema", [
        ("BENCH_pr28.json", SCHEMA),
    ])
    def test_committed_baselines_validate(self, name, expected_schema):
        baseline = pathlib.Path(__file__).resolve().parent.parent / name
        report = json.loads(baseline.read_text())
        assert report["schema"] == expected_schema == "repro.bench/v7"
        validate_report(report)  # must not raise
        assert len(report["macro"]) == 29
