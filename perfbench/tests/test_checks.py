"""Output checks: the experiments normaliser and digest pinning."""

import cases
import run
from cases import Sample


def test_normaliser_strips_only_timing_lines():
    stdout = (
        "Figure 9: IPC improvement\n"
        "[figure9 finished in 0.3s]\n"
        "\n"
        "[figure10 finished in 12.0s]\n"
        "[prewarm: 214 tasks on 2 workers in 3.8s]\n"
        "figure9 finished in 0.3s\n"
        "[figure9 finished in 0.3s] and more\n"
        "  mcf   +12.5%\n"
    )
    assert cases.normalise_experiments(stdout) == (
        "Figure 9: IPC improvement\n"
        "\n"
        "[prewarm: 214 tasks on 2 workers in 3.8s]\n"
        "figure9 finished in 0.3s\n"
        "[figure9 finished in 0.3s] and more\n"
        "  mcf   +12.5%\n"
    )


def test_digest_ignores_key_order():
    assert cases.digest_of({"a": 1, "b": [2]}) == cases.digest_of(
        {"b": [2], "a": 1}
    )


def test_surrogate_specs_follow_the_seed():
    assert cases.surrogate_specs(0) == list(cases.SURROGATES)
    assert cases.surrogate_specs(3)[1] == "mcf(seed=3)"


def _fixed_sample(digest):
    return Sample(setup_s=0.1, wall_s=1.0, cpu_s=1.0, peak_rss_mb=10.0,
                  job_s=[1.0], digest=digest, window=(0.0, 1.0))


def test_wrong_pinned_digest_fails_every_run():
    tally = run.Tally("0" * 32)
    plain, traced = run.run_iterations(
        lambda index, traced: _fixed_sample("f" * 32), 0.0, False, tally
    )
    assert tally.attempted == run.MIN_RUNS
    assert tally.failed == tally.attempted
    assert plain == [] and traced == []


def test_runs_must_agree_with_the_first():
    digests = iter(["a" * 32, "a" * 32, "b" * 32])
    tally = run.Tally(None)
    plain, _ = run.run_iterations(
        lambda index, traced: _fixed_sample(next(digests)), 0.0, False, tally
    )
    assert (tally.attempted, tally.failed, len(plain)) == (3, 1, 2)


def test_traced_mode_alternates_runs():
    seen = []

    def run_one(index, traced):
        seen.append(traced)
        return _fixed_sample("a" * 32)

    plain, traced = run.run_iterations(run_one, 0.0, True, run.Tally(None))
    assert seen == [False, True] * run.MIN_TRACED_RUNS
    assert len(plain) == len(traced) == run.MIN_TRACED_RUNS
