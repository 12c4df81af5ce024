"""Chaos-plane integration tests: survive faults, change nothing.

The contract under test: a seeded :class:`~repro.exec.faults.FaultPlan`
may cost retries, pool respawns and self-heals, but the study's
payloads must stay byte-identical to a fault-free run; a cell that
exhausts its budget quarantines with an actionable diagnostic instead
of wedging the grid; and running an interrupted grid again resumes it
from the stores, recomputing only the unfinished discoveries.
"""

import pytest

from repro.exec.chaos import chaos_main
from repro.exec.faults import active_plan, install_plan, reset_fault_state
from repro.exec.scheduler import StudyScheduler, _canonical
from repro.exec.stagestore import stage_store_for
from repro.exec.store import STAGES, ArtifactStore
from repro.exec.supervise import QuarantinedCellError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import crossarch_request
from repro.experiments.sweep import rank_request, scaling, scaling_request

APPS = ("MCB", "graph500")
MACHINE = "Intel Core i7-3770"

#: Every fault class armed at high rate; max=1 keeps the plan
#: convergent under the default retry budget of 2.
DRILL = "seed=2017,kill=0.6,exc=0.6,torn=0.6,enospc=0.3,max=1"


@pytest.fixture(autouse=True)
def _isolated_fault_plane():
    """Chaos schedulers install their plan process-wide; always revert."""
    install_plan(None)
    reset_fault_state()
    yield
    install_plan(None)
    reset_fault_state()


def _config(**overrides):
    base = dict(
        thread_counts=(1, 2), discovery_runs=2, repetitions=3, cache_dir=""
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _canonical_results(results):
    return {request: _canonical(payload) for request, payload in results.items()}


class TestByteIdentityUnderFaults:
    def test_serial_chaos_matches_fault_free(self, tmp_path):
        requests = [crossarch_request(app, t) for app in APPS for t in (1, 2)]
        reference = _canonical_results(StudyScheduler(_config()).run(requests))

        install_plan(None)
        reset_fault_state()
        chaos = StudyScheduler(
            _config(cache_dir=str(tmp_path), faults=DRILL, retry_backoff=0.0)
        )
        survived = _canonical_results(chaos.run(requests))

        assert survived == reference
        assert chaos.stats.retries > 0  # the drill actually drilled
        assert chaos.stats.quarantined == 0

    def test_processes_chaos_with_real_worker_kills(self, tmp_path):
        """SIGKILLed workers respawn; output still byte-identical."""
        requests = [crossarch_request(app, t) for app in APPS for t in (1, 2)]
        reference = _canonical_results(StudyScheduler(_config()).run(requests))

        install_plan(None)
        reset_fault_state()
        chaos = StudyScheduler(
            _config(
                jobs=2,
                cache_dir=str(tmp_path),
                faults=DRILL,
                retry_backoff=0.0,
            )
        )
        survived = _canonical_results(chaos.run(requests))

        assert survived == reference
        assert chaos.stats.retries + chaos.stats.respawns > 0
        assert chaos.stats.quarantined == 0

    def test_chaos_identical_across_fault_seeds(self, tmp_path):
        """Different fault schedules, same numbers: seed-independence."""
        request = crossarch_request("MCB", 1)
        outputs = []
        for fault_seed in (3, 4):
            install_plan(None)
            reset_fault_state()
            scheduler = StudyScheduler(
                _config(
                    cache_dir=str(tmp_path / f"s{fault_seed}"),
                    faults=f"seed={fault_seed},exc=1.0,max=1",
                    retry_backoff=0.0,
                )
            )
            outputs.append(_canonical(scheduler.run([request])[request]))
            assert scheduler.stats.retries == 1
        assert outputs[0] == outputs[1]

    def test_retry_byte_identity_proof(self, tmp_path):
        """The scheduler verifies a retried cell against the store."""
        import os

        from repro.exec.scheduler import _INLINE
        from repro.exec.stagestore import stage_store_for

        config = _config(cache_dir=str(tmp_path))
        request = crossarch_request("MCB", 1)
        other = crossarch_request("graph500", 1)
        seeded = StudyScheduler(config)
        payloads = seeded.run([request, other])  # populates the store

        verifier = StudyScheduler(config)
        parent_stats = stage_store_for(config).stats
        pid = os.getpid()

        # A retried (attempts=2) result matching the store: verified.
        matching = ((_INLINE, payloads[request]), pid, {})
        verifier._finish_cell(request, matching, 2, pid, parent_stats)
        assert verifier.stats.retry_verified == 1

        # A retried result that diverges from the cached bytes is a
        # determinism violation, never silently overwritten.
        diverged = ((_INLINE, payloads[other]), pid, {})
        with pytest.raises(RuntimeError, match="determinism violation"):
            verifier._finish_cell(request, diverged, 2, pid, parent_stats)


class TestQuarantine:
    def test_budget_exhaustion_quarantines_with_diagnostic(self, tmp_path):
        config = _config(
            cache_dir=str(tmp_path),
            faults="seed=1,exc=1.0,max=0",  # unbounded: every attempt fails
            cell_retries=1,
            retry_backoff=0.0,
        )
        scheduler = StudyScheduler(config)
        with pytest.raises(QuarantinedCellError) as err:
            scheduler.run([crossarch_request("MCB", 1)])
        message = str(err.value)
        assert "quarantined" in message
        assert "run the same command again" in message
        assert "--resume" not in message
        assert scheduler.stats.quarantined == 1
        assert scheduler.stats.retries == 1

    def test_uncached_quarantine_does_not_promise_the_cache(self):
        """Under --no-cache nothing was stored, so no rerun hint."""
        config = _config(
            faults="seed=1,exc=1.0,max=0", cell_retries=0, retry_backoff=0.0
        )
        with pytest.raises(QuarantinedCellError) as err:
            StudyScheduler(config).run([crossarch_request("MCB", 1)])
        message = str(err.value)
        assert "1 cell(s) quarantined" in message
        assert "crossarch[MCB,t1]" in message
        assert "cache" not in message
        assert "run the same command again" not in message

    def test_healthy_cells_complete_before_the_run_fails(self, tmp_path):
        """Quarantine is per-cell: the rest of the grid still lands."""
        config = _config(
            cache_dir=str(tmp_path),
            faults="seed=1,exc=1.0,max=0",
            cell_retries=0,
            retry_backoff=0.0,
        )
        scheduler = StudyScheduler(config)
        healthy = crossarch_request("graph500", 2)
        doomed = crossarch_request("MCB", 1)

        # Arm the plan only for the doomed cell's key by giving the
        # healthy cell a pre-faulted store entry to hit instead.
        install_plan(None)
        reset_fault_state()
        StudyScheduler(_config(cache_dir=str(tmp_path))).run([healthy])

        install_plan(None)
        reset_fault_state()
        with pytest.raises(QuarantinedCellError):
            scheduler.run([doomed, healthy])
        assert scheduler.stats.cache_hits == 1
        assert healthy in scheduler._memory  # the grid finished around it


class TestResumeFromStore:
    """Running the same grid again is how an interrupted run resumes."""

    @pytest.mark.parametrize(
        "make_request", [scaling_request, rank_request], ids=["scaling", "ranks"]
    )
    def test_rerun_rebuilds_finished_cells(self, make_request, tmp_path):
        """Finished cells rebuild from stored stages; the rest compute."""
        cache = str(tmp_path / "cache")
        requests = [make_request(app, width) for app in APPS for width in (1, 2)]

        # Scheduler A stops after the two MCB cells, as a driver killed
        # mid-grid would: the stage store already holds their stages.
        first = StudyScheduler(_config(cache_dir=cache))
        first.run(requests[:2])
        assert first.stats.executed == 2

        second = StudyScheduler(_config(cache_dir=cache))
        stats = stage_store_for(second.config).stats
        before = stats.snapshot()
        results = second.run(requests)
        delta = stats.delta_since(before)
        assert set(results) == set(requests)
        # Sweep cells are cache-exempt, so all four execute, but only
        # graph500's two widths compute a discovery: each MCB cell
        # loads its stored selection and measurement and looks up
        # nothing upstream of them.
        assert second.stats.executed == 4
        assert delta["misses"].get("select") == 2
        assert delta["hits"].get("measure") == 2
        assert delta["misses"].get("measure") == 2

        # The resumed payloads are byte-identical to an uninterrupted run.
        expected = StudyScheduler(_config()).run(requests)
        assert _canonical_results(results) == _canonical_results(expected)

    def test_repeated_runs_leave_no_checkpoint_directory(self, tmp_path):
        """The stores are the only state a run leaves behind."""
        cache = tmp_path / "cache"
        requests = scaling.requests_for(("MCB",), (MACHINE,))
        for _ in range(2):
            StudyScheduler(_config(cache_dir=str(cache))).run(requests)
        assert (ArtifactStore(cache).root / STAGES).is_dir()
        assert not (cache / "checkpoints").exists()


class TestChaosCli:
    def test_drill_passes_and_reports_survival(self, tmp_path, capsys):
        code = chaos_main(
            [
                "figure2",
                "--quick",
                "--cache-dir",
                str(tmp_path),
                "--faults",
                "seed=2017,exc=0.6,torn=0.6,max=1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "byte-identity vs fault-free run: OK" in out
        assert "injected faults:" in out
        assert "survival:" in out

    def test_inert_spec_is_rejected(self, capsys):
        code = chaos_main(["figure2", "--faults", "seed=1"])
        assert code == 2
        assert "never fires" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--jobs", "0"), ("--cell-retries", "-1")]
    )
    def test_bad_execution_values_are_rejected_before_any_grid_runs(
        self, flag, value, tmp_path, capsys
    ):
        code = chaos_main(
            ["figure2", "--quick", "--cache-dir", str(tmp_path), flag, value,
             "--faults", "seed=7,exc=0.6,max=1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: {flag} must be" in captured.err
        assert "chaos drill" not in captured.out
        assert list(tmp_path.iterdir()) == []


class TestPlanSource:
    def test_the_environment_arms_no_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=7,exc=1.0,max=0")
        assert not active_plan().active
        assert not active_plan(_config()).active
