import ctypes
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareevent import cli, harness
from rareevent.fem1d import Diffusion1dModel
from rareevent.fem2d import FlowCellModel
from rareevent.harness import (
    ExperimentConfig,
    RunRecord,
    cost_units,
    csv_header,
    records_to_csv,
    rel_rmse,
    run_experiment,
    run_single,
    summarize,
)
from rareevent.models import LinearLsfModel


class TestCostUnits:
    def test_level_weights_1d(self):
        assert cost_units({8: 1}, 8, 1) == 1.0
        assert cost_units({7: 1}, 8, 1) == 0.5

    def test_level_weights_2d(self):
        assert cost_units({5: 1}, 6, 2) == 0.25

    def test_empty_counts(self):
        assert cost_units({}, 8, 1) == 0.0

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            cost_units({9: 1}, 8, 1)

    @pytest.mark.parametrize("model_cls", [Diffusion1dModel, FlowCellModel])
    def test_weights_follow_the_models_level_rule(self, model_cls):
        # an evaluation at level l costs (h_L / h_l)^d finest solves; both
        # sides are exact powers of two
        model = model_cls()
        top = model.max_level
        for level in range(1, top + 1):
            assert cost_units({level: 1}, top, model.cost_dim) == (
                model.mesh_size(top) / model.mesh_size(level)) ** model.cost_dim

    @given(st.dictionaries(st.integers(1, 6), st.integers(0, 1000), max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_additive_in_counts(self, counts):
        total = cost_units(counts, 6, 2)
        split = sum(cost_units({k: v}, 6, 2) for k, v in counts.items())
        assert total == pytest.approx(split, rel=1e-12)


class TestRelRmse:
    def test_exact_estimates(self):
        assert rel_rmse([1e-4, 1e-4], 1e-4) == 0.0

    def test_single_double_estimate(self):
        assert rel_rmse([2e-4], 1e-4) == pytest.approx(1.0)

    def test_symmetric_pair(self):
        assert rel_rmse([0.5e-4, 1.5e-4], 1e-4) == pytest.approx(0.5)

    def test_population_normalization(self):
        # divide by the count, not count - 1
        vals = [1.0, 2.0, 3.0]
        expected = np.sqrt(np.mean((np.array(vals) - 2.0) ** 2)) / 2.0
        assert rel_rmse(vals, 2.0) == pytest.approx(expected)

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(ValueError):
            rel_rmse([1.0], 0.0)


class TestConfigValidation:
    def test_subset_methods_require_acs(self):
        config = ExperimentConfig(model="linear", method="sus", n=100, kernel="vmfn")
        with pytest.raises(ValueError):
            config.validate()

    def test_seed_fraction_consistency(self):
        config = ExperimentConfig(model="linear", method="sis", n=105, c=0.1)
        with pytest.raises(ValueError):
            config.validate()

    @pytest.mark.parametrize(("model", "cap"),
                             [("linear", 1), ("diffusion1d", 8), ("flowcell2d", 6)])
    def test_level_cap_per_model(self, model, cap):
        config = ExperimentConfig(model=model, method="mc", n=10, levels=cap)
        config.validate()
        with pytest.raises(ValueError):
            replace(config, levels=cap + 1).validate()

    @pytest.mark.parametrize("reference", [-1.0, 0.0, np.nan, np.inf])
    def test_reference_must_be_positive_and_finite(self, reference):
        config = ExperimentConfig(model="linear", method="mc", n=10, reference=reference)
        with pytest.raises(ValueError):
            config.validate()
        replace(config, reference=None).validate()
        replace(config, reference=2.3e-4).validate()

    def test_valid_config_passes(self):
        ExperimentConfig(model="diffusion1d", method="mlsis", n=100,
                         levels=8).validate()

    def test_peek_subset_must_leave_samples_out(self):
        # round(0.96 * 10) = 10: the peek would need every sample
        config = ExperimentConfig(model="diffusion1d", method="mlsis", n=10, levels=2,
                                  c=0.5, ns_frac=0.96)
        with pytest.raises(ValueError):
            config.validate()
        # a single-level run never peeks
        replace(config, levels=1).validate()

    def test_workers_must_be_positive(self):
        config = ExperimentConfig(model="linear", method="mc", n=10, workers=0)
        with pytest.raises(ValueError):
            config.validate()


_affinity_calls = []


def _report_worker_setup(slot, cpus, queue):
    """Run the pool initializer, then report its CPU moves and BLAS threads."""
    harness._init_worker(slot, cpus)
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    threads = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                threads.append(getattr(lib, name)())
                break
    queue.put((_affinity_calls, threads))


class TestRunExperiment:
    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2
                        or not os.path.exists("/proc/self/maps"),
                        reason="needs two CPUs and /proc/self/maps")
    def test_workers_start_on_own_cpu_with_one_blas_thread(self, monkeypatch):
        real = os.sched_setaffinity

        def recording(pid, cpus):
            _affinity_calls.append(sorted(cpus))
            real(pid, cpus)

        monkeypatch.setattr(os, "sched_setaffinity", recording)
        ctx = multiprocessing.get_context("fork")
        cpus = tuple(sorted(os.sched_getaffinity(0)))
        slot, queue = ctx.Value("i", 0), ctx.Queue()
        procs = [ctx.Process(target=_report_worker_setup, args=(slot, cpus, queue))
                 for _ in range(2)]
        for proc in procs:
            proc.start()
        reports = sorted(queue.get(timeout=60) for _ in procs)
        for proc in procs:
            proc.join(timeout=60)
            assert not proc.is_alive()
        # each worker moves to its own CPU, then gets the whole set back
        assert [calls for calls, _ in reports] == [[[cpus[0]], list(cpus)],
                                                   [[cpus[1]], list(cpus)]]
        for _, threads in reports:
            assert threads and all(n == 1 for n in threads)
        assert _affinity_calls == []

    def test_deterministic_csv_across_workers(self):
        base = dict(model="linear", method="sis", n=200, levels=1,
                    delta_target=0.5, kernel="vmfn", reps=4, seed=77,
                    stable_timing=True)
        a = run_experiment(ExperimentConfig(**base, workers=1))
        b = run_experiment(ExperimentConfig(**base, workers=2))
        csv_a = records_to_csv(a, summarize(a, None))
        csv_b = records_to_csv(b, summarize(b, None))
        assert csv_a == csv_b

    def test_header_schema(self):
        assert csv_header(2) == (
            "run_id,method,model,N,delta_target,kernel,c,p0,L,level_dims,"
            "estimate,cost_units,n_temper,n_bridge,evals_l1,evals_l2,wall_ms,status"
        )

    def test_summary_recomputable_from_rows(self):
        config = ExperimentConfig(model="linear", method="sus", n=100, kernel="acs",
                                  reps=5, seed=3, stable_timing=True)
        records = run_experiment(config)
        summary = summarize(records, reference=2.3263e-4)
        ok = [r for r in records if r.ok]
        assert summary.mean == pytest.approx(np.mean([r.estimate for r in ok]))
        assert summary.std == pytest.approx(np.std([r.estimate for r in ok]))
        assert summary.relrmse == pytest.approx(
            rel_rmse([r.estimate for r in ok], 2.3263e-4)
        )

    def test_error_rows_excluded_with_count(self):
        config = ExperimentConfig(model="linear", method="sis", n=100,
                                  stable_timing=True)
        good = RunRecord(run_id="0", config=config, estimate=1e-4, cost=10.0)
        bad = RunRecord(run_id="1", config=config,
                        status="error:NonconvergenceError")
        summary = summarize([good, bad], None)
        assert summary.n_ok == 1
        assert summary.n_excluded == 1
        text = records_to_csv([good, bad], summary)
        assert "error:NonconvergenceError" in text
        assert "excluded=1" in text

    def test_mc_reference_linear(self):
        config = ExperimentConfig(model="linear", method="mc", n=200_000,
                                  seed=5, stable_timing=True)
        record = run_experiment(replace(config, method="mc"))[0]
        exact = 2.326290790355250e-04
        bound = 3 * np.sqrt(exact / 200_000)
        assert abs(record.estimate - exact) < bound
        assert record.eval_counts == {1: 200_000}

    def test_pool_sized_from_the_work(self, monkeypatch):
        # a recording stand-in for the pool: it runs the map in this process
        requested = []
        linux = hasattr(os, "sched_getaffinity")

        class RecordingPool:
            def __init__(self, max_workers, initializer=None, initargs=()):
                requested.append(max_workers)
                assert initializer is (harness._init_worker if linux else None)
                # the workers are pinned to the CPUs the pool was sized from
                assert not linux or initargs[1] == (0, 5, 9)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 16)
        if linux:
            # three CPUs to run on out of 16: the affinity set caps the pool
            monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {9, 0, 5})
        config = ExperimentConfig(model="linear", method="mc", n=10, stable_timing=True)
        assert len(run_experiment(replace(config, reps=1, workers=3))) == 1
        assert requested == []
        assert len(run_experiment(replace(config, reps=2, workers=8))) == 2
        assert requested == [2]
        if not linux:
            monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        assert len(run_experiment(replace(config, reps=8, workers=8))) == 8
        assert requested == [2, 3]

    def test_run_single_counts_costs(self):
        config = ExperimentConfig(model="diffusion1d", method="mlsis", n=100,
                                  levels=2, delta_target=0.5, kernel="acs",
                                  c=0.5, reps=1, seed=11, stable_timing=True)
        record = run_single(config, 0)
        assert record.ok
        assert record.cost == pytest.approx(
            cost_units(record.eval_counts, 2, 1)
        )
        assert record.n_temper >= 1


class TestCli:
    def test_estimate_roundtrip(self, tmp_path):
        out = tmp_path / "run.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "rareevent.cli", "estimate",
             "--model", "linear", "--method", "sus", "--kernel", "acs",
             "--n", "200", "--reps", "2", "--seed", "9",
             "--stable-timing", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == csv_header(1)
        assert len(lines) == 4  # header, two runs, summary

    def test_mc_reference_runs_every_repetition(self, tmp_path):
        out = tmp_path / "ref.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "rareevent.cli", "mc-reference",
             "--model", "linear", "--n", "1000", "--reps", "3", "--seed", "6",
             "--stable-timing", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "summary"]
        assert all(line.split(",")[1] == "mc" for line in lines[1:])
        assert "n_ok=3" in lines[-1]

    def test_config_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rareevent.cli", "estimate",
             "--model", "nosuch", "--method", "sis", "--n", "100"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("word, value", [
        ("1", True), ("TRUE", True), (" yes", True), ("On", True),
        ("0", False), ("false", False), ("No ", False), ("OFF", False),
    ])
    def test_boolean_words(self, word, value):
        assert cli._coerce("stable_timing", word) is value

    def test_unrecognised_boolean_in_config_file_is_a_config_error(self, tmp_path, capsys):
        # a typo must not turn into False
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model=linear\nmethod=mc\nn=10\nstable_timing=ture\n")
        out = tmp_path / "o.csv"
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert "stable_timing=ture is not one of 1/true/yes/on/0/false/no/off" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model=linear\nmethod=sus\nkernel=acs\nn=100\nreps=1\n# comment\n")
        out = tmp_path / "o.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "rareevent.cli", "estimate",
             "--config", str(cfg), "--seed", "4", "--stable-timing",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_selftest_passes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rareevent.cli", "selftest"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "selftest passed" in proc.stdout

    def test_sweep_without_out_is_a_config_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rareevent.cli", "sweep",
             "--model", "linear", "--method", "mc", "--n", "10", "--grid", "n=10,20"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args", [
        # 1/c is no integer at c = 0.3
        pytest.param(["--method", "sis", "--n", "100", "--grid", "c=0.5,0.3"], id="c"),
        pytest.param(["--method", "mc", "--n", "10", "--grid", "seed=1,-1"], id="seed"),
        # the model constructor rejects tau0 <= 0
        pytest.param(["--model", "flowcell2d", "--method", "mc", "--levels", "1",
                      "--n", "10", "--grid", "tau0=0.2,-1"], id="tau0"),
        pytest.param(["--model", "flowcell2d", "--method", "mc", "--levels", "1",
                      "--n", "10", "--grid", "tau0=0.2,nan"], id="tau0-nan"),
        pytest.param(["--model", "flowcell2d", "--method", "mc", "--levels", "1",
                      "--n", "10", "--grid", "tau0=0.2,inf"], id="tau0-inf"),
        # SIS needs two samples
        pytest.param(["--method", "sis", "--c", "1", "--n", "10", "--grid", "n=10,1"],
                     id="n"),
        pytest.param(["--method", "mc", "--n", "10", "--grid", "beta=3,nan"], id="beta-nan"),
        pytest.param(["--method", "mc", "--n", "10", "--grid", "beta=3,inf"], id="beta-inf"),
        pytest.param(["--method", "sis", "--n", "100", "--grid", "delta_target=0.5,inf"],
                     id="delta-target-inf"),
        # a key given twice, or a value repeated after parsing, would drop or rerun a cell
        pytest.param(["--method", "mc", "--n", "10", "--grid", "n=10", "--grid", "n=20"],
                     id="grid-key-twice"),
        pytest.param(["--method", "mc", "--n", "10", "--grid", "beta=3,3.0"],
                     id="grid-value-twice"),
        # a word that is no boolean would have run as False
        pytest.param(["--method", "mc", "--n", "10", "--grid", "stable_timing=yes,maybe"],
                     id="grid-boolean-typo"),
    ])
    def test_sweep_validates_every_cell_before_running(self, tmp_path, args):
        out_dir = tmp_path / "sweep"
        proc = subprocess.run(
            [sys.executable, "-m", "rareevent.cli", "sweep", "--model", "linear",
             "--reps", "1", *args, "--out", str(out_dir)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        # the last cell is invalid, so not even the first one ran
        assert not out_dir.exists() or os.listdir(out_dir) == []

    def test_sweep_writes_per_cell_files(self, tmp_path):
        out_dir = tmp_path / "sweep"
        proc = subprocess.run(
            [sys.executable, "-m", "rareevent.cli", "sweep",
             "--model", "linear", "--method", "sus", "--kernel", "acs",
             "--reps", "1", "--seed", "2", "--stable-timing",
             "--n", "100", "--grid", "n=100,200",
             "--out", str(out_dir)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        files = sorted(os.listdir(out_dir))
        assert len(files) == 2

    def test_sweep_grid_supplies_required_settings(self, tmp_path):
        out_dir = tmp_path / "sweep"
        code = cli.main(["sweep", "--model", "linear", "--n", "100", "--kernel", "acs",
                         "--reps", "1", "--stable-timing", "--grid", "method=sus,mc",
                         "--out", str(out_dir)])
        assert code == cli.EXIT_OK
        assert sorted(os.listdir(out_dir)) == ["mc_linear_method-mc.csv",
                                               "sus_linear_method-sus.csv"]

    def test_fault_inside_a_repetition_is_no_config_error(self, monkeypatch, capsys):
        # validation passed, so a ValueError from the run is a program error
        calls = []
        evaluate = LinearLsfModel._evaluate_batch

        def faulty(self, xis, level):
            calls.append(level)
            if len(calls) == 40:
                raise ValueError("fault inside a repetition")
            return evaluate(self, xis, level)

        monkeypatch.setattr(LinearLsfModel, "_evaluate_batch", faulty)
        with pytest.raises(ValueError, match="fault inside a repetition"):
            cli.main(["estimate", "--model", "linear", "--method", "sis", "--kernel", "acs",
                      "--n", "500", "--reps", "3", "--stable-timing"])
        assert "config error" not in capsys.readouterr().err

    def test_fault_in_a_later_repetition_writes_the_finished_rows(self, tmp_path, monkeypatch):
        args = ["estimate", "--model", "linear", "--method", "sis", "--n", "500",
                "--stable-timing", "--out"]
        clean = tmp_path / "clean.csv"
        assert cli.main(args + [str(clean), "--reps", "3"]) == cli.EXIT_OK
        calls, fault_at = [], []
        evaluate = LinearLsfModel._evaluate_batch

        def faulty(self, xis, level):
            calls.append(level)
            if fault_at == [len(calls)]:
                raise ValueError("fault inside a repetition")
            return evaluate(self, xis, level)

        monkeypatch.setattr(LinearLsfModel, "_evaluate_batch", faulty)
        # fault on the first call after those of a clean repetition 0: repetition 1's
        assert cli.main(args + [str(tmp_path / "one.csv"), "--reps", "1"]) == cli.EXIT_OK
        fault_at.append(len(calls) + 1)
        calls.clear()
        out = tmp_path / "o.csv"
        with pytest.raises(ValueError, match="fault inside a repetition"):
            cli.main(args + [str(out), "--reps", "3"])
        # the header and repetition 0's row as a clean run writes them; no summary row
        assert out.read_text().splitlines() == clean.read_text().splitlines()[:2]

    @pytest.mark.parametrize("out", ["missing/o.csv", "."])
    def test_unwritable_out_is_a_config_error_before_any_run(
            self, tmp_path, monkeypatch, capsys, out):
        # a file in a missing directory, or a directory
        ran, run = [], cli.run_experiment
        monkeypatch.setattr(cli, "run_experiment", lambda config: ran.append(config) or run(config))
        out = tmp_path / out
        code = cli.main(["estimate", "--model", "linear", "--method", "mc", "--n", "10",
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert ran == []

    def test_mc_reference_overrides_the_config_files_method(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model=linear\nmethod=sis\nn=100\nreps=2\n")
        out = tmp_path / "ref.csv"
        assert cli.main(["mc-reference", "--config", str(cfg), "--stable-timing",
                         "--out", str(out)]) == cli.EXIT_OK
        rows = out.read_text().strip().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["mc", "mc", "mc"]
