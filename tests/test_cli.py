from __future__ import annotations

import json

import pytest

from shardalloc.cli import cli_dispatch
from shardalloc.model import load_instance, save_instance


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    code = cli_dispatch(["gen", "--nodes", "50", "--mean", "36.8", "--std",
                         "6.7", "--max-diff", "31", "--seed", "7",
                         "-o", str(path)])
    assert code == 0
    return path


class TestGen:
    def test_writes_valid_instance(self, instance_file):
        inst = load_instance(instance_file)
        assert inst.n == 50
        assert inst.meta is not None and inst.meta.achieved_spread <= 31.0

    def test_missing_required_flag(self, tmp_path):
        assert cli_dispatch(["gen", "--nodes", "5", "-o",
                             str(tmp_path / "x.json")]) == 1


class TestSolve:
    def test_pipeline(self, tmp_path, instance_file):
        out = tmp_path / "sol.json"
        code = cli_dispatch(["solve", str(instance_file), "--tau", "0.001",
                             "--s-max", "10", "--variant", "rederived",
                             "-o", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["status"] == "sharded"
        assert data["sigma_star"] == 10
        assert data["throughput_tx_s"] == 20000.0
        assert (tmp_path / "sol.json.alloc.csv").exists()

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert cli_dispatch(["solve", str(tmp_path / "nope.json"),
                             "-o", str(tmp_path / "out.json")]) == 2

    def test_bad_variant_is_usage_error(self, instance_file, tmp_path):
        assert cli_dispatch(["solve", str(instance_file), "--variant", "x",
                             "-o", str(tmp_path / "out.json")]) == 1


class TestBaseline:
    def test_greedy(self, tmp_path, instance_file):
        out = tmp_path / "alloc.csv"
        assert cli_dispatch(["baseline", str(instance_file), "--method",
                             "greedy", "-o", str(out)]) == 0
        assert out.exists()

    def test_exhaustive_guard_rails(self, instance_file):
        # 50 users far exceeds the enumeration guard.
        assert cli_dispatch(["baseline", str(instance_file), "--method",
                             "exhaustive"]) == 2


    @pytest.mark.parametrize("method",
                             ["uniform", "greedy", "random_restart", "exhaustive"])
    def test_tau_flag_matches_saved_tau(self, tmp_path, capsys, method):
        inst = tmp_path / "tiny.json"
        assert cli_dispatch(["gen", "--nodes", "4", "--mean", "36.8", "--std", "6.7",
                             "--max-diff", "80.4", "--s-max", "3", "--seed", "5",
                             "-o", str(inst)]) == 0
        saved = tmp_path / "tiny_tau.json"
        save_instance(load_instance(inst).with_tau(0.5), saved)
        outputs = []
        for path, flags in ((inst, ["--tau", "0.5"]), (saved, []), (inst, [])):
            capsys.readouterr()
            csv = tmp_path / f"alloc{len(outputs)}.csv"
            assert cli_dispatch(["baseline", str(path), "--method", method,
                                 *flags, "-o", str(csv)]) == 0
            outputs.append((capsys.readouterr(),
                            csv.read_bytes() if csv.exists() else None))
        flag, same_tau, own_tau = outputs
        assert flag == same_tau
        assert flag != own_tau  # the instance's own tau 1e-3 is unsafe


class TestSimulate:
    def test_config_json(self, tmp_path, instance_file):
        cfg_path = tmp_path / "sim_cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 5, "slots_per_epoch": 1,
                                        "reconfigure_every": 5, "rng_seed": 2}))
        out = tmp_path / "sim.json"
        assert cli_dispatch(["simulate", str(instance_file), "--config",
                             str(cfg_path), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["epochs_run"] == 5

    @pytest.mark.parametrize("rate", ["nan", "inf", "1e300"])
    def test_corruption_rate_outside_the_poisson_range(self, tmp_path, instance_file,
                                                       rate):
        out = str(tmp_path / "r.json")
        assert cli_dispatch(["simulate", str(instance_file), "--epochs", "2",
                             "--corruption-rate", rate, "-o", out]) == 2
        cfg = tmp_path / "sim.json"
        cfg.write_text(f'{{"epochs": 2, "slots_per_epoch": 1, '
                       f'"corruption_rate": {json.dumps(float(rate))}}}')
        assert cli_dispatch(["simulate", str(instance_file), "--config", str(cfg),
                             "-o", out]) == 2

    def test_needs_epochs_or_config(self, tmp_path, instance_file):
        assert cli_dispatch(["simulate", str(instance_file),
                             "-o", str(tmp_path / "sim.json")]) == 1

    def test_report_and_csv(self, tmp_path, instance_file):
        out = tmp_path / "sim.json"
        csv_out = tmp_path / "sim.csv"
        code = cli_dispatch(["simulate", str(instance_file), "--epochs", "20",
                             "--slots", "2", "--reconfigure-every", "5",
                             "--seed", "3", "-o", str(out),
                             "--csv", str(csv_out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["epochs_run"] == 20
        assert report["attacked_fraction"] == 0.0
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "epoch,shard,adv_fraction,attacked,leader_mu,reconfigured"
        assert len(lines) == 1 + 20 * 10  # 10 shards per epoch


class TestExperiment:
    def test_runs_from_config(self, tmp_path, instance_file):
        cfg = {"experiment_id": "pr51_vs_shards", "label": "cli",
               "methods": ["uniform"], "sigma_grid": [1, 2],
               "instance_path": str(instance_file), "rng_seed": 1}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert cli_dispatch(["experiment", "pr51_vs_shards", "--config",
                             str(cfg_path), "--output-dir", str(out_dir)]) == 0
        assert (out_dir / "pr51_vs_shards.csv").exists()

    def test_id_mismatch(self, tmp_path, instance_file):
        cfg = {"experiment_id": "pr51_vs_shards", "label": "cli",
               "methods": ["uniform"], "sigma_grid": [1],
               "instance_path": str(instance_file)}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_dispatch(["experiment", "adv_prob_sweep", "--config",
                             str(cfg_path)]) == 1


class TestValidate:
    def test_suite_passes(self):
        assert cli_dispatch(["validate", "--seed", "2"]) == 0

    def test_results_revalidated(self, tmp_path, instance_file):
        cfg = {"experiment_id": "pr51_vs_shards", "label": "cli",
               "methods": ["uniform"], "sigma_grid": [1, 2],
               "instance_path": str(instance_file)}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert cli_dispatch(["experiment", "pr51_vs_shards", "--config",
                             str(cfg_path), "--output-dir", str(out_dir)]) == 0
        assert cli_dispatch(["validate", "--results", str(out_dir)]) == 0
        for path in (out_dir / "allocs").glob("*.csv"):
            path.unlink()
        assert cli_dispatch(["validate", "--results", str(out_dir)]) == 2

    def test_results_with_shifted_columns_exit_two(self, tmp_path):
        # What an unquoted label "a,b" used to write.
        (tmp_path / "pr51_vs_shards.csv").write_text(
            "experiment_id,instance_label,method,sigma,pr51,throughput_tx_s,"
            "wall_time_ms,solves,status\n"
            "pr51_vs_shards,a,b,uniform,1,0.25,,,,infeasible\n")
        assert cli_dispatch(["validate", "--results", str(tmp_path)]) == 2

    def test_non_utf8_result_csv_exit_two(self, tmp_path, instance_file, capsys):
        cfg = {"experiment_id": "pr51_vs_shards", "label": "cli",
               "methods": ["uniform"], "sigma_grid": [1],
               "instance_path": str(instance_file)}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert cli_dispatch(["experiment", "pr51_vs_shards", "--config",
                             str(cfg_path), "--output-dir", str(out_dir)]) == 0
        (out_dir / "zz.csv").write_bytes(b"\xff\xfe\n")
        assert cli_dispatch(["validate", "--results", str(out_dir)]) == 2
        assert "FAIL revalidate: zz.csv: not UTF-8 text" in capsys.readouterr().out

    def test_broken_instance_file_does_not_stop_validation(self, tmp_path,
                                                           instance_file, capsys):
        cfg = {"experiment_id": "pr51_vs_shards", "label": "t",
               "methods": ["uniform"], "sigma_grid": [1, 2],
               "instance_path": str(instance_file)}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert cli_dispatch(["experiment", "pr51_vs_shards", "--config",
                             str(cfg_path), "--output-dir", str(out_dir)]) == 0
        (out_dir / "instance__t.json").write_text("{")
        (out_dir / "extra.csv").write_bytes(b"\xff\xfe\n")
        assert cli_dispatch(["validate", "--results", str(out_dir)]) == 2
        out = capsys.readouterr().out
        assert "FAIL revalidate: extra.csv: not UTF-8 text" in out
        assert out.count("instance file instance__t.json unreadable") == 2

    def test_comma_label_rejected(self, tmp_path, instance_file):
        cfg = {"experiment_id": "pr51_vs_shards", "label": "a,b",
               "methods": ["uniform"], "sigma_grid": [1],
               "instance_path": str(instance_file)}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_dispatch(["experiment", "pr51_vs_shards", "--config",
                             str(cfg_path)]) == 2

    def test_help_exits_zero(self):
        assert cli_dispatch(["--help"]) == 0

    def test_unknown_command(self):
        assert cli_dispatch(["frobnicate"]) == 1
