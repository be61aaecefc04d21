from __future__ import annotations

import hashlib
import json

import pytest

from shardalloc import experiments
from shardalloc.errors import InvariantViolation, NumericalFailure
from shardalloc.experiments import (config_from_dict, config_to_dict,
                                    revalidate_results, run_experiment)
from shardalloc.model import (InstanceGenConfig, generate_instance, load_instance,
                              save_instance)


def gen_block(**overrides):
    base = {"n_nodes": 30, "score_mean": 30.0, "score_std": 4.0,
            "max_difference": 25.0, "p_adv_default": 0.1, "tau": 0.001,
            "s_max": 8, "t_per_shard": 2000.0, "rng_seed": 7}
    base.update(overrides)
    return base


def pr51_config(**overrides):
    data = {"experiment_id": "pr51_vs_shards", "label": "t", "rng_seed": 3,
            "methods": ["lgrn_rederived", "uniform"], "sigma_grid": [1, 2, 4],
            "gen": gen_block()}
    data.update(overrides)
    return config_from_dict(data)


def read_rows(csv_path):
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestConfig:
    def test_roundtrip(self):
        cfg = pr51_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_experiment(self):
        with pytest.raises(InvariantViolation):
            pr51_config(experiment_id="nope")

    def test_empty_methods(self):
        with pytest.raises(InvariantViolation):
            pr51_config(methods=[])

    def test_missing_grid(self):
        with pytest.raises(InvariantViolation):
            pr51_config(sigma_grid=[])

    def test_unknown_method(self):
        with pytest.raises(InvariantViolation):
            pr51_config(methods=["cplex"])

    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\r", "a\u2028b"])
    def test_label_breaking_the_csv_rejected(self, label):
        # The result CSV is unquoted: a comma would shift the columns.
        with pytest.raises(InvariantViolation):
            pr51_config(label=label)


class TestPr51Table:
    def test_sigma_one_rows_identical(self, tmp_path):
        cfg = pr51_config(methods=["lgrn_rederived", "uniform", "greedy",
                                   "random_restart"])
        rows = read_rows(run_experiment(cfg, tmp_path))
        sigma1 = {r["method"]: r["pr51"] for r in rows if r["sigma"] == "1"}
        assert len(set(sigma1.values())) == 1

    def test_throughput_matches_sigma(self, tmp_path):
        rows = read_rows(run_experiment(pr51_config(), tmp_path))
        for r in rows:
            if r["status"] == "feasible":
                assert float(r["throughput_tx_s"]) == int(r["sigma"]) * 2000.0

    def test_revalidation_clean(self, tmp_path):
        run_experiment(pr51_config(), tmp_path)
        assert revalidate_results(tmp_path) == []

    @pytest.mark.parametrize("spec", [
        {"experiment_id": "throughput_and_time", "s_max_grid": [2, 4],
         "methods": ["lgrn_rederived", "greedy"]},
        {"experiment_id": "adv_prob_sweep", "scale_percents": [100, 200],
         "methods": ["lgrn_rederived", "uniform"]},
        {"experiment_id": "mean_std_sweep", "mean_grid": [30, 40],
         "std_grid": [0, 4], "methods": ["lgrn_rederived"]},
    ])
    def test_revalidation_clean_all_experiments(self, tmp_path, spec):
        cfg = config_from_dict({"label": "t", "gen": gen_block(s_max=6),
                                "rng_seed": 3, **spec})
        run_experiment(cfg, tmp_path)
        assert revalidate_results(tmp_path) == []

    def test_revalidation_detects_tamper(self, tmp_path):
        csv_path = run_experiment(pr51_config(), tmp_path)
        lines = csv_path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[4] = "0.5"  # forge the risk column
        lines[1] = ",".join(parts)
        csv_path.write_text("\n".join(lines) + "\n")
        assert revalidate_results(tmp_path)


class TestRevalidation:
    def unsafe_config(self):
        return config_from_dict({
            "experiment_id": "throughput_and_time", "label": "u", "rng_seed": 3,
            "s_max_grid": [2, 4], "methods": ["lgrn_rederived", "uniform"],
            "gen": gen_block(tau=1e-12)})

    def test_deleted_allocations_reported(self, tmp_path):
        run_experiment(pr51_config(), tmp_path)
        for path in (tmp_path / "allocs").glob("*.csv"):
            path.unlink()
        problems = revalidate_results(tmp_path)
        assert len(problems) == 6
        assert all("allocation file" in p for p in problems)

    def test_unsafe_rows_checked_against_single_shard_bound(self, tmp_path):
        csv_path = run_experiment(self.unsafe_config(), tmp_path)
        rows = read_rows(csv_path)
        assert {r["status"] for r in rows} == {"unsafe"}
        assert not (tmp_path / "allocs").exists()
        assert revalidate_results(tmp_path) == []
        csv_path.write_text(csv_path.read_text().replace(rows[0]["pr51"], "0.5", 1))
        assert len(revalidate_results(tmp_path)) == 1

    def test_missing_instance_reported(self, tmp_path):
        run_experiment(self.unsafe_config(), tmp_path)
        for path in tmp_path.glob("instance__*.json"):
            path.unlink()
        problems = revalidate_results(tmp_path)
        assert len(problems) == 4
        assert all("instance file" in p for p in problems)

    def test_shifted_columns_reported(self, tmp_path):
        csv_path = run_experiment(pr51_config(), tmp_path)
        lines = csv_path.read_text().splitlines()
        lines[1] = lines[1].replace(",t,", ",a,b,", 1)
        csv_path.write_text("\n".join(lines) + "\n")
        problems = revalidate_results(tmp_path)
        assert len(problems) == 1 and "fields" in problems[0]

    def test_directory_without_results_reported(self, tmp_path):
        assert revalidate_results(tmp_path)

    def test_non_utf8_csv_reported(self, tmp_path):
        run_experiment(pr51_config(), tmp_path)
        (tmp_path / "notes.csv").write_bytes(b"caf\xe9\n")
        assert revalidate_results(tmp_path) == ["notes.csv: not UTF-8 text"]

    def test_every_problem_listed_past_a_broken_instance_file(self, tmp_path):
        run_experiment(pr51_config(methods=["uniform"], sigma_grid=[1, 2]),
                       tmp_path)
        (tmp_path / "instance__t.json").write_text("{")
        (tmp_path / "extra.csv").write_bytes(b"caf\xe9\n")
        problems = revalidate_results(tmp_path)
        assert problems[0] == "extra.csv: not UTF-8 text"
        assert len(problems) == 3
        assert all("instance file instance__t.json unreadable" in p
                   for p in problems[1:])

    @pytest.mark.parametrize("first_row", [
        "1_0,0,1.0",  # not as saved: MalformedFileError
        "0,0,nan",    # a non-finite score: InvariantViolation
    ])
    def test_unreadable_allocation_file_reported(self, tmp_path, first_row):
        run_experiment(pr51_config(methods=["uniform"], sigma_grid=[1, 2]),
                       tmp_path)
        broken = tmp_path / "allocs" / "pr51_vs_shards__t__uniform__s2.csv"
        lines = broken.read_text().splitlines()
        lines[1] = first_row
        broken.write_text("\n".join(lines) + "\n")
        problems = revalidate_results(tmp_path)
        assert len(problems) == 1
        assert "allocation file pr51_vs_shards__t__uniform__s2.csv unreadable" \
            in problems[0]

    def test_each_instance_file_loaded_once(self, tmp_path, monkeypatch):
        loads = []

        def counting_load(path):
            loads.append(path.name)
            return load_instance(path)

        run_experiment(pr51_config(), tmp_path / "one")
        run_experiment(self.unsafe_config(), tmp_path / "two")
        monkeypatch.setattr(experiments, "load_instance", counting_load)
        assert revalidate_results(tmp_path / "one") == []
        assert loads == ["instance__t.json"]
        loads.clear()
        assert revalidate_results(tmp_path / "two") == []
        assert sorted(loads) == ["instance__u_S2.json", "instance__u_S4.json"]
        assert revalidate_results(tmp_path / "two") == []
        assert len(loads) == 4


class TestDeterminism:
    def test_byte_identical_rerun(self, tmp_path):
        cfg = pr51_config(methods=["lgrn_rederived", "uniform", "greedy",
                                   "random_restart"])
        first = run_experiment(cfg, tmp_path / "a").read_bytes()
        second = run_experiment(cfg, tmp_path / "b").read_bytes()
        assert first == second

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        cfg = pr51_config()
        monkeypatch.setenv("SHARDALLOC_THREADS", "1")
        serial = run_experiment(cfg, tmp_path / "serial").read_bytes()
        monkeypatch.setenv("SHARDALLOC_THREADS", "4")
        parallel = run_experiment(cfg, tmp_path / "par").read_bytes()
        assert serial == parallel

    def test_instance_file_not_mutated(self, tmp_path):
        inst = generate_instance(InstanceGenConfig(**gen_block()))
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        cfg = config_from_dict({
            "experiment_id": "pr51_vs_shards", "label": "t", "rng_seed": 3,
            "methods": ["uniform"], "sigma_grid": [1, 2],
            "instance_path": str(path)})
        run_experiment(cfg, tmp_path / "out")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestThroughputAndTime:
    def test_lgrn_records_solves(self, tmp_path):
        cfg = config_from_dict({
            "experiment_id": "throughput_and_time", "label": "t",
            "methods": ["lgrn_rederived", "greedy"], "s_max_grid": [4, 8],
            "gen": gen_block(), "rng_seed": 1})
        rows = read_rows(run_experiment(cfg, tmp_path))
        lgrn = [r for r in rows if r["method"] == "lgrn_rederived"]
        assert all(r["solves"] != "" for r in lgrn)
        greedy = [r for r in rows if r["method"] == "greedy"]
        assert all(r["solves"] == "" for r in greedy)

    def test_statuses_and_throughput(self, tmp_path):
        cfg = config_from_dict({
            "experiment_id": "throughput_and_time", "label": "t",
            "methods": ["lgrn_rederived"], "s_max_grid": [4, 8],
            "gen": gen_block(), "rng_seed": 1})
        rows = read_rows(run_experiment(cfg, tmp_path))
        for r in rows:
            if r["status"] == "sharded":
                assert float(r["throughput_tx_s"]) == int(r["sigma"]) * 2000.0

    def test_starved_restart_budget_reports_no_sharding(self, tmp_path):
        # Thin margin: the even split passes but a single random sample
        # almost surely does not, so restarts fall back to one shard while
        # the solver still reaches the full budget.
        gen = gen_block(score_std=0.0, max_difference=1.0, tau=1e-4)
        cfg = config_from_dict({
            "experiment_id": "throughput_and_time", "label": "t",
            "methods": ["random_restart", "lgrn_rederived"],
            "s_max_grid": [8], "restart_budget": 1,
            "gen": gen, "rng_seed": 1})
        rows = {r["method"]: r for r in read_rows(run_experiment(cfg, tmp_path))}
        assert rows["lgrn_rederived"]["status"] == "sharded"
        assert rows["random_restart"]["status"] == "unsharded_safe"


class TestAdvSweep:
    def test_domain_exceeded_marked(self, tmp_path):
        cfg = config_from_dict({
            "experiment_id": "adv_prob_sweep", "label": "t",
            "methods": ["lgrn_rederived"], "scale_percents": [100, 600],
            "gen": gen_block(), "rng_seed": 1})
        rows = read_rows(run_experiment(cfg, tmp_path))
        by_scale = {r["instance_label"]: r for r in rows}
        assert by_scale["t@600%"]["status"] == "domain_exceeded"
        assert by_scale["t@600%"]["pr51"] == ""
        assert by_scale["t@100%"]["status"] != "domain_exceeded"

    def test_scale_100_matches_pr51_table(self, tmp_path):
        gen = gen_block()
        sweep_cfg = config_from_dict({
            "experiment_id": "adv_prob_sweep", "label": "t",
            "methods": ["uniform", "lgrn_rederived"], "scale_percents": [100],
            "gen": gen, "rng_seed": 1})
        table_cfg = config_from_dict({
            "experiment_id": "pr51_vs_shards", "label": "t",
            "methods": ["uniform", "lgrn_rederived"],
            "sigma_grid": [gen["s_max"]], "gen": gen, "rng_seed": 1})
        sweep = {r["method"]: r["pr51"]
                 for r in read_rows(run_experiment(sweep_cfg, tmp_path / "s"))}
        table = {r["method"]: r["pr51"]
                 for r in read_rows(run_experiment(table_cfg, tmp_path / "p"))}
        assert sweep == table

    def test_lgrn_monotone_in_scale(self, tmp_path):
        cfg = config_from_dict({
            "experiment_id": "adv_prob_sweep", "label": "t",
            "methods": ["lgrn_rederived"],
            "scale_percents": [100, 150, 200, 250],
            "gen": gen_block(), "rng_seed": 1})
        rows = read_rows(run_experiment(cfg, tmp_path))
        values = [float(r["pr51"]) for r in
                  sorted(rows, key=lambda r: float(r["instance_label"]
                                                   .split("@")[1][:-1]))]
        assert values == sorted(values)


class TestMeanStdSweep:
    def test_cells_and_stats_files(self, tmp_path):
        cfg = config_from_dict({
            "experiment_id": "mean_std_sweep", "label": "t",
            "methods": ["lgrn_rederived"], "mean_grid": [30, 45],
            "std_grid": [0, 4], "gen": gen_block(n_nodes=40), "rng_seed": 2})
        rows = read_rows(run_experiment(cfg, tmp_path))
        assert len(rows) == 4
        stats_files = list(tmp_path.glob("stats__*.json"))
        assert len(stats_files) == 4
        for f in stats_files:
            data = json.loads(f.read_text())
            assert data["achieved_spread"] <= max(1.0, 6.0 * data["requested_std"])

    def test_std_zero_matches_closed_form(self, tmp_path):
        import math
        cfg = config_from_dict({
            "experiment_id": "mean_std_sweep", "label": "t",
            "methods": ["lgrn_rederived"], "mean_grid": [40],
            "std_grid": [0], "gen": gen_block(n_nodes=50), "rng_seed": 2})
        rows = read_rows(run_experiment(cfg, tmp_path))
        # Equal scores: bound reduces to exp(-2*(0.5-p)^2*N).
        assert float(rows[0]["pr51"]) == pytest.approx(math.exp(-16.0), rel=1e-9)


class TestRowShapes:
    """Every row shape of the harness: fixed sigma, search, fixed S plus search."""

    def run(self, tmp_path, **spec):
        cfg = config_from_dict({"label": "t", "gen": gen_block(), "rng_seed": 1,
                                **spec})
        return read_rows(run_experiment(cfg, tmp_path))

    @staticmethod
    def empty(row, *columns):
        return all(row[c] == "" for c in columns)

    def test_too_large_at_each_grid_sigma(self, tmp_path):
        rows = self.run(tmp_path, experiment_id="pr51_vs_shards",
                        methods=["exhaustive"], sigma_grid=[1, 2, 4])
        assert [(r["sigma"], r["status"]) for r in rows] == [
            ("1", "too_large"), ("2", "too_large"), ("4", "too_large")]
        assert all(self.empty(r, "pr51", "throughput_tx_s", "solves") for r in rows)

    def test_too_large_search_at_sigma_zero(self, tmp_path):
        rows = self.run(tmp_path, experiment_id="throughput_and_time",
                        methods=["exhaustive"], s_max_grid=[2, 4])
        assert [(r["instance_label"], r["sigma"], r["status"]) for r in rows] == [
            ("t_S2", "0", "too_large"), ("t_S4", "0", "too_large")]
        assert all(self.empty(r, "pr51", "throughput_tx_s", "solves") for r in rows)

    def test_too_large_adv_row_at_s_without_pr51(self, tmp_path):
        rows = self.run(tmp_path, experiment_id="adv_prob_sweep",
                        methods=["exhaustive"], scale_percents=[100])
        assert [(r["sigma"], r["status"]) for r in rows] == [("8", "too_large")]
        assert self.empty(rows[0], "pr51", "throughput_tx_s", "solves")

    def test_generation_failure_cells_write_no_files(self, tmp_path):
        rows = self.run(tmp_path, experiment_id="mean_std_sweep",
                        methods=["lgrn_rederived", "uniform"],
                        mean_grid=[1, 30], std_grid=[50])
        failed = [r for r in rows if r["instance_label"] == "t_mean1_std50"]
        assert [(r["sigma"], r["status"]) for r in failed] == [
            ("8", "generation_failure")] * 2
        assert all(self.empty(r, "pr51", "throughput_tx_s", "solves") for r in failed)
        assert not list(tmp_path.glob("*mean1_std50*"))

    @staticmethod
    def failing_search(monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalFailure("residual too large")

        monkeypatch.setattr(experiments, "optimize_sharding", fail)

    def test_error_in_adv_search_keeps_fixed_pr51(self, tmp_path, monkeypatch):
        spec = dict(experiment_id="adv_prob_sweep", methods=["lgrn_rederived"],
                    scale_percents=[100])
        clean = self.run(tmp_path / "clean", **spec)[0]
        self.failing_search(monkeypatch)
        row = self.run(tmp_path / "failed", **spec)[0]
        assert (row["sigma"], row["status"]) == ("8", "error")
        assert row["pr51"] == clean["pr51"] != ""
        assert self.empty(row, "throughput_tx_s", "solves")
        assert revalidate_results(tmp_path / "failed") == []

    def test_error_in_search_gives_empty_row_at_sigma_zero(self, tmp_path,
                                                           monkeypatch):
        self.failing_search(monkeypatch)
        rows = self.run(tmp_path, experiment_id="throughput_and_time",
                        methods=["lgrn_literal"], s_max_grid=[4])
        assert [(r["sigma"], r["status"]) for r in rows] == [("0", "error")]
        assert self.empty(rows[0], "pr51", "throughput_tx_s", "wall_time_ms",
                          "solves")

    @pytest.mark.parametrize("spec, labels", [
        ({"experiment_id": "throughput_and_time", "s_max_grid": [2, 4]},
         ["t_S2", "t_S4"]),
        ({"experiment_id": "adv_prob_sweep", "scale_percents": [100, 200, 600]},
         ["t@100%", "t@200%"]),
    ])
    def test_each_instance_file_written_once(self, tmp_path, monkeypatch, spec,
                                             labels):
        saved = []

        def counting_save(instance, path):
            saved.append(path.name)
            save_instance(instance, path)

        monkeypatch.setattr(experiments, "save_instance", counting_save)
        self.run(tmp_path, methods=["lgrn_rederived", "uniform", "greedy"], **spec)
        assert sorted(saved) == [f"instance__{label}.json" for label in labels]
