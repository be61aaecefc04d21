"""The typed JSON reader behind every input file, and what it rejects.

Each loader accepts exactly the JSON types its saver writes; any other input
is ``MalformedFileError`` or ``InvariantViolation`` (exit code 2 from the
CLI), never a silent coercion or a traceback.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shardalloc.cli import cli_dispatch
from shardalloc.errors import InvariantViolation, MalformedFileError
from shardalloc.experiments import (config_from_dict, config_to_dict,
                                    load_experiment_config)
from shardalloc.model import (Allocation, InstanceGenConfig, generate_instance,
                              instance_to_dict, json_field, load_allocation_csv,
                              load_instance, read_json_object, save_allocation_csv,
                              save_instance)
from shardalloc.simulator import EpochConfig, epoch_config_to_dict, load_epoch_config


def write_json(path, data):
    path.write_text(json.dumps(data))
    return path


@pytest.fixture
def instance_dict():
    return instance_to_dict(generate_instance(InstanceGenConfig(
        n_nodes=3, score_mean=30.0, score_std=4.0, max_difference=25.0,
        rng_seed=5)))


def experiment_dict(**overrides):
    data = {"experiment_id": "pr51_vs_shards", "label": "t",
            "methods": ["uniform"], "sigma_grid": [1, 2], "rng_seed": 3,
            "restart_budget": 5, "grid_steps": 2, "record_wall_time": False,
            "gen": {"n_nodes": 6, "score_mean": 30.0, "score_std": 4.0,
                    "max_difference": 25.0, "s_max": 3, "rng_seed": 7}}
    data.update(overrides)
    return data


EPOCH_DICT = epoch_config_to_dict(EpochConfig(
    epochs=3, slots_per_epoch=2, corruption_rate=0.5, corruption_delay=1,
    reconfigure_every=2, rng_seed=4, adversary_mode="fixed"))


class TestJsonField:
    @pytest.mark.parametrize("kind, value", [
        (int, 3), (float, 2.5), (bool, False), (str, "x"), (dict, {"a": 1}),
        (list[int], [1, 2]), (list[str], []),
    ])
    def test_accepts_its_json_type(self, kind, value):
        got = json_field({"k": value}, "k", kind)
        assert got == (tuple(value) if isinstance(value, list) else value)

    @pytest.mark.parametrize("kind, value", [
        (int, 2.0), (int, 2.9), (int, True), (int, "3"), (int, None),
        (float, True), (float, "0.5"), (float, None), (float, [1.0]),
        (bool, 0), (bool, "false"), (str, 5), (dict, [1]),
        (list[int], [1.5]), (list[int], [True]), (list[float], ["1"]),
        (list[str], "ab"), (list[int], {"a": 1}),
    ])
    def test_rejects_other_types_naming_the_key(self, kind, value):
        with pytest.raises(MalformedFileError, match=r"'k(\[\d+\])?'"):
            json_field({"k": value}, "k", kind)

    def test_float_from_integer_is_a_float(self):
        got = json_field({"k": 20}, "k", float)
        assert type(got) is float and got == 20.0
        grid = json_field({"k": [20, 36.8]}, "k", list[float])
        assert grid == (20.0, 36.8) and all(type(v) is float for v in grid)

    def test_integer_too_large_for_a_float(self):
        with pytest.raises(MalformedFileError, match="too large"):
            json_field({"k": 10 ** 400}, "k", float)
        with pytest.raises(MalformedFileError, match="too large"):
            json_field({"k": [1, 10 ** 400]}, "k", list[float])

    def test_missing_key(self):
        with pytest.raises(MalformedFileError, match="'k' is missing"):
            json_field({}, "k", int)
        assert json_field({}, "k", int, 7) == 7
        assert json_field({}, "k", str, None) is None

    def test_null_is_not_a_missing_key(self):
        with pytest.raises(MalformedFileError):
            json_field({"k": None}, "k", str, None)


class TestReadJsonObject:
    @pytest.mark.parametrize("raw", [
        b"{ nope", b"", b"[1, 2]", b"3", b'"text"', b"\xff\xfe{}",
        b'{"a": "\xe9"}', b"[" * 100_000 + b"]" * 100_000,
    ])
    def test_anything_but_a_json_object(self, tmp_path, raw):
        path = tmp_path / "x.json"
        path.write_bytes(raw)
        with pytest.raises(MalformedFileError):
            read_json_object(path, "test")

    def test_object(self, tmp_path):
        path = write_json(tmp_path / "x.json", {"a": [1, 2.5]})
        assert read_json_object(path, "test") == {"a": [1, 2.5]}


def _set(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


class TestRejectedInputs:
    """Inputs that were coerced or ended in a traceback, each now exit 2."""

    @pytest.mark.parametrize("path, value", [
        (("s_max",), 2.9), (("mus", 0, "id"), 100.7), (("tau",), "0.001"),
        (("mus", 1, "d"), True), (("weights", "alpha_c"), "1"),
        (("meta", "seed"), 1.5), (("mus",), {"id": 0}), (("t_per_shard",), 10 ** 400),
    ])
    def test_instance(self, tmp_path, instance_dict, path, value):
        _set(instance_dict, path, value)
        inst = write_json(tmp_path / "inst.json", instance_dict)
        with pytest.raises(MalformedFileError):
            load_instance(inst)
        assert cli_dispatch(["solve", str(inst), "-o", str(tmp_path / "s.json")]) == 2

    @pytest.mark.parametrize("path, value", [
        (("sigma_grid",), [1.5]), (("record_wall_time",), "false"), (("label",), 5),
        (("restart_budget",), 2.5), (("gen", "n_nodes"), 5.5), (("instance_path",), 5),
        (("methods",), "uniform"), (("gen",), None), (("mean_grid",), [True]),
    ])
    def test_experiment_config(self, tmp_path, path, value):
        data = experiment_dict()
        _set(data, path, value)
        cfg = write_json(tmp_path / "exp.json", data)
        with pytest.raises(MalformedFileError):
            load_experiment_config(cfg)
        assert cli_dispatch(["experiment", "pr51_vs_shards", "--config", str(cfg),
                             "--output-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("epochs", 3.7), ("slots_per_epoch", True), ("corruption_rate", "0.5"),
        ("adversary_mode", 1), ("rng_seed", None),
    ])
    def test_epoch_config(self, tmp_path, instance_dict, key, value):
        cfg = write_json(tmp_path / "sim.json", dict(EPOCH_DICT, **{key: value}))
        with pytest.raises(MalformedFileError):
            load_epoch_config(cfg)
        inst = write_json(tmp_path / "inst.json", instance_dict)
        assert cli_dispatch(["simulate", str(inst), "--config", str(cfg),
                             "-o", str(tmp_path / "r.json")]) == 2

    def test_non_utf8_bytes(self, tmp_path, instance_dict):
        inst = write_json(tmp_path / "inst.json", instance_dict)
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"label": "caf\xe9"}')
        out = str(tmp_path / "o.json")
        assert cli_dispatch(["solve", str(bad), "-o", out]) == 2
        assert cli_dispatch(["simulate", str(inst), "--config", str(bad), "-o", out]) == 2
        assert cli_dispatch(["experiment", "pr51_vs_shards", "--config", str(bad)]) == 2


class TestIntegerValuedFloats:
    """JSON integers in float fields load as floats equal to the saved ones."""

    def test_instance(self, tmp_path, instance_dict):
        instance_dict.update(t_per_shard=2000, weights={
            "alpha_d": 1, "alpha_c": 1, "alpha_t": 1})
        instance_dict["mus"][0].update(d=12, c=0, t=3)
        loaded = load_instance(write_json(tmp_path / "i.json", instance_dict))
        assert type(loaded.t_per_shard) is float and type(loaded.weights.alpha_d) is float
        assert [type(v) for v in (loaded.profiles[0].data_score,
                                  loaded.profiles[0].token_score)] == [float, float]
        save_instance(loaded, tmp_path / "again.json")
        assert load_instance(tmp_path / "again.json") == loaded
        assert json.loads((tmp_path / "again.json").read_text())["t_per_shard"] == 2000.0

    def test_experiment_config(self, tmp_path):
        ints = config_from_dict(experiment_dict(
            experiment_id="mean_std_sweep", mean_grid=[20, 36.8], std_grid=[3, 6.7],
            scale_percents=[50, 100], gen=dict(experiment_dict()["gen"], score_mean=30)))
        floats = config_from_dict(experiment_dict(
            experiment_id="mean_std_sweep", mean_grid=[20.0, 36.8], std_grid=[3.0, 6.7],
            scale_percents=[50.0, 100.0]))
        assert ints == floats
        assert all(type(v) is float for v in ints.mean_grid + ints.std_grid
                   + ints.scale_percents + (ints.gen.score_mean,))
        assert [f"{v:g}" for v in ints.mean_grid] == ["20", "36.8"]
        path = write_json(tmp_path / "exp.json", config_to_dict(ints))
        assert load_experiment_config(path) == ints

    def test_epoch_config(self, tmp_path):
        cfg = load_epoch_config(write_json(tmp_path / "e.json",
                                           dict(EPOCH_DICT, corruption_rate=2)))
        assert type(cfg.corruption_rate) is float and cfg.corruption_rate == 2.0


# Fuzzing: any JSON value in any place, keys removed, or arbitrary bytes.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
    | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=5)


def _paths(value, prefix=()):
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield prefix + (key,)
        yield from _paths(item, prefix + (key,))


@st.composite
def _mutated_json(draw, base: dict) -> bytes:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=40))
    data = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(data))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JSON_VALUES)
    return json.dumps(data).encode()


def _loads_or_rejects(load, path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        load(path)
    except (MalformedFileError, InvariantViolation):
        pass


_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzz:
    """Every input either loads or raises one of the two input errors."""

    @_FUZZ
    @given(data=st.data())
    def test_instance(self, tmp_path, instance_dict, data):
        raw = data.draw(_mutated_json(instance_dict))
        _loads_or_rejects(load_instance, tmp_path / "i.json", raw)

    @_FUZZ
    @given(data=st.data())
    def test_epoch_config(self, tmp_path, data):
        raw = data.draw(_mutated_json(EPOCH_DICT))
        _loads_or_rejects(load_epoch_config, tmp_path / "e.json", raw)

    @_FUZZ
    @given(data=st.data())
    def test_experiment_config(self, tmp_path, data):
        raw = data.draw(_mutated_json(experiment_dict(instance_path="inst.json")))
        _loads_or_rejects(load_experiment_config, tmp_path / "x.json", raw)

    @_FUZZ
    @given(data=st.data())
    def test_allocation_csv(self, tmp_path, data):
        instance = generate_instance(InstanceGenConfig(
            n_nodes=3, score_mean=30.0, score_std=4.0, max_difference=25.0))
        path = tmp_path / "a.csv"
        save_allocation_csv(Allocation(instance, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                            path)
        lines = path.read_bytes().split(b"\r\n")
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(lines)))
            cell = data.draw(st.text(alphabet="0123456789,-.e+naif\r\n\" ", max_size=12)
                             .map(str.encode) | st.binary(max_size=12))
            if data.draw(st.booleans()) and at < len(lines):
                lines[at] = cell
            else:
                lines.insert(at, cell)
        _loads_or_rejects(lambda p: load_allocation_csv(p, instance), path,
                          b"\r\n".join(lines))
