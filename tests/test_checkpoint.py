"""Checkpoint serialization: exact round trips and corruption handling."""

import hashlib
import json
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moltiers import checkpoint
from moltiers.checkpoint import CheckpointError, atomic_write, load_checkpoint, save_checkpoint
from moltiers.models import (
    MoleculeData,
    TieredGaeParams,
    TieredVgaeParams,
    gae_loss,
    param_spec,
)
from moltiers.smiles import parse_smiles
from moltiers.train import TrainConfig, train_gae, train_vgae


def all_weights(params):
    return [t.values for t in params.trainable()]


def test_gae_round_trip_is_exact(tmp_path):
    params = TieredGaeParams.init(np.random.default_rng(10), (5, 4, 3), 2)
    path = tmp_path / "model.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert isinstance(loaded, TieredGaeParams)
    assert loaded.dims == (5, 4, 3)
    assert loaded.depth == 2
    assert loaded.encoders[0].input_dim == params.encoders[0].input_dim == 16
    for original, restored in zip(all_weights(params), all_weights(loaded)):
        assert np.array_equal(original, restored)


def test_vgae_round_trip_is_exact(tmp_path):
    params = TieredVgaeParams.init(np.random.default_rng(11), (4, 4, 4), 3)
    path = tmp_path / "model.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert isinstance(loaded, TieredVgaeParams)
    for original, restored in zip(all_weights(params), all_weights(loaded)):
        assert np.array_equal(original, restored)


def test_saving_twice_gives_identical_bytes(tmp_path):
    params = TieredGaeParams.init(np.random.default_rng(12), (3, 3, 3), 2)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(params, a)
    save_checkpoint(params, b)
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def two_molecules():
    return [MoleculeData.from_graph(parse_smiles(s)) for s in ("CC(=O)O", "O=Cc1ccc(O)c(OC)c1")]


@settings(max_examples=30)
@given(
    train=st.sampled_from([train_gae, train_vgae]),
    dims=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
    depth=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_trained_checkpoint_round_trip_is_byte_identical(
    tmp_path_factory, two_molecules, train, dims, depth, seed
):
    config = TrainConfig(dims=dims, depth=depth, epochs=2, seed=seed)
    params, _ = train(two_molecules, config)
    directory = tmp_path_factory.mktemp("round-trip")
    first, second = directory / "first.json", directory / "second.json"
    save_checkpoint(params, first)
    loaded = load_checkpoint(first)
    save_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    for original, restored in zip(all_weights(params), all_weights(loaded)):
        assert np.array_equal(original, restored)


# SHA-256 of format-v1 files written before the model spec existed, when the
# GAE and VGAE each had their own init and the checkpoint its own weight
# naming: ``cls.init(np.random.default_rng(0), (2, 3, 4), depth)``.
FORMAT_V1_DIGESTS = {
    (TieredGaeParams, 1): "a44ac7865356c426e223609a703088772a7d6ae6a742cc5b4e05c1dba850b31b",
    (TieredGaeParams, 3): "728d2ba993c9ff5410743bfb1811976d8591e3762481612542d0d73c274eede8",
    (TieredVgaeParams, 1): "c38bf7abc6b283302ee9dd3499500c108b82e188c16c3d4722fb98905aa2e5c2",
    (TieredVgaeParams, 3): "1b90bfc1c33c7d044e23f567d0f49eeec7e7521b1f36cc0bfef8a2d7b103ef5f",
}


@pytest.mark.parametrize(("cls", "depth"), list(FORMAT_V1_DIGESTS))
def test_format_v1_bytes_are_pinned(tmp_path, cls, depth):
    path = tmp_path / "model.json"
    save_checkpoint(cls.init(np.random.default_rng(0), (2, 3, 4), depth), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FORMAT_V1_DIGESTS[cls, depth]


@settings(max_examples=40)
@given(
    cls=st.sampled_from([TieredGaeParams, TieredVgaeParams]),
    dims=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
    depth=st.integers(1, 3),
)
def test_spec_orders_weights_trainables_and_checkpoint(tmp_path_factory, cls, dims, depth):
    spec = param_spec(cls.variational, dims, depth)
    params = cls.init(np.random.default_rng(0), dims, depth)
    assert [(name, w.shape) for name, w in params.named_weights().items()] == spec
    assert [w.shape for w in params.trainable()] == [shape for _, shape in spec]

    path = tmp_path_factory.mktemp("spec") / "model.json"
    save_checkpoint(params, path)
    text = path.read_text()
    weights = json.loads(text)["weights"]
    assert list(weights) == sorted(name for name, _ in spec)
    assert all(np.shape(weights[name]) == shape for name, shape in spec)
    for name, _ in spec:
        payload = json.loads(text)
        del payload["weights"][name]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=re.escape(f"missing weight '{name}'")):
            load_checkpoint(path)


def test_restored_params_reproduce_the_loss(tmp_path):
    data = MoleculeData.from_graph(parse_smiles("CCO"))
    params = TieredGaeParams.init(np.random.default_rng(13), (4, 4, 4), 2)
    expected = gae_loss(params, data).item()
    path = tmp_path / "model.json"
    save_checkpoint(params, path)
    restored = load_checkpoint(path)
    assert gae_loss(restored, data).item() == expected


def test_checkpoint_is_sorted_json(tmp_path):
    params = TieredGaeParams.init(np.random.default_rng(14), (2, 2, 2), 1)
    path = tmp_path / "model.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())
    assert payload["format_version"] == 1
    assert payload["model_kind"] == "gae"
    assert payload["config"] == {"dims": [2, 2, 2], "layers": 1, "input_dim": 16}
    keys = list(payload["weights"])
    assert keys == sorted(keys)


def test_unknown_object_rejected(tmp_path):
    with pytest.raises(TypeError, match="cannot checkpoint"):
        save_checkpoint({"weights": []}, tmp_path / "x.json")


def corrupt(tmp_path, mutate):
    params = TieredGaeParams.init(np.random.default_rng(15), (2, 2, 2), 1)
    path = tmp_path / "model.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    return path


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CheckpointError, match="malformed"):
        load_checkpoint(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(CheckpointError, match="not an object"):
        load_checkpoint(path)
    path.write_bytes(b"\xff\xfe{}")  # not UTF-8
    with pytest.raises(CheckpointError, match="malformed checkpoint file: 'utf-8' codec can't decode"):
        load_checkpoint(path)
    path.write_text('{"format_version": ' + "1" * 5000 + "}")  # past int's string-conversion limit
    with pytest.raises(CheckpointError, match="malformed checkpoint file: Exceeds the limit"):
        load_checkpoint(path)


def test_version_and_kind_checked(tmp_path):
    path = corrupt(tmp_path, lambda p: p.update(format_version=99))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)
    path = corrupt(tmp_path, lambda p: p.update(model_kind="diffusion"))
    with pytest.raises(CheckpointError, match="unknown model kind"):
        load_checkpoint(path)


def test_missing_and_misshapen_weights_rejected(tmp_path):
    path = corrupt(tmp_path, lambda p: p["weights"].pop("decoder.pair"))
    with pytest.raises(CheckpointError, match="missing weight"):
        load_checkpoint(path)
    path = corrupt(tmp_path, lambda p: p["weights"].update({"decoder.pair": [[1.0]]}))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("cls", [TieredGaeParams, TieredVgaeParams])
@pytest.mark.parametrize(("depth", "layers"), [(3, 1), (3, 2), (2, 1)])
def test_a_shallower_config_does_not_drop_weights(tmp_path, cls, depth, layers):
    path = tmp_path / "model.json"
    save_checkpoint(cls.init(np.random.default_rng(16), (2, 3, 4), depth), path)
    payload = json.loads(path.read_text())
    payload["config"]["layers"] = layers
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="outside the spec"):
        load_checkpoint(path)


def test_a_stray_weight_name_rejected(tmp_path):
    path = corrupt(tmp_path, lambda p: p["weights"].update({"tier4.layer0": [[1.0]]}))
    with pytest.raises(CheckpointError, match="outside the spec of this config: tier4.layer0"):
        load_checkpoint(path)


def set_pair(value):
    return lambda p: p["weights"].update({"decoder.pair": value})


def set_pair_entry(value):
    return lambda p: p["weights"]["decoder.pair"][0].__setitem__(0, value)


NOT_A_MATRIX = "not a numeric rectangular matrix"


@pytest.mark.parametrize(
    ("mutate", "message"),
    [
        pytest.param(set_pair_entry("oops"), NOT_A_MATRIX, id="string-entry"),
        pytest.param(set_pair_entry("1.5"), NOT_A_MATRIX, id="numeric-string-entry"),
        pytest.param(set_pair_entry(True), NOT_A_MATRIX, id="boolean-entry"),
        pytest.param(set_pair_entry(None), NOT_A_MATRIX, id="null-entry"),
        pytest.param(set_pair_entry({}), NOT_A_MATRIX, id="object-entry"),
        pytest.param(set_pair_entry([1.0]), NOT_A_MATRIX, id="list-entry"),
        pytest.param(set_pair("abc"), NOT_A_MATRIX, id="string-weight"),
        pytest.param(
            lambda p: p["weights"]["decoder.pair"][0].append(0.5), NOT_A_MATRIX, id="long-row"
        ),
        pytest.param(
            lambda p: p["weights"]["decoder.pair"].__setitem__(1, "ab"), NOT_A_MATRIX, id="string-row"
        ),
        pytest.param(set_pair_entry(float("nan")), "non-finite", id="nan"),
        pytest.param(set_pair_entry(float("inf")), "non-finite", id="inf"),
        pytest.param(set_pair_entry(float("-inf")), "non-finite", id="minus-inf"),
        pytest.param(set_pair_entry(10**400), "non-finite", id="integer-past-float64"),
        pytest.param(set_pair([[[0.5] * 6] * 6]), "has shape", id="three-dimensional"),
    ],
)
def test_a_weight_that_is_no_finite_numeric_matrix_rejected(tmp_path, mutate, message):
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(corrupt(tmp_path, mutate))


def test_integer_entries_load_as_floats(tmp_path):
    identity = [[int(i == j) for j in range(6)] for i in range(6)]
    loaded = load_checkpoint(corrupt(tmp_path, set_pair(identity)))
    assert loaded.pair_decoder.values.dtype == np.float64
    assert np.array_equal(loaded.pair_decoder.values, np.eye(6))


def test_bad_config_rejected(tmp_path):
    path = corrupt(tmp_path, lambda p: p["config"].pop("dims"))
    with pytest.raises(CheckpointError, match="bad checkpoint config"):
        load_checkpoint(path)
    path = corrupt(tmp_path, lambda p: p["config"].update(dims=[2, 2]))
    with pytest.raises(CheckpointError, match="bad checkpoint config"):
        load_checkpoint(path)
    path = corrupt(tmp_path, lambda p: p.update(config="nope"))
    with pytest.raises(CheckpointError, match="no config object"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    ("key", "value"),
    [
        ("dims", "222"),
        ("dims", [2.7, 2, 2]),
        ("dims", [2.0, 2, 2]),
        ("dims", [True, 2, 2]),
        ("dims", {"0": 2}),
        ("layers", 1.9),
        ("layers", "1"),
        ("layers", True),
        ("layers", None),
        ("input_dim", 16.5),
        ("input_dim", "16"),
    ],
)
def test_a_config_value_that_is_no_json_integer_rejected(tmp_path, key, value):
    # each of these once loaded through int(), truncated or coerced
    path = corrupt(tmp_path, lambda p: p["config"].update({key: value}))
    with pytest.raises(CheckpointError, match="bad checkpoint config: .* must be JSON integers"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [6, 17])
def test_an_input_width_other_than_the_node_features_rejected(tmp_path, value):
    # weights of that width could encode no molecule
    path = corrupt(tmp_path, lambda p: p["config"].update(input_dim=value))
    message = f"bad checkpoint config: input_dim must be 16, got {value}$"
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "missing.json")


class _RecordingFile:
    """A text file whose writes are recorded; with ``fail`` each write puts
    half its text in the file and then raises, as a full disk would."""

    def __init__(self, handle, writes, fail):
        self.handle, self.writes, self.fail = handle, writes, fail

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.writes.append(len(text))
        if self.fail:
            self.handle.write(text[: len(text) // 2])
            raise RuntimeError("disk full")
        return self.handle.write(text)


def _record_writes(monkeypatch, fail=False) -> list[int]:
    """Route ``checkpoint``'s ``open`` through :class:`_RecordingFile`;
    returns the list that each write's length is appended to."""
    writes = []

    def recording_open(*args, **kwargs):
        return _RecordingFile(open(*args, **kwargs), writes, fail)

    monkeypatch.setattr(checkpoint, "open", recording_open, raising=False)
    return writes


def test_a_checkpoint_is_written_in_one_call(tmp_path, monkeypatch):
    params = TieredGaeParams.init(np.random.default_rng(1), (16, 16, 16), 3)
    save_checkpoint(params, tmp_path / "reference.json")
    writes = _record_writes(monkeypatch)
    save_checkpoint(params, tmp_path / "model.json")
    expected = (tmp_path / "reference.json").read_bytes()
    assert (tmp_path / "model.json").read_bytes() == expected
    assert writes == [len(expected.decode("utf-8"))]


def test_failed_save_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_checkpoint(TieredGaeParams.init(np.random.default_rng(1), (3, 3, 3), 2), path)
    before = path.read_bytes()

    writes = _record_writes(monkeypatch, fail=True)
    with pytest.raises(RuntimeError, match="disk full"):
        save_checkpoint(TieredGaeParams.init(np.random.default_rng(2), (3, 3, 3), 2), path)
    assert writes  # the failure came mid-write
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_atomic_write_writes_a_pipe_in_place(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
    reader.start()
    with atomic_write(pipe) as handle:
        handle.write("through the pipe\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == ["through the pipe\n"]
    assert pipe.is_fifo()
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]
