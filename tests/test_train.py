"""The training loop: determinism, small-corpus convergence, trace CSV format."""

import math

import numpy as np
import pytest
import train_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moltiers.autodiff as ad
from moltiers import models
from moltiers.models import MoleculeData
from moltiers.smiles import parse_smiles
from moltiers.train import (
    NonFiniteLossError,
    TrainConfig,
    VgaeEpoch,
    gae_trace_csv,
    train_gae,
    train_vgae,
    vgae_trace_csv,
)

TINY_SMILES = ["CO", "C=O", "OC=O"]


@pytest.fixture(scope="module")
def tiny_dataset():
    return [MoleculeData.from_graph(parse_smiles(s)) for s in TINY_SMILES]


def tiny_config(**overrides):
    base = dict(dims=(4, 4, 4), depth=2, epochs=5, seed=1)
    base.update(overrides)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="three positive integers"):
        TrainConfig(dims=(4, 4))
    with pytest.raises(ValueError, match="depth"):
        TrainConfig(depth=0)
    with pytest.raises(ValueError, match="learning rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError, match="optimizer"):
        TrainConfig(optimizer="lbfgs")
    with pytest.raises(ValueError, match="beta"):
        TrainConfig(beta=-0.5)
    with pytest.raises(ValueError, match="feature weight"):
        TrainConfig(feature_weight=-1.0)
    # dims entries are coerced to int so CLI strings round-trip
    assert TrainConfig(dims=[8, 8, 8]).dims == (8, 8, 8)


def test_empty_dataset_rejected():
    with pytest.raises(ValueError, match="empty"):
        train_gae([], tiny_config())
    with pytest.raises(ValueError, match="empty"):
        train_vgae([], tiny_config())


def test_zero_epochs_returns_initial_params(tiny_dataset):
    params, trace = train_gae(tiny_dataset, tiny_config(epochs=0))
    assert trace == []
    assert len(params.trainable()) > 0
    vparams, vtrace = train_vgae(tiny_dataset, tiny_config(epochs=0))
    assert vtrace == []


def test_gae_training_reduces_loss(tiny_dataset):
    params, trace = train_gae(tiny_dataset, tiny_config(epochs=40))
    assert len(trace) == 40
    assert all(math.isfinite(v) for v in trace)
    assert trace[-1] < trace[0]


def test_gae_training_is_deterministic(tiny_dataset):
    _, first = train_gae(tiny_dataset, tiny_config(epochs=8))
    _, second = train_gae(tiny_dataset, tiny_config(epochs=8))
    assert first == second  # float-for-float, not approximately


def test_seed_changes_the_trace(tiny_dataset):
    _, a = train_gae(tiny_dataset, tiny_config(epochs=5, seed=1))
    _, b = train_gae(tiny_dataset, tiny_config(epochs=5, seed=2))
    assert a != b


def test_optimizers_produce_different_traces(tiny_dataset):
    _, adam = train_gae(tiny_dataset, tiny_config(epochs=5, optimizer="adam"))
    _, sgd = train_gae(tiny_dataset, tiny_config(epochs=5, optimizer="sgd"))
    assert adam != sgd


def test_pair_decoder_stays_symmetric_through_training(tiny_dataset):
    params, _ = train_gae(tiny_dataset, tiny_config(epochs=3))
    values = params.pair_decoder.values
    assert np.array_equal(values, values.T)
    vparams, _ = train_vgae(tiny_dataset, tiny_config(epochs=3))
    values = vparams.pair_decoder.values
    assert np.array_equal(values, values.T)


def test_divergent_learning_rate_raises_with_context(tiny_dataset):
    config = tiny_config(epochs=30, learning_rate=1e12, optimizer="sgd")
    for train in (train_gae, train_vgae):
        with pytest.raises(NonFiniteLossError) as err, np.errstate(over="ignore", invalid="ignore"):
            train(tiny_dataset, config)
        assert err.value.epoch >= 1
        assert isinstance(err.value.molecule, str)
        assert "non-finite loss at epoch" in str(err.value)
        # the aborted step's forward records must not leak into the next run
        assert ad.tape_size() == 0


@pytest.mark.parametrize("train", [train_gae, train_vgae])
def test_any_failed_step_leaves_the_tape_empty(monkeypatch, tiny_dataset, train):
    # an error that is not a non-finite loss, raised mid-forward with the
    # encoder's records already on the tape
    calls = []
    decode = models.decode

    def failing_decode(params, embeddings):
        calls.append(embeddings.data.name)
        if len(calls) == 2:
            raise RuntimeError("decoder failed")
        return decode(params, embeddings)

    monkeypatch.setattr(models, "decode", failing_decode)
    with pytest.raises(RuntimeError, match="decoder failed"):
        train(tiny_dataset, tiny_config())
    assert len(calls) == 2
    assert ad.tape_size() == 0


def test_vgae_training_improves_elbo(tiny_dataset):
    _, trace = train_vgae(tiny_dataset, tiny_config(epochs=40))
    assert len(trace) == 40
    assert trace[-1].elbo > trace[0].elbo
    assert all(row.kl >= 0.0 for row in trace)


def test_vgae_training_is_deterministic(tiny_dataset):
    _, first = train_vgae(tiny_dataset, tiny_config(epochs=6))
    _, second = train_vgae(tiny_dataset, tiny_config(epochs=6))
    assert [(r.elbo, r.kl) for r in first] == [(r.elbo, r.kl) for r in second]


def test_beta_zero_ignores_kl_in_reported_elbo(tiny_dataset):
    _, trace = train_vgae(tiny_dataset, tiny_config(epochs=3, beta=0.0))
    # with beta 0 the reported ELBO is just the negative reconstruction loss
    assert all(row.elbo <= 0.0 for row in trace)
    assert all(row.kl >= 0.0 for row in trace)


def test_gae_trace_csv_format():
    text = gae_trace_csv([0.5, 0.25])
    assert text == f"epoch,loss\n1,{0.5!r}\n2,{0.25!r}\n"
    assert gae_trace_csv([]) == "epoch,loss\n"


def test_vgae_trace_csv_format():
    text = vgae_trace_csv([VgaeEpoch(-1.5, 0.75)])
    assert text == f"epoch,elbo,kl\n1,{-1.5!r},{0.75!r}\n"
    assert vgae_trace_csv([]) == "epoch,elbo,kl\n"


def test_trace_csv_round_trips_through_repr():
    # repr keeps every bit of the float, so parsing the CSV recovers the
    # trace exactly
    values = [1.0 / 3.0, 2.0 / 7.0, 1e-17]
    text = gae_trace_csv(values)
    rows = text.strip().splitlines()[1:]
    parsed = [float(line.split(",")[1]) for line in rows]
    assert parsed == values


def _run(train, dataset, config):
    """(trace as float bits, trained weights), or the abort's epoch,
    molecule, ``in_gradient`` and message."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            params, trace = train(dataset, config)
    except NonFiniteLossError as err:
        return "aborted", (err.epoch, err.molecule, err.in_gradient, str(err))
    rows = [[row] if isinstance(row, float) else [row.elbo, row.kl] for row in trace]
    bits = [[value.hex() for value in row] for row in rows]
    weights = {name: w.values.tobytes() for name, w in params.named_weights().items()}
    return bits, weights


@settings(max_examples=100)
@given(
    variational=st.booleans(),
    optimizer=st.sampled_from(["adam", "sgd"]),
    depth=st.integers(1, 3),
    dims=st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
    beta=st.sampled_from([0.0, 0.5, 1.0]),
    epochs=st.integers(0, 6),
    learning_rate=st.sampled_from([0.01, 0.1]),
    seed=st.integers(0, 2**32 - 1),
    molecules=st.lists(st.integers(0, 29), min_size=1, max_size=3),
)
# more than eight molecules, where a 2-D np.mean would sum in another order
@example(True, "adam", 2, (3, 3, 3), 1.0, 2, 0.01, 1, list(range(12)))
# the shared loop and the oracle must abort alike: epoch 1, bromoacetic acid
@example(True, "sgd", 1, (3, 4, 5), 1.0, 15, 0.01, 3, [0, 1, 2, 3, 4])
def test_the_shared_loop_matches_the_separate_loops(
    corpus_data, variational, optimizer, depth, dims, beta, epochs, learning_rate, seed, molecules
):
    config = TrainConfig(
        dims=dims, depth=depth, learning_rate=learning_rate, epochs=epochs, seed=seed,
        optimizer=optimizer, beta=beta,
    )
    dataset = [corpus_data[i] for i in molecules]
    if variational:
        oracle, shared = train_oracle.train_vgae, train_vgae
    else:
        oracle, shared = train_oracle.train_gae, train_gae
    assert _run(shared, dataset, config) == _run(oracle, dataset, config)
