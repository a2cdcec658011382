"""The training run's workspace and what a training step allocates.

A step writes its n x n stages into one grow-only buffer per role. A role's
buffer is lent once until the tape is next cleared, since the step's vjp
closures hold it until then, and only while the tape records, so that no
inference result is workspace memory. No ``MoleculeData`` keeps an n x n
array, and after its first step a training run allocates none.
"""

import random
import tracemalloc

import numpy as np
import pytest
import read_path_oracle
from chain_oracle import assert_same_bits
from loss_oracle import bond_adjacency

import moltiers.autodiff as ad
from moltiers import models, train
from moltiers.models import (
    MoleculeData,
    TieredGaeParams,
    TieredVgaeParams,
    decode,
    encode_tiered,
    gae_loss,
    gaussian_noise,
    mean_edge_auc,
    vgae_losses,
)
from moltiers.smiles import parse_smiles
from moltiers.train import TrainConfig, train_gae, train_vgae

ROLES = 6  # the atom propagator, the probabilities, the decoder's two and the loss's two


def gradients(params, loss):
    value = loss.values.copy()
    ad.backward(loss)
    grads = [tensor.grad for tensor in params.trainable()]
    for tensor in params.trainable():
        tensor.grad = None
    return [value, *grads]


def two_passes(params, molecules):
    """VGAE passes over two molecules on one tape, then one backward through
    both: each pass's loss and the gradient of their sum."""
    rng = np.random.default_rng(3)
    first, second = (ad.add(*vgae_losses(params, data, gaussian_noise(rng))) for data in molecules)
    return [first.values.copy(), second.values.copy()] + gradients(params, ad.add(first, second))


def test_no_buffer_is_lent_twice_while_the_tape_holds_it(monkeypatch, backbone_data):
    data = backbone_data[0]
    params = TieredVgaeParams.init(np.random.default_rng(0))
    expected = two_passes(params, backbone_data[:2])
    lent, scratch = [], ad.scratch

    def recording(role, shape):
        lent.append((role, scratch(role, shape)))
        return lent[-1][1]

    monkeypatch.setattr(ad, "scratch", recording)
    with ad.Workspace(backbone_data[1].num_atoms ** 2) as workspace:
        for value, expected_value in zip(two_passes(params, backbone_data[:2]), expected, strict=True):
            assert_same_bits(value, expected_value)
        # the first pass borrowed each role once; the second, with the
        # tape still holding the first, got fresh arrays
        held = [np.shares_memory(out, workspace.buffers[role]) for role, out in lent]
        assert len({role for role, _ in lent}) == ROLES
        assert held == [True] * ROLES + [False] * ROLES
        for k, (_, buffer) in enumerate(lent):
            assert not any(np.shares_memory(buffer, other) for _, other in lent[k + 1 :])
        # the tape cleared, the next pass borrows the same memory again
        del lent[:]
        ad.backward(ad.add(*vgae_losses(params, data, gaussian_noise(np.random.default_rng(4)))))
        assert all(np.shares_memory(buffer, workspace.buffers[role]) for role, buffer in lent)
        assert len(lent) == ROLES and workspace.lent == set()


def test_inference_under_no_grad_returns_no_workspace_memory(backbone_data):
    params = TieredGaeParams.init(np.random.default_rng(1))
    with ad.Workspace(max(data.num_atoms for data in backbone_data) ** 2) as workspace:
        ad.backward(gae_loss(params, backbone_data[0]))
        assert len(workspace.buffers) == ROLES
        with ad.no_grad():
            for data in backbone_data:
                embeddings = encode_tiered(params, data)
                outputs = [embeddings.node, embeddings.group, embeddings.graph]
                outputs += [*decode(params, embeddings), data.atom_propagator()]
                for output in outputs:
                    for buffer in workspace.buffers.values():
                        assert not np.shares_memory(output.values, buffer)
            assert workspace.lent == set()
            mean_edge_auc(params, backbone_data)
        assert workspace.lent == set()


def test_molecule_data_keeps_no_array_of_n_squared_entries(perfbench_gen):
    text = perfbench_gen.backbone(random.Random(1), 150, 15, count_hydrogens=True)
    data = MoleculeData.from_graph(parse_smiles(text, name="backbone-150"))
    n = data.num_atoms
    assert 140 <= n <= 160
    params = TieredGaeParams.init(np.random.default_rng(2))
    ad.backward(gae_loss(params, data))  # builds the cached loss weights
    mean_edge_auc(params, [data])
    for name, value in vars(data).items():
        values = value.values if isinstance(value, ad.Tensor) else value
        if isinstance(values, np.ndarray):
            assert values.size < n * n, name
    assert_same_bits(bond_adjacency(data.ends, n), read_path_oracle.adjacency(data.graph))


@pytest.mark.parametrize("run", [train_gae, train_vgae])
def test_a_training_run_allocates_no_n_by_n_array_after_its_first_step(monkeypatch, backbone_data, run):
    """Traced memory never rises by one n x n array above a step's start,
    from the second step on. Narrow tiers keep the step's n x d arrays
    smaller than that."""
    data = backbone_data[2]
    rises, starts = [], []

    def measured(loss):
        def step(*args, **kwargs):
            if starts:
                rises.append(tracemalloc.get_traced_memory()[1] - starts[-1])
            tracemalloc.reset_peak()
            starts.append(tracemalloc.get_traced_memory()[0])
            return loss(*args, **kwargs)

        return step

    monkeypatch.setattr(train, "gae_loss", measured(gae_loss))
    monkeypatch.setattr(train, "vgae_losses", measured(vgae_losses))
    tracemalloc.start()
    try:
        run([data], TrainConfig(dims=(2, 2, 2), depth=1, epochs=4))
    finally:
        tracemalloc.stop()
    n_by_n = data.num_atoms**2 * 8
    assert len(rises) == 3
    assert max(rises[1:]) < n_by_n, (rises, n_by_n)
