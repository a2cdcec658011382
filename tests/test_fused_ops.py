"""Fused tape ops against the primitive chains they replaced.

Each fused op in ``moltiers.autodiff`` is one tape record that must give its
chain's value and every input gradient bit for bit (``tests/chain_oracle.py``
keeps the chains), including when an input already holds a gradient from a
later record, where the order of accumulation shows. Training with the
chains swapped back in must give the same trace and parameters.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from chain_oracle import (
    chain_bilinear_sigmoid,
    chain_exp_clamped_linear,
    chain_gcn_layer,
    chain_kl_standard_normal,
    chain_reparameterize,
    reduce_sum,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import moltiers.autodiff as ad
from moltiers.autodiff import ShapeError
from moltiers.models import (
    TieredGaeParams,
    TieredVgaeParams,
    decode,
    elbo,
    encode_tiered,
    encode_tiered_variational,
    gae_loss,
    gaussian_noise,
    vgae_losses,
)
from moltiers.train import TrainConfig, train_gae, train_vgae

CHAINS = {
    "gcn_layer": chain_gcn_layer,
    "exp_clamped_linear": chain_exp_clamped_linear,
    "reparameterize": chain_reparameterize,
    "kl_standard_normal": chain_kl_standard_normal,
    "bilinear_sigmoid": chain_bilinear_sigmoid,
}


def _draw_array(rng, shape, scale=1.0):
    # normal entries times ``scale``, with some exact zeros
    values = rng.standard_normal(shape) * scale
    return np.where(rng.random(shape) < 0.15, 0.0, values)


def _case(draw, rng, arrays, out_shape, args=()):
    """A call of an op on ``arrays``: which inputs are tracked (at least
    one), weights that turn its output into a scalar loss, and optionally a
    tracked input that a later record also reads."""
    tracked = draw(st.lists(st.booleans(), min_size=len(arrays), max_size=len(arrays)).filter(any))
    later = draw(st.none() | st.sampled_from([i for i, t in enumerate(tracked) if t]))
    return SimpleNamespace(
        arrays=arrays,
        tracked=tracked,
        args=args,
        out_weights=rng.standard_normal(out_shape),
        later=None if later is None else (later, rng.standard_normal(arrays[later].shape)),
    )


def _rng(draw):
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _size(draw):
    return draw(st.integers(1, 6))


@st.composite
def gcn_cases(draw):
    rng = _rng(draw)
    n, d_in, d_out = _size(draw), _size(draw), _size(draw)
    arrays = [
        np.abs(_draw_array(rng, (n, n))),
        _draw_array(rng, (n, d_in)),
        _draw_array(rng, (d_in, d_out)),
    ]
    return _case(draw, rng, arrays, (n, d_out), (draw(st.booleans()),))


@st.composite
def exp_clamped_cases(draw):
    rng = _rng(draw)
    n, d, k = _size(draw), _size(draw), _size(draw)
    scale = draw(st.sampled_from([0.3, 3.0, 30.0]))  # the larger ones reach the clamp
    bound = draw(st.sampled_from([0.5, 3.0, 10.0]))
    arrays = [_draw_array(rng, (n, d)), _draw_array(rng, (d, k), scale)]
    return _case(draw, rng, arrays, (n, k), (-bound, bound))


@st.composite
def sample_cases(draw):
    rng = _rng(draw)
    shape = (_size(draw), _size(draw))
    arrays = [_draw_array(rng, shape), np.exp(_draw_array(rng, shape))]
    return _case(draw, rng, arrays, shape, (_draw_array(rng, shape),))


@st.composite
def kl_cases(draw):
    rng = _rng(draw)
    shape = (_size(draw), _size(draw))
    # log-std spreads of 10 and 20 put some variances under LOG_FLOOR
    spread = draw(st.sampled_from([1.0, 10.0, 20.0]))
    arrays = [_draw_array(rng, shape, 3.0), np.exp(_draw_array(rng, shape, spread))]
    return _case(draw, rng, arrays, (1, 1))


@st.composite
def bilinear_cases(draw):
    rng = _rng(draw)
    n, d = _size(draw), _size(draw)
    scale = draw(st.sampled_from([0.3, 3.0, 30.0]))  # the larger ones saturate
    arrays = [_draw_array(rng, (n, d), scale), _draw_array(rng, (d, d))]
    return _case(draw, rng, arrays, (n, n))


def _run(op, case):
    """(records, value, input gradients) of sum(weights * op(...)), plus
    sum(S * input) recorded afterwards when the case has a later use."""
    inputs = [ad.parameter(a) if t else ad.constant(a) for a, t in zip(case.arrays, case.tracked)]
    before = ad.tape_size()
    out = op(*inputs, *case.args)
    records = ad.tape_size() - before
    loss = reduce_sum(ad.mul(out, ad.constant(case.out_weights)))
    if case.later is not None:
        index, weights = case.later
        loss = ad.add(loss, reduce_sum(ad.mul(inputs[index], ad.constant(weights))))
    ad.backward(loss)
    return records, out.values, [tensor.grad for tensor in inputs]


def assert_matches_chain(name, case):
    records, value, grads = _run(getattr(ad, name), case)
    _, chain_value, chain_grads = _run(CHAINS[name], case)
    assert records == 1
    assert np.array_equal(value, chain_value)
    for grad, chain_grad in zip(grads, chain_grads):
        assert (grad is None) == (chain_grad is None)
        if grad is not None:
            assert np.array_equal(grad, chain_grad)


@given(gcn_cases())
def test_gcn_layer_matches_its_chain(case):
    # covers an untracked H (the atom tier's first layer) and relu on and off
    assert_matches_chain("gcn_layer", case)


@given(exp_clamped_cases())
def test_exp_clamped_linear_matches_its_chain(case):
    assert_matches_chain("exp_clamped_linear", case)


@given(sample_cases())
def test_reparameterize_matches_its_chain(case):
    assert_matches_chain("reparameterize", case)


@given(kl_cases())
def test_kl_standard_normal_matches_its_chain(case):
    assert_matches_chain("kl_standard_normal", case)


@given(bilinear_cases())
def test_bilinear_sigmoid_matches_its_chain(case):
    assert_matches_chain("bilinear_sigmoid", case)


def test_fused_ops_check_shapes():
    m = ad.parameter(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="gcn layer"):
        ad.gcn_layer(ad.constant(np.eye(2)), m, ad.parameter(np.ones((2, 2))), relu=True)
    with pytest.raises(ShapeError, match="matmul"):
        ad.exp_clamped_linear(m, ad.parameter(np.ones((2, 2))), -1.0, 1.0)
    with pytest.raises(ValueError, match="low < high"):
        ad.exp_clamped_linear(m, ad.parameter(np.ones((3, 2))), 1.0, 1.0)
    with pytest.raises(ShapeError, match="sample"):
        ad.reparameterize(m, ad.parameter(np.ones((1, 1))), np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="differ"):
        ad.kl_standard_normal(m, ad.parameter(np.ones((3, 2))))
    with pytest.raises(ShapeError, match="bilinear"):
        ad.bilinear_sigmoid(m, ad.parameter(np.ones((3, 2))))
    assert ad.tape_size() == 0


@pytest.mark.parametrize("train", [train_gae, train_vgae])
def test_training_with_the_chains_is_bit_identical(monkeypatch, corpus_data, train):
    config = TrainConfig(epochs=2, seed=5)
    params, trace = train(corpus_data, config)
    for name, chain in CHAINS.items():
        monkeypatch.setattr(ad, name, chain)
    chain_params, chain_trace = train(corpus_data, config)
    assert trace == chain_trace
    for tensor, chain_tensor in zip(params.trainable(), chain_params.trainable()):
        assert np.array_equal(tensor.values, chain_tensor.values)


def test_a_step_records_23_gae_and_39_vgae_ops(corpus_data):
    # default config and the training loop's objective; the primitive chains
    # recorded 40 and 83
    config = TrainConfig()
    rng = np.random.default_rng(0)
    params = TieredGaeParams.init(rng, config.dims, config.depth)
    vparams = TieredVgaeParams.init(rng, config.dims, config.depth)
    for data in corpus_data:
        loss = gae_loss(params, data)
        assert ad.tape_size() == 23
        ad.backward(loss)
        recon, kl_total = vgae_losses(vparams, data, gaussian_noise(rng))
        objective = ad.add(recon, ad.scale(kl_total, config.beta))
        assert ad.tape_size() == 39
        ad.backward(objective)


# Central differences lose accuracy to round-off as the step shrinks and to
# truncation and relu kinks as it grows; a gradient passes when one of these
# steps confirms it.
GRAD_CHECK_STEPS = (1e-5, 1e-4, 1e-3)
MAX_LOGIT = 14.0


@settings(max_examples=5)
@given(
    molecule=st.integers(0, 29),
    dims=st.tuples(st.integers(3, 6), st.integers(3, 6), st.integers(3, 6)),
    depth=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@pytest.mark.parametrize("variational", [False, True])
def test_full_loss_gradients_match_finite_differences(
    corpus_data, variational, molecule, dims, depth, seed
):
    """``grad_check`` below 1e-4 for every weight of ``gae_loss`` and of
    ``elbo`` with frozen noise, on a corpus molecule at an untrained init.

    Excluded: widths 1-2 (an untrained VGAE's KL reaches 1e8 there, so the
    loss's round-off swamps most gradient entries), and inits whose decoder
    puts an edge logit the loss reads beyond +-MAX_LOGIT, that is, an edge
    probability within 1e-6 of 0 or 1. There ``1 - p`` has lost six or more
    digits to cancellation, which finite differences cannot see past; past
    +-27.6 the log floor and past +-30 the sigmoid clamp make the loss flat
    while the vjps still pass a gradient on. About half the VGAE inits at
    widths 3-6 start saturated like that.
    """
    data = corpus_data[molecule]
    rng = np.random.default_rng(seed)
    kind = TieredVgaeParams if variational else TieredGaeParams
    params = kind.init(rng, dims, depth)
    shapes = [(data.num_atoms, dims[0]), (data.num_groups, dims[1]), (1, dims[2])]
    draws = [rng.standard_normal(shape) for shape in shapes]
    calls = []

    def frozen_noise(shape):
        draw = draws[len(calls) % 3]
        calls.append(shape)
        assert draw.shape == shape
        return draw

    with ad.no_grad():
        if variational:
            embeddings = encode_tiered_variational(params, data, frozen_noise)[0]
        else:
            embeddings = encode_tiered(params, data)
        probs = decode(params, embeddings)[0].values[~np.tri(data.num_atoms, dtype=bool)]
    limit = 1.0 / (1.0 + np.exp(MAX_LOGIT))
    assume(probs.min() > limit and 1.0 - probs.max() > limit)

    def loss(_tensor):
        return elbo(params, data, frozen_noise) if variational else gae_loss(params, data)

    for name, tensor in params.named_weights().items():
        assert any(ad.grad_check(loss, tensor, h) < 1e-4 for h in GRAD_CHECK_STEPS), name
