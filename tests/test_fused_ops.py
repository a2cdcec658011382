"""Fused tape ops against the chains of records they replaced.

Each fused op is one tape record that must give its chain's values and
every input gradient bit for bit (``tests/chain_oracle.py`` keeps the
chains), including when an input already holds a gradient from a later
record, where the order of accumulation shows, and when only some outputs
of a multi-output op are used. Training with the chains swapped back in
must give the same trace and parameters.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from chain_oracle import (
    assert_same_bits,
    bilinear_sigmoid,
    chain_bilinear_sigmoid,
    chain_edge_feature_loss,
    chain_exp_clamped_linear,
    chain_gcn_layer,
    chain_gcn_stack,
    chain_kl_standard_normal,
    chain_reparameterize,
    chain_tiered_decode,
    exp_clamped_linear,
    gcn_layer,
    mul,
    reduce_sum,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from loss_oracle import bond_adjacency, bond_index, chain_reconstruction_loss

import moltiers.autodiff as ad
from moltiers import models
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
    zero_noise,
)
from moltiers.train import NonFiniteLossError, TrainConfig, train_gae, train_vgae

# the fused ops the models call, each with the chain it replaced
CHAINS = {
    "gcn_stack": chain_gcn_stack,
    "reparameterize": chain_reparameterize,
    "kl_standard_normal": chain_kl_standard_normal,
    "tiered_decode": chain_tiered_decode,
    "edge_feature_loss": chain_edge_feature_loss,
}


def _draw_array(rng, shape, scale=1.0):
    # normal entries times ``scale``, with some exact zeros
    values = rng.standard_normal(shape) * scale
    return np.where(rng.random(shape) < 0.15, 0.0, values)


def _case(draw, rng, arrays, out_shapes, args=(), call=None):
    """A call of an op on ``arrays``: which inputs are tracked (at least
    one), weights that turn the outputs used (at least one) into a scalar
    loss, and optionally a tracked input that a later record also reads.
    ``call(op, inputs)`` runs the op; by default on ``*inputs, *args``."""
    tracked = draw(st.lists(st.booleans(), min_size=len(arrays), max_size=len(arrays)).filter(any))
    later = draw(st.none() | st.sampled_from([i for i, t in enumerate(tracked) if t]))
    used = draw(
        st.lists(st.booleans(), min_size=len(out_shapes), max_size=len(out_shapes)).filter(any)
    )
    return SimpleNamespace(
        arrays=arrays,
        tracked=tracked,
        call=call or (lambda op, inputs: op(*inputs, *args)),
        out_weights=[rng.standard_normal(s) if u else None for s, u in zip(out_shapes, used)],
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
    return _case(draw, rng, arrays, [(n, d_out)], (draw(st.booleans()),))


@st.composite
def exp_clamped_cases(draw):
    rng = _rng(draw)
    n, d, k = _size(draw), _size(draw), _size(draw)
    scale = draw(st.sampled_from([0.3, 3.0, 30.0]))  # the larger ones reach the clamp
    bound = draw(st.sampled_from([0.5, 3.0, 10.0]))
    arrays = [_draw_array(rng, (n, d)), _draw_array(rng, (d, k), scale)]
    return _case(draw, rng, arrays, [(n, k)], (-bound, bound))


@st.composite
def sample_cases(draw):
    rng = _rng(draw)
    shape = (_size(draw), _size(draw))
    arrays = [_draw_array(rng, shape), np.exp(_draw_array(rng, shape))]
    return _case(draw, rng, arrays, [shape], (_draw_array(rng, shape),))


@st.composite
def kl_cases(draw):
    rng = _rng(draw)
    shape = (_size(draw), _size(draw))
    # log-std spreads of 10 and 20 put some variances under LOG_FLOOR
    spread = draw(st.sampled_from([1.0, 10.0, 20.0]))
    arrays = [_draw_array(rng, shape, 3.0), np.exp(_draw_array(rng, shape, spread))]
    return _case(draw, rng, arrays, [(1, 1)])


@st.composite
def bilinear_cases(draw):
    rng = _rng(draw)
    n, d = _size(draw), _size(draw)
    scale = draw(st.sampled_from([0.3, 3.0, 30.0]))  # the larger ones saturate
    arrays = [_draw_array(rng, (n, d), scale), _draw_array(rng, (d, d))]
    return _case(draw, rng, arrays, [(n, n)])


@st.composite
def stack_cases(draw, unit=False):
    """A GAE (one head) or VGAE (mean and log-std heads) stack of depth 1-3
    over features, trunk and head weights; the propagator is a constant, with
    ``unit`` the molecule tier's: one row over [[1.0]]."""
    rng = _rng(draw)
    n, d_in, d = 1 if unit else _size(draw), _size(draw), _size(draw)
    depth, heads = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2]))
    scale = draw(st.sampled_from([0.3, 3.0, 30.0]))  # the larger ones reach the clamp
    bound = draw(st.sampled_from([0.5, 3.0, 10.0]))
    fan_in = [d_in] + [d] * (depth - 1)
    arrays = [_draw_array(rng, (n, d_in))]
    arrays += [_draw_array(rng, (rows, d), scale) for rows in fan_in[:-1]]
    arrays += [_draw_array(rng, (fan_in[-1], d), scale) for _ in range(heads)]
    propagator = np.ones((1, 1)) if unit else np.abs(_draw_array(rng, (n, n)))

    def call(op, inputs):
        return op(propagator, inputs[0], inputs[1:depth], inputs[depth:], bound)

    return _case(draw, rng, arrays, [(n, d)] * heads, call=call)


@st.composite
def padded_molecule_rows(draw):
    """A (B, 1, d) stack of molecule rows, some all zero as a padded batch's
    are, and the trunk and head weights of a stack of depth 1-3."""
    rng = _rng(draw)
    batch, d_in, d = draw(st.integers(1, 4)), _size(draw), _size(draw)
    depth, heads = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2]))
    scale = draw(st.sampled_from([0.3, 3.0, 30.0]))
    features = _draw_array(rng, (batch, 1, d_in))
    features[rng.random(batch) < 0.3] = 0.0
    fan_in = [d_in] + [d] * (depth - 1)
    trunk = [ad.constant(_draw_array(rng, (rows, d), scale)) for rows in fan_in[:-1]]
    head_weights = [ad.constant(_draw_array(rng, (fan_in[-1], d), scale)) for _ in range(heads)]
    return features, trunk, head_weights, draw(st.sampled_from([0.5, 3.0, 10.0]))


@st.composite
def decode_cases(draw):
    """Node, group and molecule rows, the pair and feature decoders; the
    broadcasts are constants."""
    rng = _rng(draw)
    n, groups, features = _size(draw), _size(draw), _size(draw)
    widths = [_size(draw) for _ in range(3)]
    scale = draw(st.sampled_from([0.3, 3.0, 30.0]))  # the larger ones saturate
    total = sum(widths)
    arrays = [_draw_array(rng, rows, scale) for rows in zip((n, groups, 1), widths)]
    arrays += [_draw_array(rng, (total, total)), _draw_array(rng, (total, features))]
    broadcasts = (rng.random((n, groups)), np.ones((n, 1)))
    return _case(
        draw,
        rng,
        arrays,
        [(n, n), (n, features)],
        call=lambda op, inputs: op(*inputs[:3], *broadcasts, *inputs[3:]),
    )


# floored (0, 1e-13, 1 - 1e-16, 1) and ordinary probabilities
EDGE_PROBABILITIES = (0.0, 1e-13, 0.3, 0.5, 1.0 - 1e-16, 1.0)


@st.composite
def loss_cases(draw):
    """Probabilities with floored extremes and a feature reconstruction
    against the bonds of a random graph, each (i, j) with i < j, an edge
    weight and the sum of the pair weights or 0."""
    rng = _rng(draw)
    n, width = _size(draw), _size(draw)
    ends = bond_index(rng.random((n, n)) < 0.4)
    pos_weight = float(rng.random() * 3.0)
    weights = np.triu(bond_adjacency(ends, n) * (pos_weight - 1.0) + 1.0, 1)
    total_weight = draw(st.sampled_from([float(weights.sum()), 0.0]))
    extremes = rng.choice(EDGE_PROBABILITIES, (n, n))
    probs = np.where(rng.random((n, n)) < 0.3, extremes, rng.random((n, n)))
    arrays = [probs, _draw_array(rng, (n, width))]
    feature_weight = draw(st.sampled_from([0.1, 1.0]))
    args = (ends, pos_weight, total_weight, _draw_array(rng, (n, width)), feature_weight)
    case = _case(draw, rng, arrays, [(1, 1)], args)
    # without edge weight a tracked reconstruction is the chain's only record
    assume(total_weight > 0 or case.tracked[1])
    return case


def _run(op, case):
    """(records, output values, input gradients) of the sum over used
    outputs of sum(weights * output), plus sum(S * input) recorded afterwards
    when the case has a later use."""
    inputs = [ad.parameter(a) if t else ad.constant(a) for a, t in zip(case.arrays, case.tracked)]
    before = ad.tape_size()
    outputs = case.call(op, inputs)
    outputs = outputs if isinstance(outputs, tuple) else (outputs,)
    records = ad.tape_size() - before
    terms = [
        reduce_sum(mul(out, ad.constant(weights)))
        for out, weights in zip(outputs, case.out_weights)
        if weights is not None
    ]
    if case.later is not None:
        index, weights = case.later
        terms.append(reduce_sum(mul(inputs[index], ad.constant(weights))))
    loss = terms[0]
    for term in terms[1:]:
        loss = ad.add(loss, term)
    ad.backward(loss)
    return records, [out.values for out in outputs], [tensor.grad for tensor in inputs]


def assert_matches_chain(op, chain, case, zero_for_none=()):
    """The op's one record has the chain's bits. A tracked input listed in
    ``zero_for_none`` that the chain leaves without a gradient must get an
    exact-zero gradient from the op."""
    records, values, grads = _run(op, case)
    _, chain_values, chain_grads = _run(chain, case)
    assert records == 1
    assert len(values) == len(chain_values)
    for value, chain_value in zip(values, chain_values):
        assert_same_bits(value, chain_value)
    for k, (grad, chain_grad) in enumerate(zip(grads, chain_grads)):
        if chain_grad is None and case.tracked[k] and k in zero_for_none:
            chain_grad = np.zeros(case.arrays[k].shape)
        assert (grad is None) == (chain_grad is None)
        if grad is not None:
            assert_same_bits(grad, chain_grad)


@given(stack_cases())
def test_gcn_stack_matches_its_chain(case):
    # GAE and VGAE heads, depth 1-3, features tracked or not, outputs used
    # singly or together
    assert_matches_chain(ad.gcn_stack, chain_gcn_stack, case)


@given(stack_cases(unit=True))
def test_gcn_stack_without_a_propagator_matches_the_unit_one(case):
    # the molecule tier, a graph of one node, runs with no propagator: the
    # outputs and every input gradient have the bits of [[1.0]]'s, with one
    # head or two and features tracked or not
    records, values, grads = _run(lambda _, *rest: ad.gcn_stack(None, *rest), case)
    unit_records, unit_values, unit_grads = _run(ad.gcn_stack, case)
    assert records == unit_records == 1
    for value, unit_value in zip(values, unit_values, strict=True):
        assert_same_bits(value, unit_value)
    for grad, unit_grad in zip(grads, unit_grads, strict=True):
        assert (grad is None) == (unit_grad is None)
        if grad is not None:
            assert_same_bits(grad, unit_grad)


@given(padded_molecule_rows())
def test_gcn_stack_without_a_propagator_matches_the_unit_one_over_a_padded_batch(rows):
    features, trunk, heads, bound = rows
    with ad.no_grad():
        outputs = ad.gcn_stack(None, ad.wrap(features), trunk, heads, bound)
        unit_outputs = ad.gcn_stack(np.ones((1, 1)), ad.wrap(features), trunk, heads, bound)
    assert len(outputs) == len(unit_outputs) == len(heads)
    for output, unit_output in zip(outputs, unit_outputs):
        assert output.shape == features.shape[:2] + (heads[0].shape[1],)
        assert_same_bits(output.values, unit_output.values)


@given(decode_cases())
def test_tiered_decode_matches_its_chain(case):
    assert_matches_chain(ad.tiered_decode, chain_tiered_decode, case)


@given(loss_cases())
def test_edge_feature_loss_matches_its_chain(case):
    # Without pair weight the chain's edge term is a constant, which leaves the
    # probabilities without a gradient; the op gives them an exact zero.
    assert_matches_chain(ad.edge_feature_loss, chain_edge_feature_loss, case, zero_for_none=(0,))


@given(sample_cases())
def test_reparameterize_matches_its_chain(case):
    assert_matches_chain(ad.reparameterize, chain_reparameterize, case)


@given(kl_cases())
def test_kl_standard_normal_matches_its_chain(case):
    assert_matches_chain(ad.kl_standard_normal, chain_kl_standard_normal, case)


# The earlier fused ops that the stack and decoder chains are made of,
# against their primitive chains.


@given(gcn_cases())
def test_gcn_layer_matches_its_chain(case):
    # covers an untracked H (the atom tier's first layer) and relu on and off
    assert_matches_chain(gcn_layer, chain_gcn_layer, case)


@given(exp_clamped_cases())
def test_exp_clamped_linear_matches_its_chain(case):
    assert_matches_chain(exp_clamped_linear, chain_exp_clamped_linear, case)


@given(bilinear_cases())
def test_bilinear_sigmoid_matches_its_chain(case):
    assert_matches_chain(bilinear_sigmoid, chain_bilinear_sigmoid, case)


def test_fused_ops_check_shapes():
    m = ad.parameter(np.ones((2, 3)))
    with pytest.raises(ValueError, match="gcn layer"):
        gcn_layer(ad.constant(np.eye(2)), m, ad.parameter(np.ones((2, 2))), relu=True)
    with pytest.raises(ValueError, match="matmul"):
        exp_clamped_linear(m, ad.parameter(np.ones((2, 2))), -1.0, 1.0)
    with pytest.raises(ValueError, match="low < high"):
        exp_clamped_linear(m, ad.parameter(np.ones((3, 2))), 1.0, 1.0)
    with pytest.raises(ValueError, match="sample"):
        ad.reparameterize(m, ad.parameter(np.ones((1, 1))), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="differ"):
        ad.kl_standard_normal(m, ad.parameter(np.ones((3, 2))))
    with pytest.raises(ValueError, match="bilinear"):
        bilinear_sigmoid(m, ad.parameter(np.ones((3, 2))))
    assert ad.tape_size() == 0


def _train_or_abort(train, data, config):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return train(data, config)
    except NonFiniteLossError as err:
        return str(err)


@pytest.mark.parametrize("train", [train_gae, train_vgae])
def test_training_with_the_chains_is_bit_identical(monkeypatch, corpus_data, train):
    configs = [
        TrainConfig(epochs=2, seed=5),
        TrainConfig(epochs=2, seed=5, optimizer="sgd"),
        TrainConfig(epochs=2, seed=5, depth=1, dims=(3, 4, 5)),
        TrainConfig(epochs=2, seed=5, depth=1, dims=(3, 4, 5), optimizer="sgd"),
    ]
    fused = [_train_or_abort(train, corpus_data, config) for config in configs]
    for name, chain in CHAINS.items():
        monkeypatch.setattr(ad, name, chain)
    for config, result in zip(configs, fused):
        chain_result = _train_or_abort(train, corpus_data, config)
        if isinstance(result, str):  # the same non-finite abort, same message
            assert result == chain_result, config
            continue
        (params, trace), (chain_params, chain_trace) = result, chain_result
        assert trace == chain_trace, config
        for tensor, chain_tensor in zip(params.trainable(), chain_params.trainable()):
            assert_same_bits(tensor.values, chain_tensor.values, config)


@pytest.mark.parametrize("variational", [False, True])
def test_workload_sized_steps_match_the_chains(monkeypatch, backbone_data, variational):
    """A whole training step on 100-190-atom molecules, where BLAS and numpy
    take other code paths than at the property tests' sizes: the loss and
    every parameter gradient byte for byte against the model with every
    fused op and the reconstruction loss swapped back to their chains."""
    kind = TieredVgaeParams if variational else TieredGaeParams
    params = kind.init(np.random.default_rng(7))

    def step(data):
        if variational:
            recon, kl_total = vgae_losses(params, data, gaussian_noise(np.random.default_rng(8)))
            loss = ad.add(recon, ad.scale(kl_total, 1.0))
        else:
            loss = gae_loss(params, data)
        value = loss.values.copy()
        ad.backward(loss)
        grads = [tensor.grad for tensor in params.trainable()]
        for tensor in params.trainable():
            tensor.grad = None
        return value, grads

    fused = [step(data) for data in backbone_data]
    for name, chain in CHAINS.items():
        monkeypatch.setattr(ad, name, chain)
    monkeypatch.setattr(models, "reconstruction_loss", chain_reconstruction_loss)
    for data, (value, grads) in zip(backbone_data, fused):
        chain_value, chain_grads = step(data)
        assert_same_bits(value, chain_value, data.name)
        for grad, chain_grad in zip(grads, chain_grads):
            assert_same_bits(grad, chain_grad, data.name)


def test_a_step_records_7_gae_and_17_vgae_ops(corpus_data):
    # default config and the training loop's objective: one record per tier
    # stack, pool, sample, tier KL and KL sum, the decoder, the loss and the
    # objective's two; the single-output fused ops recorded 23 and 39, the
    # primitive chains 40 and 83
    config = TrainConfig()
    rng = np.random.default_rng(0)
    params = TieredGaeParams.init(rng, config.dims, config.depth)
    vparams = TieredVgaeParams.init(rng, config.dims, config.depth)
    for data in corpus_data:
        loss = gae_loss(params, data)
        assert ad.tape_size() == 7
        ad.backward(loss)
        recon, kl_total = vgae_losses(vparams, data, gaussian_noise(rng))
        objective = ad.add(recon, ad.scale(kl_total, config.beta))
        assert ad.tape_size() == 17
        ad.backward(objective)


# Central differences lose accuracy to round-off as the step shrinks and to
# truncation and relu kinks as it grows; a gradient passes when one of these
# steps confirms it.
GRAD_CHECK_STEPS = (1e-5, 1e-4, 1e-3)
MAX_LOGIT = 14.0
KINK_MARGIN = max(GRAD_CHECK_STEPS)


def _trunk_pre_activations(params, data, noise) -> np.ndarray:
    """Every relu input of the three encoder trunks, flattened, as
    ``gcn_stack`` computes them for one molecule."""
    pre_activations = [np.zeros(0)]
    gcn_stack = ad.gcn_stack

    def recording(propagator, features, trunk, heads, log_std_clamp):
        hidden = features.values
        for weight in trunk:
            pre = (hidden if propagator is None else propagator @ hidden) @ weight.values
            pre_activations.append(pre.ravel())
            hidden = np.where(pre > 0.0, pre, 0.0)
        return gcn_stack(propagator, features, trunk, heads, log_std_clamp)

    with pytest.MonkeyPatch.context() as patch, ad.no_grad():
        patch.setattr(ad, "gcn_stack", recording)
        if params.variational:
            encode_tiered_variational(params, data, noise)
        else:
            encode_tiered(params, data)
    return np.concatenate(pre_activations)


def _near_relu_kink(params, data, noise) -> bool:
    """Whether a nonzero trunk pre-activation lies within KINK_MARGIN of 0.
    Exact zeros are rows whose whole neighbourhood is already dead; they stay
    0 under any small weight change."""
    magnitudes = np.abs(_trunk_pre_activations(params, data, noise))
    return bool(((magnitudes > 0.0) & (magnitudes < KINK_MARGIN)).any())


@settings(max_examples=5, derandomize=True, database=None)
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
    The draws are pinned, so every run checks the same examples.

    Excluded: widths 1-2 (an untrained VGAE's KL reaches 1e8 there, so the
    loss's round-off swamps most gradient entries), and inits whose decoder
    puts an edge logit the loss reads beyond +-MAX_LOGIT, that is, an edge
    probability within 1e-6 of 0 or 1. There ``1 - p`` has lost six or more
    digits to cancellation, which finite differences cannot see past; past
    +-27.6 the log floor and past +-30 the sigmoid clamp make the loss flat
    while the vjps still pass a gradient on. About half the VGAE inits at
    widths 3-6 start saturated like that. Also excluded, about one init in
    ten: a trunk relu input within KINK_MARGIN, the largest step, of 0,
    where every step may cross the kink.
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

    assume(not _near_relu_kink(params, data, frozen_noise))
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


# Near-dead GAE inits, (molecule, dims, depth, seed): every edge logit lies
# within +-0.1, and some gradient entries are nonzero but below 1e-8.
# ``grad_check`` at its default step reads 9.4e-4, 6.5e-4, 9.5e-4 and 6.0e-4
# on them, each worst at a ``decoder.pair`` entry of 7e-10 to 1.1e-8.
NEAR_DEAD_INITS = [
    ("acetic-acid", (3, 4, 4), 2, 48),
    ("glyceric-acid", (6, 5, 5), 3, 59),
    ("crotonaldehyde", (3, 5, 5), 2, 69),
    ("chloroacetic-acid", (5, 3, 5), 3, 150),
]
SWEEP_STEPS = (1e-3, 1e-4, 1e-5, 1e-6)


@pytest.mark.parametrize("molecule, dims, depth, seed", NEAR_DEAD_INITS)
def test_an_h_sweep_confirms_gradient_entries_below_the_grad_check_floor(
    corpus_data, molecule, dims, depth, seed
):
    """A central difference at step h carries round-off of about
    eps * |loss| / h, 1e-11 at ``grad_check``'s default 1e-5, which swamps
    entries below its relative error's 1e-8 floor. Here each nonzero entry
    below that floor must agree with the estimate at every step of the sweep
    to 1e-4 of itself plus 4 eps * |loss| / h. At h = 1e-3 that bound is
    about 1e-12, so the largest step resolves the entries; no relu input
    lies within it of the kink."""
    data = next(data for data in corpus_data if data.name == molecule)
    params = TieredGaeParams.init(np.random.default_rng(seed), dims, depth)
    with ad.no_grad():
        probs = decode(params, encode_tiered(params, data))[0].values
    assert np.abs(np.log(probs / (1.0 - probs))).max() < 0.1
    assert not _near_relu_kink(params, data, None)

    loss = gae_loss(params, data)
    round_off = 4.0 * np.finfo(np.float64).eps * abs(loss.item())
    ad.backward(loss)
    checked = 0
    for name, tensor in params.named_weights().items():
        analytic, tensor.grad = tensor.grad, None
        for index in zip(*np.nonzero((analytic != 0.0) & (np.abs(analytic) < 1e-8))):
            estimates = []
            with ad.no_grad():
                for h in SWEEP_STEPS:
                    original = tensor.values[index]
                    tensor.values[index] = original + h
                    high = gae_loss(params, data).item()
                    tensor.values[index] = original - h
                    low = gae_loss(params, data).item()
                    tensor.values[index] = original
                    estimates.append((high - low) / (2.0 * h))
            expected = analytic[index]
            assert all(
                abs(expected - numeric) <= 1e-4 * abs(expected) + round_off / h
                for h, numeric in zip(SWEEP_STEPS, estimates)
            ), (name, index, expected, estimates)
            checked += 1
    assert checked > 0


def test_the_kink_guard_excludes_a_draw_that_fails_every_step(corpus_data):
    # A tier-1 trunk pre-activation 1.4e-6 from 0: ``tier1.trunk0``'s relative
    # errors read 0.50, 0.71 and 0.73 at the three steps, while h = 1e-6
    # agrees with the analytic gradient to 3e-9.
    params = TieredVgaeParams.init(np.random.default_rng(53226), (6, 3, 3), 2)
    pre = np.abs(_trunk_pre_activations(params, corpus_data[0], zero_noise))
    assert 1e-6 < pre[pre > 0].min() < 2e-6
    assert _near_relu_kink(params, corpus_data[0], zero_noise)
