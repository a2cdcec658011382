import numpy as np
import pytest
from chain_oracle import mul, reduce_sum
from hypothesis import given
from hypothesis import strategies as st
from optim_oracle import OracleAdam, OracleSGD

import moltiers.autodiff as ad
from moltiers import train as train_module
from moltiers.optim import SGD, Adam, NonFiniteGradientError
from moltiers.train import NonFiniteLossError, TrainConfig, train_gae, train_vgae

ORACLES = {SGD: OracleSGD, Adam: OracleAdam}


def make_param(values):
    return ad.parameter(np.array(values, dtype=np.float64))


def test_sgd_definition():
    w = make_param([[1.0]])
    w.grad = np.array([[1.0]])
    SGD([w], learning_rate=0.1).step()
    assert w.values[0, 0] == pytest.approx(0.9)


@pytest.mark.parametrize("optimizer", [SGD, Adam])
@pytest.mark.parametrize("learning_rate", [0.0, -0.1, float("nan"), float("inf")])
def test_learning_rate_must_be_positive_and_finite(optimizer, learning_rate):
    with pytest.raises(ValueError, match="learning rate must be positive and finite"):
        optimizer([make_param([[1.0]])], learning_rate=learning_rate)


def test_sgd_updates_in_place_and_clears_grad():
    w = make_param([[2.0, -2.0]])
    opt = SGD([w], learning_rate=0.5)
    buf = w.values
    w.grad = np.array([[1.0, -1.0]])
    opt.step()
    assert w.values is buf
    assert np.array_equal(w.values, [[1.5, -1.5]])
    assert w.grad is None


def test_step_without_gradient_fails():
    w = make_param([[1.0]])
    opt = SGD([w], learning_rate=0.1)
    with pytest.raises(RuntimeError, match="sgd step: parameter 0 has no gradient"):
        opt.step()


def test_adam_first_step_closed_form():
    # bias-corrected first step: w -= lr * g / (|g| + eps)
    lr, eps = 0.01, 1e-8
    g = np.array([[0.3, -2.0, 0.001]])
    w = make_param([[1.0, 1.0, 1.0]])
    w.grad = g.copy()
    Adam([w], learning_rate=lr).step()
    expected = 1.0 - lr * g / (np.abs(g) + eps)
    assert np.allclose(w.values, expected, atol=1e-12)


def test_adam_second_step_matches_reference():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    grads = [np.array([[0.5]]), np.array([[-0.25]])]
    w = make_param([[0.0]])
    opt = Adam([w], learning_rate=lr)
    m = v = 0.0
    ref = 0.0
    for t, g in enumerate(grads, start=1):
        w.grad = g.copy()
        opt.step()
        m = b1 * m + (1 - b1) * g[0, 0]
        v = b2 * v + (1 - b2) * g[0, 0] ** 2
        ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    assert w.values[0, 0] == pytest.approx(ref, abs=1e-14)


def test_adam_state_is_per_parameter():
    a = make_param([[1.0]])
    b = make_param([[1.0]])
    opt = Adam([a, b], learning_rate=0.1)
    a.grad = np.array([[1.0]])
    b.grad = np.array([[-1.0]])
    opt.step()
    assert a.values[0, 0] < 1.0 < b.values[0, 0]


def test_optimizers_converge_on_quadratic():
    for opt_cls in (SGD, Adam):
        w = make_param([[5.0]])
        opt = opt_cls([w], learning_rate=0.1)
        for _ in range(200):
            loss = reduce_sum(mul(w, w))
            ad.backward(loss)
            opt.step()
        assert abs(w.values[0, 0]) < 1e-2, opt_cls.__name__


def test_parameters_become_views_of_one_vector():
    a = make_param([[1.0, 2.0], [3.0, 4.0]])
    b = make_param([[5.0, 6.0, 7.0]])
    opt = Adam([a, b], learning_rate=0.1)
    assert np.array_equal(opt.vector, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    assert a.shape == (2, 2) and b.shape == (1, 3)
    assert np.shares_memory(a.values, opt.vector) and np.shares_memory(b.values, opt.vector)
    opt.vector[4] = -1.0
    assert b.values[0, 0] == -1.0


def test_step_refuses_a_rebound_parameter():
    w = make_param([[1.0, 2.0]])
    opt = SGD([w], learning_rate=0.1)
    w.values = (w.values + w.values) / 2.0
    w.grad = np.ones((1, 2))
    with pytest.raises(RuntimeError, match="rebound"):
        opt.step()


def test_step_refuses_a_misshapen_gradient():
    w = make_param([[1.0, 2.0], [3.0, 4.0]])
    opt = Adam([w], learning_rate=0.1)
    w.grad = np.ones((1, 4))
    with pytest.raises(RuntimeError, match="shape"):
        opt.step()
    assert opt.step_count == 0
    assert np.array_equal(w.values, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("opt_cls", [SGD, Adam])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gradient_changes_nothing(opt_cls, bad):
    a = make_param([[1.0, -2.0]])
    b = make_param([[0.5], [0.25]])
    opt = opt_cls([a, b], learning_rate=0.1)
    a.grad, b.grad = np.array([[0.3, -0.1]]), np.array([[2.0], [-4.0]])
    opt.step()
    state = {name: value.copy() for name, value in vars(opt).items() if isinstance(value, np.ndarray)}
    a.grad, b.grad = np.array([[0.3, -0.1]]), np.array([[2.0], [bad]])
    with pytest.raises(NonFiniteGradientError):
        opt.step()
    assert opt.step_count == 1
    for name, value in state.items():
        assert np.array_equal(getattr(opt, name), value), name
    assert a.grad is None and b.grad is None
    # the optimizer goes on from where the skipped step left it
    a.grad, b.grad = np.array([[0.3, -0.1]]), np.array([[2.0], [-4.0]])
    opt.step()
    assert opt.step_count == 2


@st.composite
def optimizer_runs(draw):
    shapes = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=6))
    steps = draw(st.integers(1, 5))
    learning_rate = draw(st.floats(1e-4, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def draw_array(shape):
        # magnitudes over many decades, with some exact zeros
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        return np.where(rng.random(shape) < 0.2, 0.0, values)

    initial = [draw_array(shape) for shape in shapes]
    grads = [[draw_array(shape) for shape in shapes] for _ in range(steps)]
    return initial, grads, learning_rate


@pytest.mark.parametrize("opt_cls", [SGD, Adam])
@given(run=optimizer_runs())
def test_flat_update_equals_the_per_tensor_oracle(opt_cls, run):
    initial, grads, learning_rate = run
    params = [ad.parameter(values) for values in initial]
    oracle_params = [ad.parameter(values) for values in initial]
    opt = opt_cls(params, learning_rate)
    oracle = ORACLES[opt_cls](oracle_params, learning_rate)
    for step_grads in grads:
        for p, q, g in zip(params, oracle_params, step_grads):
            p.grad, q.grad = g.copy(), g.copy()
        opt.step()
        oracle.step()
        for p, q in zip(params, oracle_params):
            assert np.array_equal(p.values, q.values)
            assert p.grad is None
    assert opt.step_count == oracle.step_count


def _oracle_optimizer(config, params):
    oracle = OracleSGD if config.optimizer == "sgd" else OracleAdam
    return oracle(params.trainable(), config.learning_rate)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("train", [train_gae, train_vgae])
def test_training_traces_match_the_per_tensor_optimizers(monkeypatch, corpus_data, train, optimizer):
    config = TrainConfig(epochs=3, optimizer=optimizer)
    params, trace = train(corpus_data, config)
    monkeypatch.setattr(train_module, "_make_optimizer", _oracle_optimizer)
    oracle_params, oracle_trace = train(corpus_data, config)
    assert trace == oracle_trace
    for tensor, oracle_tensor in zip(params.trainable(), oracle_params.trainable()):
        assert np.array_equal(tensor.values, oracle_tensor.values)


def _record_optimizers(monkeypatch):
    built = []
    make = train_module._make_optimizer

    def recording(config, params):
        built.append(make(config, params))
        return built[-1]

    monkeypatch.setattr(train_module, "_make_optimizer", recording)
    return built


@pytest.mark.parametrize("train", [train_gae, train_vgae])
def test_trained_tensors_still_view_the_optimizer_vector(monkeypatch, corpus_data, train):
    built = _record_optimizers(monkeypatch)
    params, _ = train(corpus_data[:5], TrainConfig(dims=(4, 3, 2), depth=2, epochs=2))
    (optimizer,) = built
    assert optimizer.step_count == 10
    for i, tensor in enumerate(params.trainable()):
        assert np.shares_memory(tensor.values, optimizer.vector), i
    flat = np.concatenate([tensor.values.ravel() for tensor in params.trainable()])
    assert np.array_equal(flat, optimizer.vector)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("train", [train_gae, train_vgae])
def test_non_finite_gradient_aborts_training_before_the_step(
    monkeypatch, corpus_data, train, optimizer
):
    built = _record_optimizers(monkeypatch)
    backward = ad.backward
    before = []

    def poisoned(loss):
        backward(loss)
        if built[0].step_count == 6:  # epoch 2, third molecule of four
            before.append(built[0].vector.copy())
            first = built[0].params[0]
            first.grad = first.grad.copy()
            first.grad[0, 0] = np.nan

    monkeypatch.setattr(ad, "backward", poisoned)
    dataset = corpus_data[:4]
    with pytest.raises(NonFiniteLossError) as err:
        train(dataset, TrainConfig(dims=(4, 4, 4), depth=2, epochs=3, optimizer=optimizer))
    assert (err.value.epoch, err.value.molecule) == (2, dataset[2].name)
    assert err.value.in_gradient
    assert f"non-finite loss at epoch 2 on molecule {dataset[2].name!r}" in str(err.value)
    assert "gradient" in str(err.value)
    (opt,) = built
    assert opt.step_count == 6
    assert np.array_equal(opt.vector, before[0])
    assert all(p.grad is None for p in opt.params)
    assert ad.tape_size() == 0
