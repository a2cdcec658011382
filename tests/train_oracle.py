"""The training loops as they were before GAE and VGAE shared one loop.

``train_gae`` and ``train_vgae`` each ran their own copy of the loop.
Tests use these copies as the oracle the shared loop in ``moltiers.train``
must match bit for bit: every epoch trace, every trained weight and any
``NonFiniteLossError``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from moltiers import autodiff as ad
from moltiers.models import (
    MoleculeData,
    TieredGaeParams,
    TieredVgaeParams,
    gae_loss,
    gaussian_noise,
    vgae_losses,
)
from moltiers.optim import SGD, Adam, NonFiniteGradientError
from moltiers.train import NonFiniteLossError, TrainConfig, VgaeEpoch


def _make_optimizer(config: TrainConfig, params) -> SGD | Adam:
    if config.optimizer == "sgd":
        return SGD(params.trainable(), config.learning_rate)
    return Adam(params.trainable(), config.learning_rate)


def _step(optimizer: SGD | Adam, epoch: int, data: MoleculeData) -> None:
    try:
        optimizer.step()
    except NonFiniteGradientError:
        raise NonFiniteLossError(epoch, data.name, in_gradient=True) from None


def train_gae(
    dataset: Sequence[MoleculeData], config: TrainConfig
) -> tuple[TieredGaeParams, list[float]]:
    """Train a deterministic autoencoder; returns (params, epoch mean losses)."""
    if not dataset:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(config.seed)
    params = TieredGaeParams.init(rng, config.dims, config.depth)
    optimizer = _make_optimizer(config, params)

    trace: list[float] = []
    for epoch in range(1, config.epochs + 1):
        epoch_losses = []
        for data in dataset:
            try:
                loss = gae_loss(params, data, config.feature_weight)
                value = loss.item()
                if not math.isfinite(value):
                    raise NonFiniteLossError(epoch, data.name)
                ad.backward(loss)
            except BaseException:
                ad.clear_tape()
                raise
            _step(optimizer, epoch, data)
            params.symmetrize_pair_decoder()
            epoch_losses.append(value)
        trace.append(float(np.mean(epoch_losses)))
    return params, trace


def _warmup_beta(config: TrainConfig, epoch: int) -> float:
    """Linear 0 -> beta over the first 20% of epochs (at least one epoch)."""
    ramp = max(1, math.ceil(0.2 * config.epochs))
    return config.beta * min(1.0, epoch / ramp)


def train_vgae(
    dataset: Sequence[MoleculeData], config: TrainConfig
) -> tuple[TieredVgaeParams, list[VgaeEpoch]]:
    """Train the variational autoencoder; returns (params, epoch trace).

    Gradients use a warmed-up beta; the reported ELBO always uses the
    configured beta so epochs stay comparable across the ramp.
    """
    if not dataset:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(config.seed)
    params = TieredVgaeParams.init(rng, config.dims, config.depth)
    optimizer = _make_optimizer(config, params)
    noise = gaussian_noise(rng)

    trace: list[VgaeEpoch] = []
    for epoch in range(1, config.epochs + 1):
        beta = _warmup_beta(config, epoch)
        elbos = []
        kls = []
        for data in dataset:
            try:
                recon, kl_total = vgae_losses(params, data, noise, config.feature_weight)
                recon_value = recon.item()
                kl_value = kl_total.item()
                if not (math.isfinite(recon_value) and math.isfinite(kl_value)):
                    raise NonFiniteLossError(epoch, data.name)
                ad.backward(ad.add(recon, ad.scale(kl_total, beta)))
            except BaseException:
                ad.clear_tape()
                raise
            _step(optimizer, epoch, data)
            params.symmetrize_pair_decoder()
            elbos.append(-(recon_value + config.beta * kl_value))
            kls.append(kl_value)
        trace.append(VgaeEpoch(float(np.mean(elbos)), float(np.mean(kls))))
    return params, trace
