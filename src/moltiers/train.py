"""Per-molecule full-batch training for both autoencoder flavors.

Each epoch walks the dataset in order, takes one optimizer step per
molecule and records the epoch mean of the objective. Runs are
deterministic for a fixed seed: parameter init and VGAE noise come from a
single seeded generator and the loop order never changes. A non-finite loss
aborts immediately with the epoch that produced it and leaves the tape
empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .models import (
    MoleculeData,
    TieredGaeParams,
    TieredVgaeParams,
    gae_loss,
    gaussian_noise,
    vgae_losses,
)
from .optim import SGD, Adam

OPTIMIZERS = ("adam", "sgd")


class NonFiniteLossError(RuntimeError):
    """Training hit a NaN or infinite loss and aborted."""

    def __init__(self, epoch: int, molecule: str):
        super().__init__(f"non-finite loss at epoch {epoch} on molecule {molecule!r}")
        self.epoch = epoch
        self.molecule = molecule


@dataclass
class TrainConfig:
    dims: tuple[int, int, int] = (16, 16, 16)
    depth: int = 3
    learning_rate: float = 0.01
    epochs: int = 200
    seed: int = 0
    optimizer: str = "adam"
    beta: float = 1.0
    feature_weight: float = 0.1

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be three positive integers, got {self.dims}")
        if self.depth < 1:
            raise ValueError(f"depth must be at least 1, got {self.depth}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if self.feature_weight < 0:
            raise ValueError(f"feature weight must be non-negative, got {self.feature_weight}")


@dataclass
class VgaeEpoch:
    """One epoch of the variational trace: mean ELBO at the configured beta
    and mean total KL."""

    elbo: float
    kl: float


def _make_optimizer(config: TrainConfig, params) -> SGD | Adam:
    if config.optimizer == "sgd":
        return SGD(params.trainable(), config.learning_rate)
    return Adam(params.trainable(), config.learning_rate)


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
            loss = gae_loss(params, data, config.feature_weight)
            value = loss.item()
            if not math.isfinite(value):
                ad.clear_tape()
                raise NonFiniteLossError(epoch, data.name)
            ad.backward(loss)
            optimizer.step()
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
            recon, kl_total = vgae_losses(params, data, noise, config.feature_weight)
            recon_value = recon.item()
            kl_value = kl_total.item()
            if not (math.isfinite(recon_value) and math.isfinite(kl_value)):
                ad.clear_tape()
                raise NonFiniteLossError(epoch, data.name)
            objective = ad.add(recon, ad.scale(kl_total, beta))
            ad.backward(objective)
            optimizer.step()
            params.symmetrize_pair_decoder()
            elbos.append(-(recon_value + config.beta * kl_value))
            kls.append(kl_value)
        trace.append(VgaeEpoch(float(np.mean(elbos)), float(np.mean(kls))))
    return params, trace


def gae_trace_csv(trace: Sequence[float]) -> str:
    """Loss trace as CSV text: header ``epoch,loss``, one row per epoch."""
    lines = ["epoch,loss"]
    lines += [f"{epoch},{value!r}" for epoch, value in enumerate(trace, start=1)]
    return "\n".join(lines) + "\n"


def vgae_trace_csv(trace: Sequence[VgaeEpoch]) -> str:
    """ELBO trace as CSV text: header ``epoch,elbo,kl``."""
    lines = ["epoch,elbo,kl"]
    lines += [f"{epoch},{row.elbo!r},{row.kl!r}" for epoch, row in enumerate(trace, start=1)]
    return "\n".join(lines) + "\n"
