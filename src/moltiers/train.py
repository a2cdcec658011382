"""Per-molecule full-batch training for both autoencoder flavors.

Each epoch walks the dataset in order, takes one optimizer step per
molecule and records the epoch mean of the objective. Runs are
deterministic for a fixed seed: parameter init and VGAE noise come from a
single seeded generator and the loop order never changes. A non-finite loss
or gradient aborts immediately with the epoch and molecule that produced
it, before the optimizer changes anything. Any exception raised during a
step's forward or backward pass leaves the tape empty.
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
    param_spec,
    vgae_losses,
)
from .optim import SGD, Adam, NonFiniteGradientError

OPTIMIZERS = ("adam", "sgd")


class NonFiniteLossError(RuntimeError):
    """Training hit a NaN or infinite loss, or loss gradient, and aborted."""

    def __init__(self, epoch: int, molecule: str, in_gradient: bool = False):
        detail = "; the value was finite, its gradient was not" if in_gradient else ""
        super().__init__(f"non-finite loss at epoch {epoch} on molecule {molecule!r}{detail}")
        self.epoch = epoch
        self.molecule = molecule
        self.in_gradient = in_gradient


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
        param_spec(False, self.dims, self.depth)  # raises on bad dims or depth
        for name in ("learning_rate", "beta", "feature_weight"):
            if not math.isfinite(value := getattr(self, name)):  # NaN and inf pass checks below
                raise ValueError(f"{name.replace('_', ' ')} must be finite, got {value}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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


def _warmup_beta(config: TrainConfig, epoch: int) -> float:
    """Linear 0 -> beta over the first 20% of epochs (at least one epoch)."""
    ramp = max(1, math.ceil(0.2 * config.epochs))
    return config.beta * min(1.0, epoch / ramp)


def _train(variational: bool, dataset: Sequence[MoleculeData], config: TrainConfig):
    """The loop behind both models. Its loss terms are (loss,) for the GAE
    and (reconstruction, KL) for the VGAE, whose gradient weighs the KL by
    the warmed-up beta; a trace row holds each column's epoch mean."""
    if not dataset:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(config.seed)
    params = (TieredVgaeParams if variational else TieredGaeParams).init(
        rng, config.dims, config.depth
    )
    optimizer = _make_optimizer(config, params)
    noise = gaussian_noise(rng)

    trace: list = []
    with ad.Workspace(max(data.num_atoms for data in dataset) ** 2):
        for epoch in range(1, config.epochs + 1):
            beta = _warmup_beta(config, epoch)
            rows = []
            for data in dataset:
                try:
                    if variational:
                        terms = vgae_losses(params, data, noise, config.feature_weight)
                    else:
                        terms = (gae_loss(params, data, config.feature_weight),)
                    values = [term.item() for term in terms]
                    if not all(map(math.isfinite, values)):
                        raise NonFiniteLossError(epoch, data.name)
                    ad.backward(ad.add(terms[0], ad.scale(terms[1], beta)) if variational else terms[0])
                except BaseException:
                    ad.clear_tape()
                    raise
                try:
                    optimizer.step()
                except NonFiniteGradientError:
                    raise NonFiniteLossError(epoch, data.name, in_gradient=True) from None
                params.symmetrize_pair_decoder()
                if variational:
                    recon, kl = values
                    values = [-(recon + config.beta * kl), kl]
                rows.append(values)
            means = [float(np.mean(column)) for column in zip(*rows)]
            trace.append(VgaeEpoch(*means) if variational else means[0])
    return params, trace


def train_gae(
    dataset: Sequence[MoleculeData], config: TrainConfig
) -> tuple[TieredGaeParams, list[float]]:
    """Train a deterministic autoencoder; returns (params, epoch mean losses)."""
    return _train(False, dataset, config)


def train_vgae(
    dataset: Sequence[MoleculeData], config: TrainConfig
) -> tuple[TieredVgaeParams, list[VgaeEpoch]]:
    """Train the variational autoencoder; returns (params, epoch trace).

    Gradients use a warmed-up beta; the reported ELBO always uses the
    configured beta so epochs stay comparable across the ramp.
    """
    return _train(True, dataset, config)


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
