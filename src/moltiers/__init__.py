"""Tiered latent representations of molecular graphs.

Parse a SMILES subset into graphs with explicit hydrogens, partition each
molecule into functional groups, aromatic rings and leftover components,
and train graph autoencoders (plain or variational) whose encoder pools
node embeddings through the partition into group and whole-molecule
embeddings. Built on a small reverse-mode autodiff engine; no deep
learning framework required.
"""

from .autodiff import Tensor, backward, grad_check, no_grad
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .gnn import (
    GnnStack,
    gnn_forward,
    gnn_forward_variational,
    normalize_adjacency,
)
from .grouping import (
    AROMATIC_RING,
    COMPONENT,
    FUNCTIONAL_GROUP,
    Group,
    Violation,
    build_membership,
    check_bond_consistency,
    detect_aromatic_rings,
    graph_membership,
    identify_functional_groups,
    partition,
)
from .models import (
    MoleculeData,
    TieredEmbeddings,
    TieredGaeParams,
    TieredVgaeParams,
    decode,
    edge_auc,
    elbo,
    encode_tiered,
    encode_tiered_variational,
    gae_loss,
    interpolate_latent,
    kl_standard_normal,
    mean_edge_auc,
    reconstruction_loss,
    vgae_losses,
    zero_noise,
)
from .molgraph import (
    MolecularGraph,
    NODE_FEATURE_DIM,
    featurize_nodes,
    load_molecules,
)
from .optim import SGD, Adam
from .pooling import CoarsenedGraph, diff_group_pool
from .smiles import SmilesError, parse_smiles
from .train import (
    NonFiniteLossError,
    TrainConfig,
    VgaeEpoch,
    train_gae,
    train_vgae,
)

__version__ = "0.1.0"
