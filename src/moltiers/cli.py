"""Command line interface.

Subcommands: ``parse`` (report molecules), ``partition`` (groups and
membership as JSON), ``train`` (fit a model, write checkpoint + trace CSV),
``embed`` (dump tier embeddings for molecules) and ``interp`` (walk the
latent line between two molecules and report decoded edge statistics).

Exit codes: 0 success, 1 when any input line fails to parse, 2 for I/O
problems, 3 when training aborts on a non-finite loss, 4 for checkpoint or
config mismatches, 5 for usage errors (a bad option or training value).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .checkpoint import CheckpointError, atomic_write, load_checkpoint, save_checkpoint
from .grouping import build_membership, partition
from .models import (
    MoleculeData,
    decode_with_graph_vector,
    encode_for_inference,
    interpolate_latent,
)
from .molgraph import MolecularGraph, hill_formula, load_molecules
from .smiles import SmilesError, parse_smiles
from .train import (
    OPTIMIZERS,
    NonFiniteLossError,
    TrainConfig,
    gae_trace_csv,
    train_gae,
    train_vgae,
    vgae_trace_csv,
)

TOP_EDGES = 10


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's, but exit 5: its 2 is the I/O errors' code
        self.print_usage(sys.stderr)
        self.exit(5, f"{self.prog}: error: {message}\n")


def _dims(text: str) -> tuple[int, int, int]:
    try:
        first, second, third = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected D1,D2,D3, got {text!r}") from None
    return first, second, third


def _steps(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"steps must be at least 2, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="moltiers",
        description="Tiered graph autoencoders for molecules.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("parse", help="parse molecules and report sizes")
    cmd.add_argument("--input", required=True, help="molecule file: one SMILES [name] per line")
    cmd.set_defaults(handler=cmd_parse)

    cmd = commands.add_parser("partition", help="emit groups and membership matrices as JSON")
    cmd.add_argument("--input", required=True, help="molecule file")
    cmd.add_argument("--out", help="output JSON path (default: stdout)")
    cmd.set_defaults(handler=cmd_partition)

    cmd = commands.add_parser("train", help="train a model, write checkpoint and trace CSV")
    defaults = TrainConfig()
    cmd.add_argument("--input", required=True, help="molecule file")
    cmd.add_argument("--out", required=True, help="output directory for checkpoint.json and trace.csv")
    cmd.add_argument("--model", choices=("gae", "vgae"), default="gae")
    cmd.add_argument("--dims", type=_dims, default=defaults.dims, help="tier widths D1,D2,D3")
    cmd.add_argument("--layers", type=int, default=defaults.depth, help="GNN layers per tier")
    cmd.add_argument("--lr", type=float, default=defaults.learning_rate, help="learning rate")
    cmd.add_argument("--epochs", type=int, default=defaults.epochs)
    cmd.add_argument("--seed", type=int, default=defaults.seed)
    cmd.add_argument("--optimizer", choices=OPTIMIZERS, default=defaults.optimizer)
    cmd.add_argument("--beta", type=float, default=defaults.beta, help="KL weight (vgae)")
    cmd.add_argument("--lambda-x", type=float, default=defaults.feature_weight, dest="lambda_x",
                     help="feature reconstruction weight")
    cmd.set_defaults(handler=cmd_train, usage_error=cmd.error)

    cmd = commands.add_parser("embed", help="dump embeddings at a chosen tier")
    cmd.add_argument("checkpoint", help="checkpoint JSON written by train")
    cmd.add_argument("--input", required=True, help="molecule file")
    cmd.add_argument("--tier", choices=("node", "group", "graph"), default="graph")
    cmd.add_argument("--out", help="output JSON path (default: stdout)")
    cmd.set_defaults(handler=cmd_embed)

    cmd = commands.add_parser("interp", help="interpolate between two molecules in latent space")
    cmd.add_argument("checkpoint", help="checkpoint JSON written by train")
    cmd.add_argument("smiles_a", help="first endpoint SMILES")
    cmd.add_argument("smiles_b", help="second endpoint SMILES")
    cmd.add_argument("--steps", type=_steps, default=5, help="points on the path, endpoints included")
    cmd.add_argument("--out", help="output JSON path (default: stdout)")
    cmd.set_defaults(handler=cmd_interp)

    return parser


def _load_graphs(path: str) -> tuple[list[MolecularGraph], int]:
    """Parse a molecule file, reporting each bad line on stderr; returns
    (the parsed graphs, the number of bad lines)."""
    graphs, failures = [], 0
    for record in load_molecules(path):
        if record.error is not None:
            failures += 1
            print(f"line {record.line_number}: {record.error}", file=sys.stderr)
        else:
            graphs.append(record.graph)
    return graphs, failures


def _matrix_doc(array: np.ndarray) -> dict:
    array = np.asarray(array, dtype=np.float64)
    return {"shape": list(array.shape), "rows": array.tolist()}


def _write_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with atomic_write(out) as handle:
            handle.write(text)


def cmd_parse(args) -> int:
    graphs, failures = _load_graphs(args.input)
    for graph in graphs:
        print(
            f"{graph.name}: atoms={graph.num_atoms} bonds={graph.num_bonds} "
            f"rings={graph.ring_count} formula={graph.formula()}"
        )
    return 1 if failures else 0


def cmd_partition(args) -> int:
    graphs, failures = _load_graphs(args.input)
    molecules = []
    for graph in graphs:
        group_set = partition(graph)
        groups = []
        for group in group_set:
            formula = hill_formula(graph.elements[i] for i in group.atoms)
            groups.append({"kind": group.kind, "atoms": list(group.atoms), "formula": formula})
        molecules.append(
            {
                "name": graph.name,
                "smiles": graph.smiles,
                "num_atoms": graph.num_atoms,
                "groups": groups,
                "membership": _matrix_doc(build_membership(group_set, graph.num_atoms)),
            }
        )
    _write_json({"molecules": molecules}, args.out)
    return 1 if failures else 0


def cmd_train(args) -> int:
    try:
        config = TrainConfig(
            dims=args.dims,
            depth=args.layers,
            learning_rate=args.lr,
            epochs=args.epochs,
            seed=args.seed,
            optimizer=args.optimizer,
            beta=args.beta,
            feature_weight=args.lambda_x,
        )
    except ValueError as err:
        args.usage_error(str(err))  # exits 5, before any input is read
    graphs, failures = _load_graphs(args.input)
    if failures:
        return 1
    if not graphs:
        print("no molecules to train on", file=sys.stderr)
        return 1
    dataset = [MoleculeData.from_graph(graph) for graph in graphs]
    out_dir = Path(args.out)
    created = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    checkpoint_path = out_dir / "checkpoint.json"
    trace_path = out_dir / "trace.csv"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before training
        # A diverging run ends with its own abort message (exit 3), not numpy's warnings.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.model == "vgae":
                params, trace = train_vgae(dataset, config)
                csv_text = vgae_trace_csv(trace)
                final = f"final elbo {trace[-1].elbo}" if trace else "no epochs run"
            else:
                params, trace = train_gae(dataset, config)
                csv_text = gae_trace_csv(trace)
                final = f"final loss {trace[-1]}" if trace else "no epochs run"
        save_checkpoint(params, checkpoint_path)
        with atomic_write(trace_path) as handle:
            handle.write(csv_text)
    except BaseException:
        for path in created:  # deepest first; rmdir leaves whatever was written
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    print(
        f"trained {args.model} on {len(dataset)} molecules for {config.epochs} epochs; "
        f"{final}; checkpoint: {checkpoint_path}; trace: {trace_path}"
    )
    return 0


def cmd_embed(args) -> int:
    params = load_checkpoint(args.checkpoint)
    graphs, failures = _load_graphs(args.input)
    molecules = []
    with ad.no_grad():
        for graph in graphs:
            data = MoleculeData.from_graph(graph)
            embeddings = encode_for_inference(params, data)
            doc = {
                "name": graph.name,
                "smiles": graph.smiles,
                "membership_node_to_group": _matrix_doc(data.node_to_group),
                "membership_group_to_graph": _matrix_doc(data.group_to_graph),
            }
            if args.tier == "node":
                doc["embeddings"] = _matrix_doc(embeddings.node.values)
                doc["elements"] = graph.elements
            elif args.tier == "group":
                doc["embeddings"] = _matrix_doc(embeddings.group.values)
                doc["group_kinds"] = [group.kind for group in data.group_set]
            else:
                doc["embeddings"] = _matrix_doc(embeddings.graph.values)
            molecules.append(doc)
    _write_json({"tier": args.tier, "molecules": molecules}, args.out)
    return 1 if failures else 0


def cmd_interp(args) -> int:
    params = load_checkpoint(args.checkpoint)
    try:
        graph_a = parse_smiles(args.smiles_a, name="a")
        graph_b = parse_smiles(args.smiles_b, name="b")
    except SmilesError as err:
        print(f"cannot parse endpoint: {err}", file=sys.stderr)
        return 1
    with ad.no_grad():
        emb_a = encode_for_inference(params, MoleculeData.from_graph(graph_a))
        emb_b = encode_for_inference(params, MoleculeData.from_graph(graph_b))
        start = emb_a.graph.values.reshape(-1)
        end = emb_b.graph.values.reshape(-1)
        path = interpolate_latent(start, end, args.steps)

        decoded = []
        alphas = np.linspace(0.0, 1.0, args.steps)
        for alpha, vector in zip(alphas, path):
            # Decoded statistics only: the probabilities live in the first
            # endpoint's atom frame with its molecule-tier rows swapped for
            # the interpolated vector. No molecules are decoded.
            probs = decode_with_graph_vector(params, emb_a, vector)
            # Pairs i < j by descending probability, then by (i, j); the
            # mean sums in that order, so its rounding stays fixed.
            rows, cols = np.nonzero(~np.tri(*probs.shape, dtype=bool))
            pair_probs = probs[rows, cols]
            order = np.lexsort((cols, rows, -pair_probs))
            mean_prob = float(np.mean(pair_probs[order])) if order.size else 0.0
            top = order[:TOP_EDGES]
            decoded.append(
                {
                    "alpha": float(alpha),
                    "mean_edge_probability": mean_prob,
                    "top_edges": [
                        {"first": i, "second": j, "probability": p}
                        for p, i, j in zip(*(a[top].tolist() for a in (pair_probs, rows, cols)))
                    ],
                }
            )

    doc = {
        "endpoints": {
            "a": {"smiles": graph_a.smiles, "embedding": start.tolist()},
            "b": {"smiles": graph_b.smiles, "embedding": end.tolist()},
        },
        "steps": args.steps,
        "vectors": [v.tolist() for v in path],
        "decoded": decoded,
    }
    _write_json(doc, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2
    except CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return 4
    except NonFiniteLossError as err:
        print(f"training aborted: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
