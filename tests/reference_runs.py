"""Seed-paired reference runs: the gate for changes that move floats.

Usage::

    python tests/reference_runs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository, for instance one made with
``git archive``. A change that moves training floats, even by one ulp,
moves single seeds' results by up to 0.12 AUC after 200 epochs, so it is
judged on the distribution over seeds, not seed by seed. The script trains
the default GAE and VGAE (``TrainConfig()``: 200 epochs, Adam, lr 0.01,
dims 16) on ``data/corpus30.smi`` at seeds 0-19, each run in a fresh
subprocess from each tree's ``src``, both trees on this machine, and
records each run's final objective (loss or ELBO) and ``mean_edge_auc``.
Per VGAE run it also records two probes, which are not gated:

- ``sampled_decode_auc``: each molecule's edge probabilities averaged over
  32 decoder samples, then scored;
- ``zero_mean_probe_auc``: the same with every posterior mean set to 0, so
  only the noise is decoded.

Once per dataset it records the AUC of the same-group indicator (a pair
scores 1 if its atoms share a group), the floor a model has to beat.

The change tree's numbers go to its ``tests/reference_runs.json`` with the
Python, numpy and machine facts and the parent's medians. The script
prints each median, its quartiles and the per-seed better/worse counts,
and exits 1 unless :func:`verdict` finds nothing:

1. the change's median GAE AUC is at least the parent's minus ``GAE_BOUND``;
2. the change's median VGAE mean-decode AUC is at least the parent's minus
   ``VGAE_BOUND``;
3. every run of the change is finite.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

SEEDS = tuple(range(20))
MODELS = ("gae", "vgae")
# Bootstrap half-width of the difference of two 20-seed GAE medians drawn
# from one tree's runs, measured on 30 seeds (README, "Reference runs").
GAE_BOUND = 0.02
# The same half-width for the VGAE's mean-decode AUC, measured by
# bootstrap_bound() on the 20 seeds of tests/reference_runs.json.
VGAE_BOUND = 0.12
WORKERS = 2

# Run in a subprocess from a tree's src: argv is model, seed, molecule file.
RUN = """
import json, math, sys
import numpy as np
from moltiers import autodiff as ad
from moltiers.models import (
    MoleculeData, TieredEmbeddings, decode, edge_auc, encode_tiered_variational,
    mean_edge_auc, zero_noise,
)
from moltiers.molgraph import load_molecules
from moltiers.train import NonFiniteLossError, TrainConfig, train_gae, train_vgae

model, seed, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
dataset = [MoleculeData.from_graph(record.graph) for record in load_molecules(path)]


def sampled_decode_auc(params, rng, zero_mean):
    scores = []
    with ad.no_grad():
        for data in dataset:
            stats = encode_tiered_variational(params, data, zero_noise)[1]
            total = 0.0
            for _ in range(32):
                tiers = [
                    ad.wrap((0.0 if zero_mean else mean.values)
                            + std.values * rng.standard_normal(std.shape))
                    for mean, std in stats
                ]
                total = total + decode(params, TieredEmbeddings(*tiers, data))[0].values
            scores.append(edge_auc(total / 32, data.ends))
    return float(np.mean(scores))


run = {"seed": seed}
try:
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        train = train_vgae if model == "vgae" else train_gae
        params, trace = train(dataset, TrainConfig(seed=seed))
    run["objective"] = trace[-1].elbo if model == "vgae" else trace[-1]
    run["mean_edge_auc"] = mean_edge_auc(params, dataset)
except (NonFiniteLossError, ValueError) as err:
    run.update(objective=math.nan, mean_edge_auc=math.nan, error=str(err))
if model == "vgae" and "error" not in run:
    rng = np.random.default_rng(seed)
    run["sampled_decode_auc"] = sampled_decode_auc(params, rng, False)
    run["zero_mean_probe_auc"] = sampled_decode_auc(params, rng, True)
print(json.dumps(run))
"""

# The same-group indicator's mean AUC over a molecule file, from one tree.
INDICATOR = """
import sys
import numpy as np
from moltiers.models import MoleculeData, edge_auc
from moltiers.molgraph import load_molecules

scores = []
for record in load_molecules(sys.argv[1]):
    data = MoleculeData.from_graph(record.graph)
    shared = data.node_to_group @ data.node_to_group.T > 0
    scores.append(edge_auc(shared.astype(float), data.ends))
print(float(np.mean(scores)))
"""


def _python(tree: Path, code: str, *args: str) -> str:
    """stdout of ``code`` run with ``args`` in a fresh interpreter over
    ``tree``'s ``src``; raises SystemExit with its stderr if it fails."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(tree / "src")}, capture_output=True, text=True,
    )
    if done.returncode:
        raise SystemExit(f"a run from {tree} failed:\n{done.stderr}")
    return done.stdout


def run_all(trees: dict[str, Path], corpus: Path) -> dict[str, dict[str, list[dict]]]:
    """{tree label: {model: [run per seed]}}, the two trees' runs of one seed
    and model started side by side."""
    jobs = [(label, model, seed) for seed in SEEDS for model in MODELS for label in trees]
    with ThreadPoolExecutor(WORKERS) as pool:
        outputs = pool.map(
            lambda job: _python(trees[job[0]], RUN, job[1], str(job[2]), str(corpus)), jobs
        )
        runs = {label: {model: [] for model in MODELS} for label in trees}
        for (label, model, _), output in zip(jobs, outputs):
            runs[label][model].append(json.loads(output))
    return runs


def _aucs(runs: list[dict]) -> np.ndarray:
    return np.array([run["mean_edge_auc"] for run in runs])


def summary(parent: list[dict], change: list[dict]) -> dict:
    """Medians, quartiles and per-seed counts of ``mean_edge_auc``, the
    change against the parent, seed by seed."""
    before, after = _aucs(parent), _aucs(change)
    delta = after - before
    return {
        "parent_median": float(np.median(before)),
        "parent_quartiles": [float(q) for q in np.percentile(before, (25, 75))],
        "change_median": float(np.median(after)),
        "change_quartiles": [float(q) for q in np.percentile(after, (25, 75))],
        "better": int((delta > 0).sum()),
        "worse": int((delta < 0).sum()),
        "same": int((delta == 0).sum()),
        "median_abs_delta": float(np.median(np.abs(delta))),
        "max_abs_delta": float(np.abs(delta).max()),
        "parent_noise_band": bootstrap_bound(before),
    }


def verdict(parent: dict[str, list[dict]], change: dict[str, list[dict]]) -> list[str]:
    """The gate's failures, none if the change passes: a median AUC below the
    parent's by more than its model's bound, or a non-finite run of the
    change. Each argument maps a model to its runs, one per seed."""
    failures = []
    for model, bound in (("gae", GAE_BOUND), ("vgae", VGAE_BOUND)):
        for run in change[model]:
            if not all(math.isfinite(run[key]) for key in ("objective", "mean_edge_auc")):
                failures.append(f"{model} seed {run['seed']} is not finite")
        before, after = np.median(_aucs(parent[model])), np.median(_aucs(change[model]))
        if not after >= before - bound:
            failures.append(
                f"{model} median AUC {after:.4f} is below the parent's {before:.4f} "
                f"by more than {bound}"
            )
    return failures


def bootstrap_bound(aucs: np.ndarray) -> float:
    """95th percentile of |median(a) - median(b)| over 10,000 pairs of
    samples of ``len(aucs)`` seeds, each drawn with replacement from
    ``aucs``: how far the medians of two trees that differ only in noise
    fall apart."""
    samples = np.random.default_rng(0).choice(aucs, size=(2, 10_000, len(aucs)))
    return float(np.percentile(np.abs(np.subtract(*np.median(samples, axis=2))), 95))


def machine(tree: Path) -> dict:
    """Python, numpy, BLAS and CPU facts, from the benchmark's ``machine_info``."""
    path = tree / "perfbench" / "machine.py"
    spec = importlib.util.spec_from_file_location("perfbench_machine", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.machine_info()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    trees = dict(zip(("parent", "change"), (Path(arg).resolve() for arg in argv)))
    corpus = trees["change"] / "data" / "corpus30.smi"
    runs = run_all(trees, corpus)
    indicator = float(_python(trees["change"], INDICATOR, str(corpus)))
    summaries = {model: summary(runs["parent"][model], runs["change"][model]) for model in MODELS}
    for model, row in summaries.items():
        print(
            f"{model:4}  parent median {row['parent_median']:.4f} "
            f"(quartiles {row['parent_quartiles'][0]:.4f}-{row['parent_quartiles'][1]:.4f})  "
            f"change median {row['change_median']:.4f} "
            f"(quartiles {row['change_quartiles'][0]:.4f}-{row['change_quartiles'][1]:.4f})  "
            f"better {row['better']} worse {row['worse']} same {row['same']}  "
            f"median |d| {row['median_abs_delta']:.4f} max |d| {row['max_abs_delta']:.4f}  "
            f"parent noise band {row['parent_noise_band']:.4f}"
        )
    print(f"same-group indicator AUC {indicator:.4f}")
    document = {
        "command": "python tests/reference_runs.py PARENT_TREE CHANGE_TREE",
        "corpus": "data/corpus30.smi",
        "config": "TrainConfig() defaults: 200 epochs, adam, lr 0.01, dims 16,16,16, depth 3",
        "machine": machine(trees["change"]),
        "bounds": {"gae": GAE_BOUND, "vgae": VGAE_BOUND},
        "same_group_indicator_auc": indicator,
        "against_parent": summaries,
        "runs": runs["change"],
    }
    target = trees["change"] / "tests" / "reference_runs.json"
    target.write_text(json.dumps(document, indent=1) + "\n")
    failures = verdict(runs["parent"], runs["change"])
    for failure in failures:
        print(f"FAIL  {failure}")
    print("the gate fails" if failures else "the gate passes")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
