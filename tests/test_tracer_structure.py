"""The benchmark tracer's view of a training run: which spans nest where.

The benchmark's per-layer numbers name each encoder tier by the order of
the forwards inside an encode span and count KL evaluations per step, so
the encoder must keep calling its patched bindings in that shape. The
tracer patches module bindings, so calls here go through module attributes.
"""

import numpy as np

from moltiers import models, train
from moltiers.smiles import parse_smiles

TIERS = ["gnn.forward.atom", "gnn.forward.group", "gnn.forward.molecule"]


def test_encode_spans_hold_the_three_tiers_and_vgae_steps_three_kl_spans(perfbench_tracer):
    smiles = ("CCO", "O=Cc1ccc(O)c(OC)c1")
    dataset = [models.MoleculeData.from_graph(parse_smiles(text)) for text in smiles]
    config = train.TrainConfig(dims=(3, 3, 3), depth=2, epochs=2, seed=0)
    with perfbench_tracer.Tracer() as tracer:
        gae, _ = train.train_gae(dataset, config)
        vgae, _ = train.train_vgae(dataset, config)
        aucs = [models.mean_edge_auc(params, dataset) for params in (gae, vgae)]
    assert all(np.isfinite(aucs))

    spans = tracer.spans
    children = [[] for _ in spans]
    for name, _, _, parent, _ in spans:
        if parent >= 0:
            children[parent].append(name)
    encodes = [index for index, span in enumerate(spans) if span[0] == "models.encode"]
    # one per step, 2 molecules x 2 epochs per model, and one per evaluated
    # batch: both molecules fit one
    assert len(encodes) == 2 * 4 + 2
    assert all(children[index] == TIERS for index in encodes)

    loops = [index for index, span in enumerate(spans) if span[0] == "train.loop"]
    assert len(loops) == 2  # GAE, then VGAE

    def loop_of(index):
        while spans[index][3] >= 0:
            index = spans[index][3]
        return index

    steps = [index for index, span in enumerate(spans) if span[0] == "models.step"]
    kl_per_step = {loop: [] for loop in loops}
    for index in steps:
        kl_per_step[loop_of(index)].append(children[index].count("models.kl"))
    assert kl_per_step == {loops[0]: [0] * 4, loops[1]: [3] * 4}


def traced_evaluations(tracer_module, dataset):
    """The children's names of each ``models.eval`` span, GAE then VGAE, after
    checking that tracing leaves the values and each encode's tiers alone."""
    rng = np.random.default_rng(0)
    params = [
        models.TieredGaeParams.init(rng, (4, 4, 4), 2),
        models.TieredVgaeParams.init(rng, (4, 4, 4), 2),
    ]
    untraced = [models.mean_edge_auc(p, dataset) for p in params]
    with tracer_module.Tracer() as tracer:
        traced = [models.mean_edge_auc(p, dataset) for p in params]
    assert traced == untraced

    spans = tracer.spans
    children = [[] for _ in spans]
    for name, _, _, parent, _ in spans:
        if parent >= 0:
            children[parent].append(name)
    encodes = [index for index, span in enumerate(spans) if span[0] == "models.encode"]
    assert all(children[index] == TIERS for index in encodes)
    return [children[index] for index, span in enumerate(spans) if span[0] == "models.eval"]


def test_a_traced_corpus_evaluation_runs_one_encode_per_batch(perfbench_tracer, corpus_data):
    """The whole corpus is one padded batch; its stacked pools must not reach
    the tracer's 2-D ``autodiff.matmul`` counter, and its members are scored
    from one pair gather, not by ``edge_auc``."""
    evals = traced_evaluations(perfbench_tracer, corpus_data)
    assert len(evals) == 2
    for children in evals:
        assert children.count("models.encode") == 1
        assert children.count("models.decode") == 1
        assert children.count("models.edge_auc") == 0


def test_a_traced_run_of_one_is_scored_by_edge_auc(perfbench_tracer, corpus_data, backbone_data):
    over_budget = backbone_data[-1]
    assert over_budget.num_atoms ** 2 > models._EVAL_BATCH_CELLS
    evals = traced_evaluations(perfbench_tracer, [*corpus_data, over_budget])
    assert len(evals) == 2
    for children in evals:
        assert children.count("models.encode") == 2  # the corpus batch, then the run of one
        assert children.count("models.decode") == 2
        assert children.count("models.edge_auc") == 1
