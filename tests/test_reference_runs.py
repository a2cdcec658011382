"""The decision rule of ``tests/reference_runs.py`` on synthetic per-seed
numbers, and the shape of the committed reference set."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import reference_runs
from reference_runs import GAE_BOUND, MODELS, SEEDS, VGAE_BOUND, bootstrap_bound, summary, verdict

BOUNDS = {"gae": GAE_BOUND, "vgae": VGAE_BOUND}


def runs(aucs, objective=1.0):
    return [
        {"seed": seed, "objective": objective, "mean_edge_auc": float(auc)}
        for seed, auc in enumerate(aucs)
    ]


def both(gae, vgae):
    return {"gae": runs(gae), "vgae": runs(vgae)}


PARENT = both(np.linspace(0.85, 0.99, 20), np.linspace(0.3, 0.8, 20))


def shifted(model, by):
    """PARENT with ``model``'s AUCs moved by ``by`` on every seed."""
    change = {name: [dict(run) for run in PARENT[name]] for name in MODELS}
    for run in change[model]:
        run["mean_edge_auc"] += by
    return change


def test_the_parent_against_itself_passes():
    assert verdict(PARENT, PARENT) == []


@pytest.mark.parametrize("model", MODELS)
def test_a_median_within_the_bound_passes_and_past_it_fails(model):
    assert verdict(PARENT, shifted(model, -0.9 * BOUNDS[model])) == []
    assert verdict(PARENT, shifted(model, 0.3)) == []
    failures = verdict(PARENT, shifted(model, -1.1 * BOUNDS[model]))
    assert len(failures) == 1 and failures[0].startswith(f"{model} median AUC")


def test_single_seeds_may_swing_while_the_median_holds():
    # the per-seed noise of a one-ulp change: large swings both ways
    change = shifted("gae", 0.0)
    for seed, swing in ((1, -0.12), (4, -0.08), (9, 0.12), (15, 0.09)):
        change["gae"][seed]["mean_edge_auc"] += swing
    assert verdict(PARENT, change) == []
    row = summary(PARENT["gae"], change["gae"])
    assert (row["better"], row["worse"], row["same"]) == (2, 2, 16)
    assert row["max_abs_delta"] == pytest.approx(0.12)


@pytest.mark.parametrize("key", ["objective", "mean_edge_auc"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_run_of_the_change_fails(key, value):
    change = shifted("vgae", 0.0)
    change["vgae"][7][key] = value
    assert "vgae seed 7 is not finite" in verdict(PARENT, change)


def test_the_noise_band_is_zero_without_spread_and_grows_with_it():
    assert bootstrap_bound(np.full(20, 0.9)) == 0.0
    narrow = bootstrap_bound(np.linspace(0.89, 0.91, 20))
    wide = bootstrap_bound(np.linspace(0.8, 1.0, 20))
    assert 0.0 < narrow < wide


def test_the_committed_reference_set_is_whole_and_finite():
    path = Path(reference_runs.__file__).with_name("reference_runs.json")
    document = json.loads(path.read_text())
    assert document["bounds"] == BOUNDS
    for model in MODELS:
        assert [run["seed"] for run in document["runs"][model]] == list(SEEDS)
        for run in document["runs"][model]:
            assert math.isfinite(run["objective"]) and math.isfinite(run["mean_edge_auc"])
    for run in document["runs"]["vgae"]:
        assert 0.0 <= run["sampled_decode_auc"] <= 1.0
        assert 0.0 <= run["zero_mean_probe_auc"] <= 1.0
    assert document["same_group_indicator_auc"] == pytest.approx(0.680, abs=0.005)
    assert {"python", "numpy", "blas", "cpu_model", "nproc"} <= set(document["machine"])
