"""Benchmark for moltiers: training, embedding and evaluation throughput.

    python3 perfbench/run.py --workload corpus-train --seed 1 --seconds 30 --trace 0

Each workload runs in this one process through the library calls the CLI
makes: ``load_molecules``, ``MoleculeData.from_graph``, ``train_gae`` /
``train_vgae``, ``save_checkpoint`` / ``load_checkpoint``, ``encode_tiered``
under ``no_grad`` and ``mean_edge_auc``. Inputs come from ``gen.py`` and the
seed; the program sees only the SMILES files written under ``.perfbench/``.

``--trace 0`` measures rounds of (GAE call, VGAE call, embed chunks, eval
passes) until ``--seconds`` have passed and reports medians over rounds as the
end-to-end metrics, with timings scaled by a reference pass (``machine.py``). ``--trace 1`` alternates one fixed pass untraced with the
same pass under the outside-in tracer and reports per-layer self times.
Either way the outputs are checked; the last stdout line is the JSON result,
and the exit code is 1 if any check failed. See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "data" / "corpus30.smi"
OUT = ROOT / ".perfbench"

if not (SRC / "moltiers" / "__init__.py").is_file() or not CORPUS.is_file():
    sys.exit(f"perfbench: no moltiers source tree at {ROOT} (need src/moltiers and data/corpus30.smi)")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from moltiers import checkpoint, models, molgraph, smiles, train  # noqa: E402

import gen  # noqa: E402
import machine  # noqa: E402
import pipeline  # noqa: E402
from tracer import Tracer  # noqa: E402

clock = time.perf_counter

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("gae_steps_per_s", "1/s", "higher", 0.25),
    ("vgae_steps_per_s", "1/s", "higher", 0.25),
    ("gae_auc", "1", "higher", 0.2),
    ("embed_mols_per_s", "1/s", "higher", 0.25),
    ("embed_ms_p50", "ms", "lower", 0.25),
    ("embed_ms_p99", "ms", "lower", 0.25),
    ("eval_mols_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

# Per-layer self time in microseconds per unit (one training step, one
# embedded molecule or one evaluated molecule), unless the unit says otherwise.
SPAN_METRICS = (
    ("smiles.parse_us", "smiles.parse"),
    ("cycles.basis_us", "cycles.basis"),
    ("molgraph.build_us", "molgraph.build"),
    ("molgraph.featurize_us", "molgraph.featurize"),
    ("grouping.partition_us", "grouping.partition"),
    ("grouping.membership_us", "grouping.membership"),
    ("gnn.forward_us.atom", "gnn.forward.atom"),
    ("gnn.forward_us.group", "gnn.forward.group"),
    ("gnn.forward_us.molecule", "gnn.forward.molecule"),
    ("gnn.normalize_us", "gnn.normalize"),
    ("pooling.pool_us", "pooling.pool"),
    ("models.encode_us", "models.encode"),
    ("models.decode_us", "models.decode"),
    ("models.loss_us", "models.loss"),
    ("models.kl_us", "models.kl"),
    ("models.edge_auc_us", "models.edge_auc"),
    ("autodiff.backward_us", "autodiff.backward"),
    ("optim.step_us", "optim.step"),
    ("train.loop_us", "train.loop"),
)
PER_LAYER = tuple((name, "us", "lower") for name, _ in SPAN_METRICS) + (
    ("smiles.rejected", "count", "higher"),
    ("gnn.normalize_calls", "count", "lower"),
    ("gnn.normalize_repeat_frac", "1", "lower"),
    ("autodiff.tape_records", "count", "lower"),
    ("autodiff.matmul_calls", "count", "lower"),
    ("autodiff.matmul_flops", "flop", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("trace.overhead_frac", "1", "lower"),
    ("quality.vgae_auc", "1", "higher"),
)

DIMS = (16, 16, 16)
DEPTH = 3
LEARNING_RATE = 0.01
SETUP_REPS = 7
MIN_ROUNDS = 3
GAE_AUC_FLOOR = 0.6
QUALITY_INITS = 3  # gae_auc averages GAE models from this many seeded initializations
FINAL_EPOCHS_SHARE = 0.5  # the final objective is the median over this share of the epochs


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    epochs: int  # epochs per timed training call
    embed_chunk: int  # lines per embed chunk
    embed_chunks_per_round: int
    eval_passes_per_round: int
    traced_embed_chunks: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-train",
            "the paper's regime: 30 tiny molecules, where fixed per-step costs dominate",
            epochs=20, embed_chunk=30, embed_chunks_per_round=30,
            eval_passes_per_round=30,
            traced_embed_chunks=1,
        ),
        Workload(
            "large-train",
            "12 backbone molecules of 100-190 atoms, where the N x N decode, loss and backward dominate",
            epochs=8, embed_chunk=12, embed_chunks_per_round=6,
            eval_passes_per_round=1,
            traced_embed_chunks=1,
        ),
        Workload(
            "library-embed",
            "thousands of new molecules on the read path, where parsing, rings and partitioning dominate",
            epochs=10, embed_chunk=100, embed_chunks_per_round=8,
            eval_passes_per_round=1,
            traced_embed_chunks=3,
        ),
    )
}

LARGE_EMBED = 48  # large-train embeds this many molecules besides its training set
# library-embed trains on and evaluates molecules picked by size quantile.
LIBRARY_TRAIN = 24
LIBRARY_EVAL = 60


class CheckFailed(Exception):
    """An output check failed."""


@dataclasses.dataclass
class Inputs:
    train_path: Path
    embed_path: Path
    planted: frozenset[int]  # line numbers expected to be rejected
    embed_lines: list[tuple[int, str, str]]  # (line number, SMILES, name)
    eval_set: list
    regime: dict


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _split_line(text: str) -> tuple[str, str]:
    parts = text.split(None, 1)
    return parts[0], parts[1].strip() if len(parts) > 1 else parts[0]


def _regime(graphs: list, planted: int) -> dict:
    atoms = sorted(g.num_atoms for g in graphs)
    groups = sorted(len(models.MoleculeData.from_graph(g).group_set) for g in graphs)
    return {
        "molecules": len(graphs),
        "atoms_p50": atoms[len(atoms) // 2],
        "atoms_max": atoms[-1],
        "groups_p50": groups[len(groups) // 2],
        "groups_max": groups[-1],
        "rings_total": sum(g.ring_count for g in graphs),
        "planted_lines": planted,
    }


def _by_size_quantile(records: list, count: int) -> list:
    """``count`` records at evenly spaced atom-count quantiles, so every seed
    gives a set with the same size profile."""
    ranked = sorted(records, key=lambda r: (r.graph.num_atoms, r.line_number))
    if len(ranked) <= count:
        return ranked
    return [ranked[int((k + 0.5) * len(ranked) / count)] for k in range(count)]


def _read(path: Path, planted: list[int]) -> list:
    """``load_molecules`` records of ``path``, checking that exactly the
    ``planted`` lines were rejected, each with SmilesError."""
    records = molgraph.load_molecules(path)
    rejected = {r.line_number for r in records if r.error is not None}
    if rejected != set(planted):
        raise CheckFailed(
            f"{path.name}: load_molecules rejected lines {sorted(rejected ^ set(planted))[:5]} against the plan"
        )
    if any(r.error is not None and not isinstance(r.error, smiles.SmilesError) for r in records):
        raise CheckFailed(f"{path.name}: a line was rejected with something other than SmilesError")
    return records


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Write the workload's molecule files and read them back the way the
    program does. Nothing here is timed."""
    OUT.mkdir(exist_ok=True)
    planted: list[int] = []
    if workload.name == "corpus-train":
        train_path = embed_path = CORPUS
    elif workload.name == "large-train":
        train_path = OUT / "large-train.smi"
        train_path.write_text(gen.large_molecules(seed), encoding="utf-8")
        embed_path = OUT / "large-train-embed.smi"
        embed_path.write_text(gen.large_molecules(seed, count=LARGE_EMBED), encoding="utf-8")
    else:
        text, planted = gen.library(seed)
        embed_path = OUT / "library-embed.smi"
        embed_path.write_text(text, encoding="utf-8")

    records = _read(embed_path, planted)
    valid = [r for r in records if r.graph is not None]
    if workload.name == "library-embed":
        train_path = OUT / "library-embed-train.smi"
        train_lines = [r.text for r in _by_size_quantile(valid, LIBRARY_TRAIN)]
        train_path.write_text("\n".join(train_lines) + "\n", encoding="utf-8")
        eval_records = _by_size_quantile(valid, LIBRARY_EVAL)
    else:
        eval_records = _read(train_path, [])
    return Inputs(
        train_path=train_path,
        embed_path=embed_path,
        planted=frozenset(planted),
        embed_lines=[(r.line_number, *_split_line(r.text)) for r in records],
        eval_set=[models.MoleculeData.from_graph(r.graph) for r in eval_records],
        regime={
            "train": _regime([r.graph for r in _read(train_path, [])], 0),
            "embed": _regime([r.graph for r in valid], len(planted)),
        },
    )


def fresh_import() -> None:
    """Import ``moltiers`` anew, as a new process would (its bytecode is
    cached), then put back the modules this process already uses."""
    def ours(name: str) -> bool:
        return name == "moltiers" or name.startswith("moltiers.")

    kept = {name: module for name, module in sys.modules.items() if ours(name)}
    for name in kept:
        del sys.modules[name]
    try:
        importlib.import_module("moltiers")
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(kept)


class Run:
    """One workload in one process: set-up, warm-up, then timed passes."""

    def __init__(self, workload: Workload, seed: int, inputs: Inputs):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.config = train.TrainConfig(
            dims=DIMS, depth=DEPTH, learning_rate=LEARNING_RATE,
            epochs=workload.epochs, seed=seed,
        )
        self.checkpoint_path = OUT / f"{workload.name}-checkpoint.json"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.dataset: list = []
        self.params = None
        self.reference: dict[str, list] = {}
        self.rejected_lines: set[int] = set()
        self.samples: dict[str, list] = {}
        self.raw: dict[str, float] = {}  # end-to-end timings before scaling

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"perfbench CHECK FAILED: {text}", file=sys.stderr)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Import ``moltiers``, parse and partition the training set, save the
        seeded initial GAE parameters and load them back. Repeated; returns
        the median time."""
        times, scales = [], []
        for _ in range(SETUP_REPS):
            scales.append(machine.reference_pass() / machine.REFERENCE_S)
            start = clock()
            fresh_import()
            records = molgraph.load_molecules(self.inputs.train_path)
            dataset = [models.MoleculeData.from_graph(r.graph) for r in records if r.graph is not None]
            initial = models.TieredGaeParams.init(np.random.default_rng(self.seed), DIMS, DEPTH)
            checkpoint.save_checkpoint(initial, self.checkpoint_path)
            params = checkpoint.load_checkpoint(self.checkpoint_path)
            times.append(clock() - start)
        if len(dataset) != len(records):
            raise CheckFailed("the training file has lines the parser rejects")
        self.dataset, self.params = dataset, params
        self.samples.update(setup_s=times, setup_scale=scales)
        self.raw["setup_s"] = statistics.median(times)
        return statistics.median(t / scale for t, scale in zip(times, scales))

    # -- the phases ----------------------------------------------------------

    def train_call(self, kind: str) -> tuple[float, object]:
        """One training call; returns (seconds, params) and checks its trace
        against the warm-up call's, bit for bit."""
        steps = self.config.epochs * len(self.dataset)
        self.attempted += steps
        function = train.train_gae if kind == "gae" else train.train_vgae
        start = clock()
        try:
            params, trace = function(self.dataset, self.config)
        except Exception:
            self.failed += steps
            self.problem(f"{kind} training raised:\n{traceback.format_exc()}")
            return clock() - start, None
        seconds = clock() - start
        if kind not in self.reference:
            self.reference[kind] = trace
        elif trace != self.reference[kind]:
            self.failed += steps
            self.problem(f"{kind} trace differs from the first call's trace")
        return seconds, params

    def check_training(self, kind: str, traces: list[list]) -> None:
        """Every trace is finite, and training improved the objective (GAE
        loss, VGAE negative ELBO) of the epoch-wise mean of ``traces``: its
        median over the second half of the epochs beats the first epoch. The
        last epoch alone is too noisy: a VGAE epoch's ELBO is a one-sample
        estimate, and GAE training at lr 0.01 has loss spikes a few epochs
        long. The mean over models keeps one initialization that stops
        learning from failing the run; a program that stops learning still
        fails it."""
        if kind == "vgae":
            values = [[row.elbo for row in trace] + [row.kl for row in trace] for trace in traces]
            traces = [[-row.elbo for row in trace] for trace in traces]
        else:
            values = traces
        if not all(np.isfinite(v).all() for v in values):
            self.problem(f"{kind} trace has non-finite values")
            return
        mean_trace = [statistics.mean(epoch) for epoch in zip(*traces)]
        tail = mean_trace[-max(1, round(len(mean_trace) * FINAL_EPOCHS_SHARE)):]
        first, final = mean_trace[0], statistics.median(tail)
        if not final < first:
            self.problem(f"{kind} objective did not improve: first epoch {first}, final {final}")

    def embed_chunk(self, index: int, latencies: dict[int, list[float]]) -> tuple[int, float]:
        """Embed chunk ``index`` (cyclic) line by line; returns (molecules
        embedded, seconds spent in ``embed_one``) and records each molecule's
        latency under its line number. Planted lines must raise SmilesError,
        others must not."""
        size = self.workload.embed_chunk
        lines = self.inputs.embed_lines
        first = index * size
        chunk = [lines[(first + k) % len(lines)] for k in range(min(size, len(lines)))]
        embedded = 0
        busy = 0.0
        for line_number, text, name in chunk:
            planted = line_number in self.inputs.planted
            if not planted:
                self.attempted += 1
            start = clock()
            try:
                embeddings, error = pipeline.embed_one(self.params, text, name)
            except Exception:
                self.failed += 1
                self.problem(f"line {line_number} raised:\n{traceback.format_exc()}")
                continue
            elapsed = clock() - start
            busy += elapsed
            if planted:
                if error is None:
                    self.problem(f"planted line {line_number} was accepted")
                else:
                    self.rejected_lines.add(line_number)
                continue
            if error is not None:
                self.failed += 1
                self.problem(f"line {line_number} was rejected: {error}")
                continue
            wrong = pipeline.embedding_problem(embeddings, DIMS)
            if wrong:
                self.failed += 1
                self.problem(f"line {line_number}: {wrong}")
                continue
            embedded += 1
            latencies.setdefault(line_number, []).append(elapsed)
        return embedded, busy

    def eval_pass(self) -> tuple[int, float]:
        """``mean_edge_auc`` of the loaded checkpoint over the eval set;
        returns (molecules, seconds)."""
        chunk = self.inputs.eval_set
        self.attempted += len(chunk)
        start = clock()
        try:
            auc = models.mean_edge_auc(self.params, chunk)
        except Exception:
            self.failed += len(chunk)
            self.problem(f"mean_edge_auc raised:\n{traceback.format_exc()}")
            return len(chunk), clock() - start
        seconds = clock() - start
        if not 0.0 <= auc <= 1.0:
            self.failed += len(chunk)
            self.problem(f"mean_edge_auc returned {auc}")
        return len(chunk), seconds

    def warm_up(self) -> dict:
        """Untimed first calls of each phase. GAE runs from several seeded
        initializations give ``gae_auc``, their mean AUC; the first model is
        saved and loaded back, and embed and eval use it from here on, as ``moltiers embed`` would after ``moltiers train``
        (an untrained model can saturate every edge probability, which
        changes what ``edge_auc`` costs). The first timed-length calls fix the
        reference traces."""
        aucs, gae_traces = [], []
        for k in range(QUALITY_INITS):
            config = dataclasses.replace(self.config, seed=self.seed * QUALITY_INITS + k)
            try:
                gae_params, gae_trace = train.train_gae(self.dataset, config)
            except Exception:
                self.problem(f"gae training raised:\n{traceback.format_exc()}")
                continue
            gae_traces.append(gae_trace)
            aucs.append(models.mean_edge_auc(gae_params, self.dataset))
            if k == 0:
                checkpoint.save_checkpoint(gae_params, self.checkpoint_path)
                self.params = checkpoint.load_checkpoint(self.checkpoint_path)
        quality = {"gae": statistics.mean(aucs) if aucs else float("nan"), "vgae": float("nan")}
        self.train_call("gae")
        _, vgae_params = self.train_call("vgae")
        if vgae_params is not None:
            quality["vgae"] = models.mean_edge_auc(vgae_params, self.dataset)
        for kind, traces in (("gae", gae_traces + [self.reference.get("gae")]),
                             ("vgae", [self.reference.get("vgae")])):
            traces = [trace for trace in traces if trace is not None]
            if traces:
                self.check_training(kind, traces)
        self.embed_chunk(0, {})
        self.eval_pass()
        if not quality["gae"] > GAE_AUC_FLOOR:
            self.problem(f"gae_auc {quality['gae']} is not above the floor {GAE_AUC_FLOOR}")
        if not 0.0 <= quality["vgae"] <= 1.0:
            self.problem(f"vgae_auc {quality['vgae']} is not in [0, 1]")
        return quality

    # -- the two modes ---------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Rounds of every phase until ``seconds`` pass. A reference pass
        runs before each phase; the median of a round's four gives the
        machine's speed during that round, and the round's timings are scaled
        to a machine on which the pass takes ``machine.REFERENCE_S``. Each
        throughput is the median over rounds of the round's work divided by
        its scaled busy time. Latency percentiles are taken over molecules,
        each molecule's latency being its median scaled time."""
        steps = self.config.epochs * len(self.dataset)
        names = ("gae_steps_per_s", "vgae_steps_per_s", "embed_mols_per_s", "eval_mols_per_s")
        raw: dict[str, list[float]] = {name: [] for name in names}
        scales: list[float] = []
        latencies: dict[int, list[float]] = {}
        raw_latencies: dict[int, list[float]] = {}
        chunk_index = 0
        start = clock()
        while len(scales) < MIN_ROUNDS or clock() - start < seconds:
            references = [machine.reference_pass()]
            raw["gae_steps_per_s"].append(steps / self.train_call("gae")[0])
            references.append(machine.reference_pass())
            raw["vgae_steps_per_s"].append(steps / self.train_call("vgae")[0])
            references.append(machine.reference_pass())
            embedded, busy, round_latencies = 0, 0.0, {}
            for _ in range(self.workload.embed_chunks_per_round):
                count, seconds_in = self.embed_chunk(chunk_index, round_latencies)
                embedded, busy = embedded + count, busy + seconds_in
                chunk_index += 1
            raw["embed_mols_per_s"].append(embedded / busy)
            references.append(machine.reference_pass())
            evaluated, busy = 0, 0.0
            for _ in range(self.workload.eval_passes_per_round):
                count, seconds_in = self.eval_pass()
                evaluated, busy = evaluated + count, busy + seconds_in
            raw["eval_mols_per_s"].append(evaluated / busy)
            scale = statistics.median(references) / machine.REFERENCE_S
            scales.append(scale)
            for line, values in round_latencies.items():
                raw_latencies.setdefault(line, []).extend(values)
                latencies.setdefault(line, []).extend(value / scale for value in values)
        self.samples.update(raw, round_scale=scales)
        metrics = {
            name: statistics.median(rate * scale for rate, scale in zip(raw[name], scales))
            for name in names
        }
        for source, prefix in ((latencies, ""), (raw_latencies, "raw_")):
            per_molecule_ms = np.array([statistics.median(v) for v in source.values()]) * 1e3
            self.samples[f"{prefix}embed_ms_per_molecule"] = per_molecule_ms.tolist()
            percentiles = {"embed_ms_p50": float(np.percentile(per_molecule_ms, 50)),
                           "embed_ms_p99": float(np.percentile(per_molecule_ms, 99))}
            (metrics if source is latencies else self.raw).update(percentiles)
        self.raw.update({name: statistics.median(values) for name, values in raw.items()})
        metrics.update({
            "_rounds": len(scales),
            "_round_scale_median": statistics.median(scales),
            "_embed_molecules": len(latencies),
            "_embed_samples": sum(len(v) for v in latencies.values()),
        })
        return metrics

    def fixed_pass(self) -> float:
        """The traced unit of work: one call of each phase."""
        start = clock()
        _, params = self.train_call("gae")
        self.train_call("vgae")
        if params is not None:
            checkpoint.save_checkpoint(params, self.checkpoint_path)
            checkpoint.load_checkpoint(self.checkpoint_path)
        for index in range(self.workload.traced_embed_chunks):
            self.embed_chunk(index, {})
        self.eval_pass()
        return clock() - start

    def trace(self, seconds: float) -> tuple[dict, Tracer]:
        """Alternate the fixed pass untraced and traced until ``seconds``
        pass; per-layer metrics come from the traced passes."""
        plain, traced, tracers = [], [], []
        start = clock()
        while not tracers or clock() - start < seconds:
            plain.append(self.fixed_pass())
            tracer = Tracer()
            with tracer:
                traced.append(self.fixed_pass())
            tracers.append(tracer)
        metrics = layer_metrics(tracers, self.checkpoint_path)
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics["_passes"] = len(tracers)
        return metrics, tracers[-1]


def layer_metrics(tracers: list[Tracer], checkpoint_path: Path) -> dict:
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for tracer in tracers:
        for source, target in ((tracer.self_times(), self_s), (tracer.calls(), calls),
                               (tracer.counts, counts)):
            for key, value in source.items():
                target[key] = target.get(key, 0) + value
    units = sum(t.units for t in tracers)
    metrics = {name: self_s.get(span, 0.0) * 1e6 / units for name, span in SPAN_METRICS}
    normalize_calls = counts.get("normalize_calls", 0)
    metrics.update({
        "smiles.rejected": counts.get("parse_rejected", 0) / len(tracers),
        "gnn.normalize_calls": normalize_calls / units,
        "gnn.normalize_repeat_frac": counts.get("normalize_repeats", 0) / max(1, normalize_calls),
        "autodiff.tape_records": counts.get("tape_records", 0) / max(1, counts.get("backward_calls", 0)),
        "autodiff.matmul_calls": counts.get("matmul_calls", 0) / units,
        "autodiff.matmul_flops": counts.get("matmul_flops", 0) / units,
        "checkpoint.save_s": self_s.get("checkpoint.save", 0.0) / max(1, calls.get("checkpoint.save", 0)),
        "checkpoint.load_s": self_s.get("checkpoint.load", 0.0) / max(1, calls.get("checkpoint.load", 0)),
        "checkpoint.bytes": float(checkpoint_path.stat().st_size),
        "_units": units,
    })
    return metrics


def phase_shares(tracer: Tracer) -> dict:
    """Share of self time per span name within each root phase (the
    outermost span: a training call, an embedded line, an eval call or a
    checkpoint call)."""
    return {
        root: {name: value / sum(times.values()) for name, value in sorted(times.items())}
        for root, times in tracer.self_times_by_root().items()
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, declared) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, *_ in declared},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="moltiers benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        inputs = build_inputs(workload, args.seed)
    except CheckFailed as err:
        print(f"perfbench CHECK FAILED: {err}", file=sys.stderr)
        return 1
    info = {
        "workload": workload.name, "why": workload.why, "trace": args.trace,
        **machine.machine_info(), "corpus_sha256": sha256(CORPUS),
        "inputs_sha256": sha256(inputs.embed_path), "seed": args.seed, "regime": inputs.regime,
    }
    run = Run(workload, args.seed, inputs)
    try:
        setup_s = run.setup()
    except CheckFailed as err:
        print(f"perfbench CHECK FAILED: {err}", file=sys.stderr)
        return 1
    quality = run.warm_up()

    if args.trace:
        metrics, tracer = run.trace(args.seconds)
        declared = PER_LAYER
        tracer.write_spans(OUT / f"{workload.name}.spans.jsonl")
        info["phase_shares"] = phase_shares(tracer)
        metrics["quality.vgae_auc"] = quality["vgae"]
    else:
        metrics = run.measure(args.seconds)
        metrics.update({
            "setup_s": setup_s,
            "gae_auc": quality["gae"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        declared = END_TO_END
    missing = set(inputs.planted) - run.rejected_lines
    if missing and not args.trace:
        run.problem(f"planted lines never reached the embed loop: {sorted(missing)[:5]}")
    info.update({k[1:]: v for k, v in metrics.items() if k.startswith("_")})
    info["unscaled"] = run.raw
    info["problems"] = run.problems

    (OUT / f"{workload.name}.trace{args.trace}.json").write_text(
        json.dumps({"info": info, "metrics": metrics, "samples": run.samples}, sort_keys=True) + "\n",
        encoding="utf-8")
    for name, unit, *_ in declared:
        print(f"{workload.name} {name}: {metrics[name]:.6g} {unit}")
    print(json.dumps(info, sort_keys=True))
    correct = not run.problems
    print(result_line(correct, run.attempted, run.failed, metrics, declared))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
