"""Outside-in tracer: wraps the program's public functions, records spans.

Modules in ``moltiers`` import each other's functions by name, so patching a
function only where it is defined misses most callers: ``models`` calls its
own ``gnn_forward`` and ``partition`` bindings, ``molgraph`` its own
``shortest_cycle_basis``, ``train`` its own ``gae_loss``. :meth:`Tracer.install`
therefore replaces every module-level binding of each target function, in
every loaded ``moltiers`` module and in the benchmark's ``pipeline`` module,
and :meth:`Tracer.uninstall` puts every original back. Methods are patched on
their class.

A span is ``[name, start, end, parent, unit]``. ``unit`` numbers the training
step or molecule the span belongs to: a new unit starts when a unit-opening
span (a loss evaluation, an embedded molecule, an encode outside those)
opens while no unit is open. Spans stay in memory until :meth:`write_spans`.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

TIER_NAMES = ("atom", "group", "molecule")

# (module, attribute, span name, kind). Kinds: "span" plain, "unit" opens a
# unit, "encode" opens a unit and restarts tier numbering, "tier" names the
# span by tier, "normalize"/"backward"/"parse" add counters to a span,
# "count" counts matmul calls and flops without a span.
TARGETS = (
    ("moltiers.smiles", "parse_smiles", "smiles.parse", "parse"),
    ("moltiers.cycles", "shortest_cycle_basis", "cycles.basis", "span"),
    ("moltiers.molgraph", "MolecularGraph.__init__", "molgraph.build", "span"),
    ("moltiers.molgraph", "featurize_nodes", "molgraph.featurize", "span"),
    ("moltiers.grouping", "partition", "grouping.partition", "span"),
    ("moltiers.grouping", "build_membership", "grouping.membership", "span"),
    ("moltiers.grouping", "graph_membership", "grouping.membership", "span"),
    ("moltiers.models", "encode_tiered", "models.encode", "encode"),
    ("moltiers.models", "encode_tiered_variational", "models.encode", "encode"),
    ("moltiers.gnn", "gnn_forward", "gnn.forward", "tier"),
    ("moltiers.gnn", "gnn_forward_variational", "gnn.forward", "tier"),
    ("moltiers.gnn", "normalize_adjacency", "gnn.normalize", "normalize"),
    ("moltiers.pooling", "diff_group_pool", "pooling.pool", "span"),
    ("moltiers.models", "decode", "models.decode", "span"),
    ("moltiers.models", "reconstruction_loss", "models.loss", "span"),
    ("moltiers.models", "kl_standard_normal", "models.kl", "span"),
    ("moltiers.models", "edge_auc", "models.edge_auc", "span"),
    ("moltiers.models", "mean_edge_auc", "models.eval", "span"),
    ("moltiers.models", "gae_loss", "models.step", "unit"),
    ("moltiers.models", "vgae_losses", "models.step", "unit"),
    ("moltiers.autodiff", "backward", "autodiff.backward", "backward"),
    ("moltiers.autodiff", "matmul", "autodiff.matmul", "count"),
    ("moltiers.optim", "Adam.step", "optim.step", "span"),
    ("moltiers.optim", "SGD.step", "optim.step", "span"),
    ("moltiers.train", "train_gae", "train.loop", "span"),
    ("moltiers.train", "train_vgae", "train.loop", "span"),
    ("moltiers.checkpoint", "save_checkpoint", "checkpoint.save", "span"),
    ("moltiers.checkpoint", "load_checkpoint", "checkpoint.load", "span"),
    ("pipeline", "embed_one", "embed.molecule", "unit"),
)

WRAPPED_MARK = "__perfbench_wrapped__"


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name) for ``module.attr`` or ``module.Class.attr``."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _bindings(original) -> list[tuple[object, str]]:
    """Every module-level name in loaded moltiers modules and the pipeline
    module bound to ``original``."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "moltiers" or module_name.startswith("moltiers.")
                                  or module_name == "pipeline"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                found.append((module, name))
    return found


class Tracer:
    """Records spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._unit = 0
        self._open_units = 0
        self._tier = 0
        self._seen_adjacency: set[tuple] = set()
        self._probe = np.random.default_rng(0).standard_normal(4096)
        self._tape_size = None

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        from moltiers import autodiff

        self._tape_size = autodiff.tape_size
        try:
            for module_name, attr, span_name, kind in TARGETS:
                owner, name = _resolve(module_name, attr)
                original = vars(owner)[name]
                wrapper = self._wrap(original, span_name, kind)
                sites = [(owner, name)]
                if not isinstance(owner, type):
                    sites += [site for site in _bindings(original) if site != (owner, name)]
                for site_owner, site_name in sites:
                    self._patches.append((site_owner, site_name, original))
                    setattr(site_owner, site_name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, original, span_name: str, kind: str):
        if kind == "count":
            counts = self.counts

            @functools.wraps(original)
            def counter(a, b):
                (m, k), n = a.shape, b.shape[1]
                counts["matmul_calls"] += 1
                counts["matmul_flops"] += 2 * m * k * n
                return original(a, b)

            setattr(counter, WRAPPED_MARK, True)
            return counter

        spans, stack, counts = self.spans, self._stack, self.counts
        opens_unit = kind in ("unit", "encode")
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = span_name
            if kind == "tier":
                name = f"{span_name}.{TIER_NAMES[min(self._tier, 2)]}"
                self._tier += 1
            elif kind == "encode":
                self._tier = 0
            elif kind == "backward":
                counts["backward_calls"] += 1
                counts["tape_records"] += self._tape_size()
            elif kind == "normalize":
                self._note_adjacency(args[0] if args else kwargs["adjacency"])
            if opens_unit:
                if self._open_units == 0:
                    self._unit += 1
                self._open_units += 1
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self._unit])
            stack.append(index)
            spans[index][1] = clock()
            try:
                return original(*args, **kwargs)
            except Exception:
                if kind == "parse":
                    counts["parse_rejected"] += 1
                raise
            finally:
                spans[index][2] = clock()
                stack.pop()
                if opens_unit:
                    self._open_units -= 1

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _note_adjacency(self, adjacency) -> None:
        """Count normalize calls and those on an adjacency already seen this
        pass. The key is the shape plus two linear checksums, which is cheap
        enough for the hot path and collides only by coincidence."""
        a = np.asarray(adjacency, dtype=np.float64)
        self.counts["normalize_calls"] += 1
        if a.ndim != 2 or a.shape[0] > self._probe.size or a.shape[1] > self._probe.size:
            return
        probe = self._probe
        key = (a.shape, float(a.sum()), float(probe[: a.shape[0]] @ a @ probe[-a.shape[1]:]))
        if key in self._seen_adjacency:
            self.counts["normalize_repeats"] += 1
        else:
            self._seen_adjacency.add(key)

    # -- results ---------------------------------------------------------

    @property
    def units(self) -> int:
        return self._unit

    def self_times_by_root(self) -> dict[str, dict[str, float]]:
        """Total self time in seconds per span name, grouped by the name of
        each span's outermost ancestor."""
        roots: list[str] = []
        child_total = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            roots.append(name if parent < 0 else roots[parent])
            if parent >= 0:
                child_total[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, _), root, children in zip(self.spans, roots, child_total):
            totals[root][name] += (end - start) - children
        return {root: dict(times) for root, times in totals.items()}

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        totals: dict[str, float] = defaultdict(float)
        for times in self.self_times_by_root().values():
            for name, value in times.items():
                totals[name] += value
        return dict(totals)

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[0]] += 1
        return dict(counts)

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end (seconds), parent index
        (-1 for roots), unit id."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
