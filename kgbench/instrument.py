"""Timing probes and the per-layer tracer, installed from outside src/.

Both work by replacing attributes of the imported kgembed modules with
wrappers and putting the originals back afterwards; no file of the library
is edited. A function imported by name into another module (for example
`compute_ranks` in `pipeline` and `hpo`) is replaced in every module that
holds it, so calls are seen whichever path makes them.

Probe: always installed while a round runs. It wraps only
`training.train_epoch` and `evaluation.compute_ranks`, a handful of calls
per job, and records their start, end and `getrusage` deltas. That splits a
round into set-up, training and evaluation time.

Tracer: installed only in traced rounds. It wraps every public function,
public method and constructor of the library's modules and records one span
per call (name, layer, start, end, parent span). Per-layer metrics are
computed from the spans after the round.
"""

import functools
import importlib
import inspect
import resource
import statistics
import time

import numpy as np

LAYERS = ("datasets", "sampling", "autodiff", "models", "losses", "training",
          "evaluation", "hpo", "pipeline", "cli", "reporting")

KINDS = ("um", "se", "transe", "transh", "transr", "transd", "rescal",
         "distmult", "complex", "rotate", "simple", "tucker", "proje", "hole",
         "kg2e", "ermlp", "ntn", "convkb", "conve")

PER_LAYER_METRICS = (
    ("datasets.load_s", "s"),
    ("datasets.filter_index_s", "s"),
    ("datasets.filter_index_builds", "count"),
    ("sampling.corrupt_s", "s"),
    ("sampling.false_negatives", "count"),
    ("sampling.self_negatives", "count"),
    ("checks.excused_negatives", "count"),
    ("sampling.lcwa_task_s", "s"),
    ("sampling.label_matrix_s", "s"),
    ("models.score_triples_s", "s"),
    ("models.score_tails_s", "s"),
    ("models.score_heads_s", "s"),
    ("losses.loss_s", "s"),
    ("autodiff.backward_s", "s"),
    ("autodiff.ops", "count"),
    ("training.optimizer_s", "s"),
    ("training.minflt", "count"),
    ("training.sys_s", "s"),
    ("evaluation.rank_s", "s"),
    ("evaluation.mask_s", "s"),
    ("evaluation.minflt", "count"),
    ("hpo.trial_s", "s"),
    ("pipeline.artifacts_s", "s"),
    ("trace.overhead_s", "s"),
) + tuple((f"training.epoch_s.{kind}", "s") for kind in KINDS)


def library_modules():
    return {name: importlib.import_module(f"kgembed.{name}") for name in LAYERS}


def _usage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_minflt, r.ru_stime


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self, modules):
        self.modules = modules
        self._saved = []

    def replace(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def replace_function(self, original, wrapper):
        """Point every module attribute that holds `original` at `wrapper`."""
        for module in self.modules.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, name, wrapper)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Probe:
    """Start, end and page-fault counts of every epoch and every ranking."""

    def __init__(self, modules):
        self.modules = modules
        self.epochs = []      # (kind, start, end, minor faults, system seconds)
        self.rankings = []    # (start, end, minor faults)
        self._patches = Patches(modules)

    def install(self):
        probe = self
        train_epoch = self.modules["training"].train_epoch
        compute_ranks = self.modules["evaluation"].compute_ranks

        @functools.wraps(train_epoch)
        def timed_epoch(model, *args, **kwargs):
            f0, s0 = _usage()
            t0 = time.perf_counter()
            result = train_epoch(model, *args, **kwargs)
            t1 = time.perf_counter()
            f1, s1 = _usage()
            probe.epochs.append((model.kind, t0, t1, f1 - f0, s1 - s0))
            return result

        @functools.wraps(compute_ranks)
        def timed_ranks(*args, **kwargs):
            f0, _ = _usage()
            t0 = time.perf_counter()
            result = compute_ranks(*args, **kwargs)
            t1 = time.perf_counter()
            probe.rankings.append((t0, t1, _usage()[0] - f0))
            return result

        self._patches.replace_function(train_epoch, timed_epoch)
        self._patches.replace_function(compute_ranks, timed_ranks)

    def uninstall(self):
        self._patches.restore()

    def first_epoch_after(self, t):
        """Start of the first epoch that began at or after t."""
        starts = [start for _, start, _, _, _ in self.epochs if start >= t]
        if not starts:
            raise RuntimeError("the job trained no epoch")
        return min(starts)

    def totals(self):
        epochs, rankings = self.epochs, self.rankings
        per_kind = {}
        for kind, t0, t1, _, _ in epochs:
            per_kind.setdefault(kind, []).append(t1 - t0)
        return {
            "train_s": sum(t1 - t0 for _, t0, t1, _, _ in epochs),
            "eval_s": sum(t1 - t0 for t0, t1, _ in rankings),
            "training.minflt": sum(f for _, _, _, f, _ in epochs),
            "training.sys_s": sum(s for _, _, _, _, s in epochs),
            "evaluation.minflt": sum(f for _, _, f in rankings),
            "epoch_s": {k: statistics.median(v) for k, v in per_kind.items()},
        }


def _callables(module):
    """(owner, attribute, qualified name, raw attribute) for every public
    function, method and constructor defined in `module`."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, value in list(vars(module).items()):
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
            yield module, name, f"{layer}.{name}", value
        elif inspect.isclass(value):
            for attr, raw in list(vars(value).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if inspect.isfunction(func) and not inspect.isgeneratorfunction(func):
                    yield value, attr, f"{layer}.{name}.{attr}", raw


class Tracer:
    """One span per call of a public library callable, kept in memory."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []          # [name, layer, start, end, parent index]
        self._stack = []
        self._patches = Patches(modules)
        self.known_train = None  # checks.OwnGraph of the job being traced
        self.false_negatives = 0
        self.self_negatives = 0

    def _wrap(self, qualname, func):
        layer = qualname.split(".", 1)[0]
        spans, stack = self.spans, self._stack
        observe = self._observe_corrupt if qualname == "sampling.NegativeSampler.corrupt" \
            else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [qualname, layer, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if observe:
                observe(args[2], result)
            return result

        return traced

    def _observe_corrupt(self, positives, negatives):
        """Count negatives that are known training triples, and those equal to
        their own positive. `corrupt(self, rng, positives, K)` is called
        positionally throughout the library."""
        if self.known_train is not None:
            self.false_negatives += int(np.sum(
                self.known_train.is_known(negatives.reshape(-1, 3), train_only=True)))
        positives = np.asarray(positives).reshape(-1, 1, 3)
        self.self_negatives += int(np.sum(np.all(negatives == positives, axis=2)))

    def install(self):
        for module in self.modules.values():
            for owner, attr, qualname, raw in _callables(module):
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._wrap(qualname, raw.__func__))
                    self._patches.replace(owner, attr, wrapped)
                elif inspect.isclass(owner):
                    self._patches.replace(owner, attr, self._wrap(qualname, raw))
                else:
                    self._patches.replace_function(raw, self._wrap(qualname, raw))

    def uninstall(self):
        self._patches.restore()

    def layer_metrics(self):
        """Per-layer sums over the recorded spans (see PER_LAYER_METRICS)."""
        bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
        spans = self.spans
        above = [0] * len(spans)          # bitmask of layers among the ancestors
        in_train = [False] * len(spans)   # has a train_epoch ancestor
        in_rank = [-1] * len(spans)       # index of the enclosing compute_ranks
        in_run = [-1] * len(spans)        # index of the enclosing execute_run
        out = dict.fromkeys(("datasets.load_s", "datasets.filter_index_s",
                             "sampling.corrupt_s", "sampling.lcwa_task_s",
                             "sampling.label_matrix_s", "models.score_triples_s",
                             "models.score_tails_s", "models.score_heads_s",
                             "losses.loss_s", "autodiff.backward_s",
                             "training.optimizer_s", "evaluation.rank_s",
                             "hpo.trial_s", "pipeline.artifacts_s"), 0.0)
        builds = ops = epochs = 0
        rank_parts = 0.0
        artifacts_from = {}
        for i, (name, layer, t0, t1, parent) in enumerate(spans):
            if parent >= 0:
                pname, player = spans[parent][0], spans[parent][1]
                above[i] = above[parent] | bit[player]
                in_train[i] = in_train[parent] or pname == "training.train_epoch"
                in_rank[i] = parent if pname == "evaluation.compute_ranks" else in_rank[parent]
                in_run[i] = parent if pname == "pipeline.execute_run" else in_run[parent]
            outermost = not above[i] & bit[layer]
            d = t1 - t0
            method = name.rsplit(".", 1)[1]
            if name == "training.train_epoch":
                epochs += 1
            elif name == "autodiff.Graph.apply" and in_train[i]:
                ops += 1
            elif name == "autodiff.Graph.backward":
                out["autodiff.backward_s"] += d
            elif name == "datasets.FilterIndex.__init__":
                builds += 1
                out["datasets.filter_index_s"] += d
                if in_rank[i] >= 0:
                    rank_parts += d
            elif layer == "datasets" and outermost and (
                    method == "load_tsv" or method.startswith("from_")):
                out["datasets.load_s"] += d
            elif name == "sampling.NegativeSampler.corrupt":
                out["sampling.corrupt_s"] += d
            elif name == "sampling.LCWATask.__init__":
                out["sampling.lcwa_task_s"] += d
            elif name == "sampling.LCWATask.label_matrix":
                out["sampling.label_matrix_s"] += d
            elif layer == "models" and outermost and method.startswith("score_") \
                    and f"models.{method}_s" in out:
                out[f"models.{method}_s"] += d
                if in_rank[i] >= 0:
                    rank_parts += d
            elif layer == "losses" and outermost and method.endswith("_loss"):
                out["losses.loss_s"] += d
            elif method == "step" and layer == "training":
                out["training.optimizer_s"] += d
            elif name == "evaluation.compute_ranks":
                out["evaluation.rank_s"] += d
            elif name == "hpo.run_trial":
                out["hpo.trial_s"] += d
            elif name == "models.save_checkpoint":
                out["pipeline.artifacts_s"] += d
                if in_run[i] >= 0:
                    artifacts_from[in_run[i]] = t1
        for run, t in artifacts_from.items():
            # config.json and result.json are written after the checkpoint
            out["pipeline.artifacts_s"] += spans[run][3] - t
        out["datasets.filter_index_builds"] = builds
        out["evaluation.mask_s"] = out["evaluation.rank_s"] - rank_parts
        out["autodiff.ops"] = ops / epochs if epochs else 0
        out["sampling.false_negatives"] = self.false_negatives
        out["sampling.self_negatives"] = self.self_negatives
        return out
