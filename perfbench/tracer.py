"""Timing spans around the calls into each ``graphmgs`` layer.

``Tracer.patch`` replaces a function in every ``graphmgs`` module that holds
it: ``from .similarity import structural_similarity`` copies the binding into
``training``, so patching ``similarity`` alone would miss the calls made from
``training``.  Spans nest on a stack; a span's self time is its duration minus
the time its child spans cover.  Spans are kept in memory and written out by
``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# embed_graph spans are labelled by the span that called them
EMBED_LABELS = {"training.pretrain": "train", "similarity.build_pair_set": "nograd",
                "models.classify": "classify"}


class Stat:
    __slots__ = ("calls", "self_ns", "durations_ns", "counters")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.durations_ns = []
        self.counters = {}


class Tracer:
    def __init__(self):
        self.spans = []             # (id, parent id or -1, name, start_ns, end_ns)
        self.stats = {}             # name -> Stat
        self._stack = []            # [id, name, start_ns, child_ns]
        self._patched = []          # (module, attribute, original)

    def _enter(self, name: str) -> None:
        # every span started so far is either finished or still on the stack
        self._stack.append([len(self.spans) + len(self._stack), name,
                            time.perf_counter_ns(), 0])

    def _exit(self, counters: dict | None) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else -1, name, start, end))
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.self_ns += duration - child_ns
        stat.durations_ns.append(duration)
        for key, value in (counters or {}).items():
            stat.counters[key] = stat.counters.get(key, 0) + value

    def parent_name(self) -> str:
        return self._stack[-1][1] if self._stack else ""

    def wrap(self, name: str, fn, counters=None, label=None):
        """``fn`` inside a span; ``counters(*args)`` is read before the call and
        ``label()`` names the span from the current stack."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(label() if label else name)
            try:
                counts = counters(*args, **kwargs) if counters else None
                return fn(*args, **kwargs)
            finally:
                self._exit(counts)
        return traced

    def patch(self, module, attribute: str, counters=None, label=None) -> None:
        """Wrap ``module.attribute`` in every loaded ``graphmgs`` module bound to it."""
        original = getattr(module, attribute)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attribute}"
        traced = self.wrap(name, original, counters, label)
        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("graphmgs"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    self._patched.append((mod, attr, original))

    def unpatch(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def metrics(self, name: str, stats=("calls", "self_s")) -> dict:
        """``{<name>.<stat>: value}``; a function never called reports zeros."""
        stat = self.stats.get(name, Stat())
        durations = np.asarray(stat.durations_ns, dtype=np.float64) / 1e3
        out = {}
        for key in stats:
            if key == "calls":
                value = stat.calls
            elif key == "self_s":
                value = stat.self_ns / 1e9
            elif key == "p50_us":
                value = float(np.percentile(durations, 50)) if len(durations) else 0.0
            elif key == "p95_us":
                value = float(np.percentile(durations, 95)) if len(durations) else 0.0
            else:
                value = stat.counters.get(key, 0)
            out[f"{name}.{key}"] = value
        return out

    def write_spans(self, path) -> None:
        """One CSV row per span: id, parent id (-1 at the root), name, start and end
        in nanoseconds of ``time.perf_counter_ns``."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for row in sorted(self.spans):
                fh.write("%d,%d,%s,%d,%d\n" % row)


def instrument(tracer: Tracer) -> None:
    """Patch the layer functions the per-layer metrics name."""
    from graphmgs import fingerprints, models, similarity, spectral, synthetic, tensor, training

    def soft_rank_counts(a, tau):
        pairs = int(np.shape(getattr(a, "data", a))[0])
        return {"pairs": pairs, "computed_bytes": 3 * pairs * pairs * 8}

    def embed_label():
        return "models.embed_graph." + EMBED_LABELS.get(tracer.parent_name(), "other")

    tracer.patch(synthetic, "generate_synthetic")
    tracer.patch(fingerprints, "topological_fingerprint")
    tracer.patch(fingerprints, "morgan_fingerprint")
    tracer.patch(spectral, "laplacian")
    tracer.patch(spectral, "symmetric_eigenvalues")
    tracer.patch(tensor, "soft_rank", counters=soft_rank_counts)
    tracer.patch(tensor, "backward", counters=lambda loss: {"tape_nodes": tensor.tape_size()})
    tracer.patch(tensor, "adam_step")
    tracer.patch(training, "pgm_loss")
    tracer.patch(training, "pretrain")
    tracer.patch(training, "finetune")
    tracer.patch(training, "evaluate_mgs")
    tracer.patch(models, "embed_graph", label=embed_label)
    tracer.patch(models, "classify")
    for fn in ("build_pair_set", "structural_similarity", "cosine_similarity", "mgs"):
        tracer.patch(similarity, fn)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of ``BENCHMARK.json``, except ``trace.overhead_s``."""
    out = {}
    timing = ("calls", "self_s", "p50_us", "p95_us")
    out.update(tracer.metrics("fingerprints.topological_fingerprint", timing))
    out.update(tracer.metrics("fingerprints.morgan_fingerprint"))
    out.update(tracer.metrics("spectral.laplacian"))
    out.update(tracer.metrics("spectral.symmetric_eigenvalues", timing))
    out.update(tracer.metrics("tensor.soft_rank", ("calls", "self_s", "pairs", "computed_bytes")))
    out.update(tracer.metrics("tensor.backward", ("calls", "self_s", "tape_nodes")))
    out.update(tracer.metrics("training.pgm_loss"))
    out.update(tracer.metrics("tensor.adam_step"))
    out.update(tracer.metrics("models.embed_graph.train"))
    out.update(tracer.metrics("models.embed_graph.nograd"))
    out.update(tracer.metrics("models.classify"))
    for fn in ("build_pair_set", "structural_similarity", "cosine_similarity", "mgs"):
        out.update(tracer.metrics(f"similarity.{fn}"))
    out.update(tracer.metrics("synthetic.generate_synthetic", ("self_s",)))
    return out
