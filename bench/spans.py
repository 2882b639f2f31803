"""In-memory span recorder and the wrappers that feed it.

The benchmark never edits the package: it replaces, for the duration of a
traced round, the module attributes and class methods that the package looks
up at call time with wrappers that record one span per call. A span is
(name, parent span, start, end); the parent is the innermost span still
open when the call began, so a function's self time is its duration minus
the durations of its direct children.

Spans go into flat ``array`` buffers, because the likelihood-free workload
makes about a million calls per round and a tuple per call would cost more
memory than the program it measures.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from importlib import import_module

import numpy as np

# ``hdsdm.standardize`` as an attribute is the function the package
# re-exports, so the modules are looked up by their import path.
bases, cli, mcmc, model, priors, standardize = (
    import_module(f"hdsdm.{m}")
    for m in ("bases", "cli", "mcmc", "model", "priors", "standardize")
)

# (owner, attribute, span name): every place the package looks a traced
# callable up at call time. A function imported by name into a second module
# is a second binding and needs its own entry.
TRACED = [
    (mcmc, "bernoulli_loglik", "mcmc.loglik"),
    (mcmc, "from_unconstrained", "tree.from_unconstrained"),
    (priors.HDEvaluator, "evaluate", "priors.hd_eval"),
    (standardize, "eval_basis", "bases.eval_basis"),
    (bases, "eval_basis", "bases.eval_basis"),
    (model, "standardize", "standardize.standardize"),
    (model, "split_pspline", "standardize.split_pspline"),
    (model.AssembledModel, "designs_at", "model.designs_at"),
    (mcmc, "assemble", "model.assemble"),
    (cli, "assemble", "model.assemble"),
    (cli, "ingest", "config.ingest"),
    (cli, "fit", "mcmc.fit"),
    (cli, "predict", "mcmc.predict"),
    (cli, "phi", "partition.phi"),
]


class Tracer:
    """Collects spans while installed; ``span`` also works uninstalled."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.starts[idx] = t0
        self.ends[idx] = t1

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0, time.perf_counter())

        return traced

    def install(self) -> None:
        for owner, attr, name in TRACED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total (inclusive) and self seconds."""
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        child = np.bincount(
            parents[parents >= 0], weights=dur[parents >= 0], minlength=dur.size
        )
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=self_s, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
        )
