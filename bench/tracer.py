"""Span tracer wired around edtorus from the outside.

``install()`` wraps each public function named in TARGETS in every edtorus
namespace that binds it (re-exports and ``from .monogrp import ...`` names
included); methods are wrapped on their class.  Every call records a span:
name, start, end and parent span.  ``layer_metrics()`` turns the
spans and counters into the per-layer metrics.  Nothing under ``src/`` is
edited; the wrapping lives only in the traced worker process.
"""

from __future__ import annotations

import functools
import sys
import time

# "<module>.<function>" or "<module>.<Class>.<method>", module relative to edtorus.
TARGETS = (
    "cli.main",
    "cli.presentation_from_json",
    "cli.emit",
    "pipeline.build_generically_free_extension",
    "pipeline.upper_witness_sln",
    "stab.generic_stabilizer",
    "stab.is_p_faithful",
    "symrank.symrank",
    "symrank.eta_bounds",
    "symrank.FLattice.__init__",
    "monogrp.validate",
    "monogrp.character_lattice_action",
    "monogrp.ComponentGroup.__init__",
    "monogrp.ComponentGroup.abelian_decomposition",
    "monogrp.ComponentGroup.characters",
    "monogrp.ComponentGroup.elementary_rank",
    "monogrp.ComponentGroup.rep_actions",
    "zlat.smith_normal_form",
    "oracle.symrank_bruteforce",
    "oracle.ff_stabilizer",
)

# Per-layer metrics reported by a traced run, with their units.  A span's
# self time is its duration minus the time covered by its child spans;
# cli.main.self_s is the request time no other traced layer covers.
LAYER_METRICS = {
    "trace.wall_s": "s",
    "cli.main.self_s": "s",
    "symrank.FLattice.init_s": "s",
    "monogrp.ComponentGroup.init_s": "s",
    "monogrp.table_entries": "count",
    "monogrp.validate.self_s": "s",
    "monogrp.validate.miss_ratio": "ratio",
    "monogrp.character_lattice_action.calls": "count",
    "monogrp.character_lattice_action.self_s": "s",
    "monogrp.ComponentGroup.abelian_decomposition.calls": "count",
    "monogrp.ComponentGroup.abelian_decomposition.self_s": "s",
    "monogrp.ComponentGroup.characters.self_s": "s",
    "zlat.smith_normal_form.calls": "count",
    "zlat.smith_normal_form.self_s": "s",
    "zlat.smith_normal_form.max_cells": "count",
    "monogrp.ComponentGroup.elementary_rank.self_s": "s",
    "monogrp.ComponentGroup.rep_actions.self_s": "s",
    "stab.generic_stabilizer.calls": "count",
    "stab.generic_stabilizer.self_s": "s",
    "stab.is_p_faithful.calls": "count",
    "pipeline.build_generically_free_extension.self_s": "s",
    "pipeline.upper_witness_sln.self_s": "s",
    "symrank.symrank.calls": "count",
    "symrank.symrank.self_s": "s",
    "symrank.box_vectors": "count",
    "symrank.eta_bounds.self_s": "s",
    "oracle.symrank_bruteforce.self_s": "s",
    "oracle.ff_stabilizer.self_s": "s",
    "cli.presentation_from_json.self_s": "s",
    "cli.emit.self_s": "s",
}


def _count_table(tracer, args, result):
    n = len(args[0].elements)
    tracer.counters["monogrp.table_entries"] += n * n


def _count_smith(tracer, args, result):
    M = args[0]
    key = "zlat.smith_normal_form.max_cells"
    tracer.counters[key] = max(tracer.counters[key], M.rows * M.cols)


def _count_box(tracer, args, result):
    tracer.counters["symrank.box_vectors"] += (2 * result.search_bound + 1) ** args[0].rank


# Counters read from a successful call's arguments and result.
_HOOKS = {
    "monogrp.ComponentGroup.__init__": _count_table,
    "zlat.smith_normal_form": _count_smith,
    "symrank.symrank": _count_box,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters = {"monogrp.table_entries": 0, "zlat.smith_normal_form.max_cells": 0, "symrank.box_vectors": 0}
        self.missing: list[str] = []  # targets the package no longer defines
        self._stack: list[int] = []
        self._validate = None

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def layer_metrics(self) -> dict[str, float]:
        """Self time and call count per target, the counters, and the
        validate cache miss ratio, restricted to LAYER_METRICS."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
            calls[name] = calls.get(name, 0) + 1
        raw: dict[str, float] = dict(self.counters)
        for name in TARGETS:
            base = name.replace(".__init__", ".init")  # FLattice.__init__ -> FLattice.init_s
            raw[base + ".calls"] = calls.get(name, 0)
            raw[base + ("_s" if base.endswith(".init") else ".self_s")] = self_s.get(name, 0.0)
        raw["trace.wall_s"] = sum(end - start for name, start, end, _ in self.spans if name == "cli.main")
        info = getattr(self._validate, "cache_info", None)
        if info is None:
            raw["monogrp.validate.miss_ratio"] = 1.0 if calls.get("monogrp.validate") else 0.0
        else:
            ci = info()
            total = ci.hits + ci.misses
            raw["monogrp.validate.miss_ratio"] = ci.misses / total if total else 0.0
        return {k: raw[k] for k in LAYER_METRICS if k in raw}


def install() -> Tracer:
    """Wrap every target in the imported edtorus package; return the tracer."""
    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items()) if n == "edtorus" or n.startswith("edtorus.")]
    for name in TARGETS:
        modname, *path = name.split(".")
        owner = sys.modules.get(f"edtorus.{modname}")
        if len(path) == 2:
            owner = getattr(owner, path[0], None)
        orig = vars(owner).get(path[-1]) if owner is not None else None
        if orig is None:
            tracer.missing.append(name)
            continue
        wrapped = tracer.wrap(name, orig)
        if len(path) == 2:
            setattr(owner, path[-1], wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapped)
        if name == "monogrp.validate":
            tracer._validate = orig
    return tracer

