"""Spans around orbifusion's public functions, recorded from outside.

``install`` rebinds each traced function in every ``orbifusion`` module
that holds it, so a call is caught where its caller looks the name up
(``orbifusion.rings.associativity_violations``, the ``fp_dimensions``
that ``orbifold.global_dim_check`` calls, ...). Nothing under ``src/``
is edited. Spans stay in memory; :meth:`Tracer.layers` turns them into
per-layer self times (a span minus the spans it directly contains) and
counts.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
import sys
import time


def _len_of_result(args, out):
    return len(out)


def _nnz_of_first_arg(args, out):
    return args[0].nnz


def _size_of_file_arg(args, out):
    return os.path.getsize(args[0])


def _bytes_of_text_result(args, out):
    return len(out.encode("utf-8"))


# (module, function, layer, counter name or None, how to count)
TARGETS = (
    ("orbifusion.su3", "su3_ring", "su3.su3_ring", None, None),
    ("orbifusion.kernels", "su3_cube", "kernels.su3_cube", None, None),
    ("orbifusion.kernels", "cube_to_csr", "kernels.cube_to_csr", None, None),
    ("orbifusion.kernels", "associativity_violations", "kernels.associativity_violations", None, None),
    ("orbifusion.kernels", "generating_set", "kernels.generating_set", "kernels.generators", _len_of_result),
    ("orbifusion.rings", "validate_ring", "rings.validate_ring", "rings.nnz_validated", _nnz_of_first_arg),
    ("orbifusion.rings", "fp_dimensions", "rings.fp_dimensions", None, None),
    ("orbifusion.orbifold", "global_dim_check", "orbifold.global_dim_check", None, None),
    ("orbifusion.orbifold", "cyclic_action", "orbifold.cyclic_action", None, None),
    ("orbifusion.orbifold", "check_assumptions", "orbifold.check_assumptions", None, None),
    ("orbifusion.catalog", "su2_even_ring", "catalog.su2_even_ring", None, None),
    ("orbifusion.graphs", "pf_norm", "graphs.pf_norm", None, None),
    ("orbifusion.graphs", "fold_graph", "graphs.fold_graph", None, None),
    ("orbifusion.graphs", "induced_graph_symmetry", "graphs.induced_graph_symmetry", None, None),
    ("orbifusion.graphs", "recognize", "graphs.recognize", None, None),
    ("orbifusion.fileio", "load_json", "fileio.load_json", "fileio.bytes_read", _size_of_file_arg),
    ("orbifusion.fileio", "parse_ring", "fileio.parse_ring", None, None),
    ("orbifusion.fileio", "dump_ring", "fileio.dump_ring", "fileio.bytes_written", _bytes_of_text_result),
    ("orbifusion.fileio", "dump_graph", "fileio.dump_graph", "fileio.bytes_written", _bytes_of_text_result),
)

# the per-layer metrics of BENCHMARK.json: name -> (layer, kind)
LAYER_METRICS = {
    "su3.su3_ring_s": ("su3.su3_ring", "self_s"),
    "kernels.su3_cube_s": ("kernels.su3_cube", "self_s"),
    "kernels.cube_to_csr_s": ("kernels.cube_to_csr", "self_s"),
    "kernels.associativity_violations_s": ("kernels.associativity_violations", "self_s"),
    "kernels.generating_set_s": ("kernels.generating_set", "self_s"),
    "kernels.generators": ("kernels.generators", "count"),
    "rings.validate_ring_s": ("rings.validate_ring", "self_s"),
    "rings.nnz_validated": ("rings.nnz_validated", "count"),
    "rings.fp_dimensions_s": ("rings.fp_dimensions", "self_s"),
    "rings.fp_dimensions_calls": ("rings.fp_dimensions", "calls"),
    "orbifold.global_dim_check_s": ("orbifold.global_dim_check", "self_s"),
    "orbifold.cyclic_action_s": ("orbifold.cyclic_action", "self_s"),
    "orbifold.check_assumptions_calls": ("orbifold.check_assumptions", "calls"),
    "rings.construct_s": ("rings.construct", "self_s"),
    "catalog.su2_even_ring_s": ("catalog.su2_even_ring", "self_s"),
    "graphs.pf_norm_s": ("graphs.pf_norm", "self_s"),
    "graphs.pf_norm_calls": ("graphs.pf_norm", "calls"),
    "graphs.fold_graph_s": ("graphs.fold_graph", "self_s"),
    "graphs.induced_graph_symmetry_s": ("graphs.induced_graph_symmetry", "self_s"),
    "graphs.recognize_s": ("graphs.recognize", "self_s"),
    "fileio.load_json_s": ("fileio.load_json", "self_s"),
    "fileio.parse_ring_s": ("fileio.parse_ring", "self_s"),
    "fileio.dump_ring_s": ("fileio.dump_ring", "self_s"),
    "fileio.bytes_read": ("fileio.bytes_read", "count"),
    "fileio.bytes_written": ("fileio.bytes_written", "count"),
    "cli.import_s": ("cli.import", "self_s"),
    "cli.main_s": ("cli.main", "self_s"),
}

LAYER_UNITS = {name: ("s" if kind == "self_s" else "count") for name, (_, kind) in LAYER_METRICS.items()}


class Tracer:
    """Spans and counts of one process; ``paused`` lets checks run unrecorded."""

    def __init__(self) -> None:
        # each span: [layer, op, parent index or -1, start, end]
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = ""
        self.paused = False
        self._open: list[int] = []

    def _begin(self, layer: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([layer, self.op, parent, time.perf_counter(), None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._open.pop()

    def add(self, layer: str, start: float, end: float) -> None:
        """Record a span measured by the caller (an import, say)."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([layer, self.op, parent, start, end])

    @contextlib.contextmanager
    def span(self, layer: str):
        sid = self._begin(layer)
        try:
            yield
        finally:
            self._end(sid)

    def wrap(self, layer: str, fn, counter=None, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = self._begin(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(sid)
            if counter is not None:
                self.counts[counter] += count(args, out)
            return out

        return traced

    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer: summed self time and call count, plus the counters."""
        child = [0.0] * len(self.spans)
        for layer, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for t, (layer, _, _, start, end) in enumerate(self.spans):
            row = out.setdefault(layer, {"self_s": 0.0, "calls": 0})
            row["self_s"] += end - start - child[t]
            row["calls"] += 1
        for name, value in self.counts.items():
            out.setdefault(name, {})["count"] = value
        return out


def merge_layers(parts) -> dict[str, dict[str, float]]:
    """Sum per-layer rows from several processes of one pass."""
    out: dict[str, dict[str, float]] = {}
    for part in parts:
        for layer, row in part.items():
            acc = out.setdefault(layer, {})
            for key, value in row.items():
                acc[key] = acc.get(key, 0) + value
    return out


def layer_metrics(layers) -> dict[str, float]:
    """The named per-layer metrics; a layer a workload never enters reads 0."""
    return {
        name: layers.get(layer, {}).get(kind, 0)
        for name, (layer, kind) in LAYER_METRICS.items()
    }


def install(tracer: Tracer) -> None:
    """Rebind every traced function wherever an orbifusion module holds it."""
    import orbifusion.cli  # noqa: F401  (loads every module that holds a target)

    modules = [
        mod for name, mod in sys.modules.items()
        if name == "orbifusion" or name.startswith("orbifusion.")
    ]
    for modname, attr, layer, counter, count in TARGETS:
        orig = getattr(sys.modules[modname], attr)
        traced = tracer.wrap(layer, orig, counter, count)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, traced)
    ring_cls = sys.modules["orbifusion.rings"].FusionRing
    ring_cls.__init__ = tracer.wrap("rings.construct", ring_cls.__init__)
    ring_cls.from_labels = classmethod(
        tracer.wrap("rings.construct", ring_cls.__dict__["from_labels"].__func__)
    )
