"""Spans around the calls into each dghom layer, recorded from outside
the library.

`install()` wraps the functions below wherever a module looks them up
(a function imported with `from .exactfield import rank` is replaced in
the importing module too) and patches methods on their class.  Each
span records its name, start, end, parent span and op id, plus counts
read from the call's arguments and result.  Spans stay in memory and
are written once, when the op ends.  `layer_metrics` turns the spans of
a pass into per-layer self times and counts; a span's self time is its
duration minus the part its child spans cover, so the self times of one
op add up to the duration of its root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time


# A counts function returns per-call counts keyed by metric name; the
# pass sums them, except that a "_max" count keeps its largest value and
# "rank_id" is collected into the number of distinct matrices.

def _rank_counts(rec, args, kwargs, result):
    m = args[0]
    rec.keep.append(m)  # keeps id(m) unique for the life of the op
    return {"rank_id": id(m), "exactfield.rank_max_rows": m.rows,
            "exactfield.rank_max_cols": m.cols, "exactfield.rank_nnz": len(m.entries)}


def _cyclic_bar_counts(rec, args, kwargs, result):
    bar = args[0]
    kind = "hochschild.chains_norm" if bar.normalized else "hochschild.chains_unnorm"
    return {kind: sum(len(keys) for keys in bar.keys_by_bar.values())}


def _total_complex_counts(rec, args, kwargs, result):
    return {"hochschild.nnz": sum(len(m.entries) for m in result[0].diffs.values())}


def _bar_composite_counts(rec, args, kwargs, result):
    from dghom.dgmod import bar_composite
    call = inspect.signature(bar_composite).bind(*args, **kwargs).arguments
    spectators = 1
    for side in ("left_spect", "right_spect"):
        if call.get(side) is not None:
            spectators *= len(call[side].objects)
    n_mid = len(call["mid"].objects)
    return {
        "dgmod.chains": sum(len(keys) for per_pair in result.chain_keys.values()
                            for keys in per_pair.values()),
        "dgmod.nnz": sum(len(m.entries) for cx in result.complexes.values()
                         for m in cx.diffs.values()),
        "dgmod.tuples": spectators * sum(n_mid ** (p + 1) for p in range(result.bar_bound + 1)),
    }


def _tensor_counts(rec, args, kwargs, result):
    return {"dgcore.tensor_objects_max": len(result.objects)}


COUNT_NAMES = ["exactfield.rank_max_rows", "exactfield.rank_max_cols", "exactfield.rank_nnz",
               "hochschild.chains_norm", "hochschild.chains_unnorm", "hochschild.nnz",
               "dgmod.chains", "dgmod.nnz", "dgmod.tuples", "dgcore.tensor_objects_max"]


# (module, function or Class.method, span name, counts)
TARGETS = [
    ("exactfield", "rank", "exactfield.rank", _rank_counts),
    ("exactfield", "kernel_basis", "exactfield.kernel", None),
    ("exactfield", "image_basis", "exactfield.kernel", None),
    ("exactfield", "homology_quotient", "exactfield.kernel", None),
    ("exactfield", "Matrix.mul", "exactfield.mul", None),
    ("hochschild", "CyclicBar.__init__", "hochschild.bar", _cyclic_bar_counts),
    ("hochschild", "CyclicBar.total_complex", "hochschild.assemble", _total_complex_counts),
    ("cyclic", "MixedComplex.__init__", "cyclic.mixed", None),
    ("cyclic", "_tower_for_degree", "cyclic.tower", None),
    ("cyclic", "_column_homology", "cyclic.tower", None),
    ("dgmod", "bar_composite", "dgmod.bar", _bar_composite_counts),
    ("dgcore", "tensor", "dgcore.tensor", _tensor_counts),
    ("saturation", "smoothness_certify", "saturation.smooth", None),
    ("saturation", "triangle_identity_check", "saturation.triangle", None),
    ("saturation", "euler_report", "saturation.euler", None),
    ("grammar", "load_path", "grammar.load", None),
    ("presentation", "realize", "presentation.realize", None),
]


class Recorder:
    """The spans of one op, in the order they started."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []   # [name, start, end, parent index, counts]
        self.stack = []
        self.keep = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.spans.append(record)
        self.stack.append(idx)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counts is not None:
                record[4] = counts(self, args, kwargs, result)
            return result
        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"op": self.op_id, "spans": self.spans}, fh)


def install(op_id):
    """Import every dghom module and wrap the TARGETS in place."""
    import dghom
    for info in pkgutil.iter_modules(dghom.__path__):
        importlib.import_module(f"dghom.{info.name}")
    modules = [m for n, m in sys.modules.items() if n == "dghom" or n.startswith("dghom.")]
    rec = Recorder(op_id)
    for module, attr, name, counts in TARGETS:
        owner = sys.modules[f"dghom.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, rec.wrap(getattr(cls, method), name, counts))
            continue
        original = getattr(owner, attr)
        wrapped = rec.wrap(original, name, counts)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    return rec


# ---------------------------------------------------------------------------
# aggregation

SPAN_NAMES = sorted({t[2] for t in TARGETS} | {"op.self"})


def self_times(spans):
    """Per span: duration minus the duration of its direct children."""
    own = [end - start for _name, start, end, _parent, _counts in spans]
    for _name, start, end, parent, _counts in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(ops):
    """Per-layer metrics of one pass; `ops` holds one spans list per op."""
    out = {f"{name}_s": 0.0 for name in SPAN_NAMES}
    out.update((name, 0) for name in COUNT_NAMES)
    calls = {name: 0 for name in SPAN_NAMES}
    distinct = 0
    for spans in ops:
        rank_ids = set()
        for (name, _start, _end, _parent, counts), own in zip(spans, self_times(spans)):
            out[f"{name}_s"] += own
            calls[name] += 1
            for key, value in (counts or {}).items():
                if key == "rank_id":
                    rank_ids.add(value)
                elif "_max" in key:
                    out[key] = max(out[key], value)
                else:
                    out[key] += value
        distinct += len(rank_ids)
    rank_calls = calls["exactfield.rank"]
    out.update({
        "exactfield.rank_calls": rank_calls,
        "exactfield.rank_distinct": distinct,
        "exactfield.rank_reuse": distinct / rank_calls if rank_calls else 0.0,
        "exactfield.kernel_calls": calls["exactfield.kernel"],
        "exactfield.mul_calls": calls["exactfield.mul"],
        "dgmod.chain_yield": out["dgmod.chains"] / out["dgmod.tuples"] if out["dgmod.tuples"] else 0.0,
    })
    return out
