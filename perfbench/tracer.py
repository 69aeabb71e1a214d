"""Outside-in tracer: spans around the calls into each egrl layer.

Nothing in ``src/egrl`` changes.  While a :class:`Tracer` is installed it
replaces each traced function under every name it is looked up by -- the
module global in each egrl module that imported it (``egrl.cli.check_mds``
and ``egrl.construction.check_mds`` alike) and the class attribute for
methods -- with a wrapper that records a span; leaving the ``with`` block
restores the originals.

A span is ``[id, parent id, op index, name, start ns, end ns]``; the name's
first dotted part is the layer.  Every op gets one root span (``bench.op``)
and all its spans carry the op's index.  Spans stay in memory until the
benchmark writes them out.

Two layers are handled specially to keep the overhead bounded:

* ``codeword_blocks`` is a generator; each advance is its own span, so
  enumeration is timed until the generator is exhausted while the
  consumer's work between blocks stays with the consumer.
* Scalar field ops (add/neg/sub/mul/inv/div/pow) are counted, not timed:
  there are millions of them.  Only the outermost call made from another
  layer counts; calls made inside field code (sub -> add, table builds)
  do not.  Their time stays in the calling layer's self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("bench", "cli", "construction", "linear", "subsetsum", "matrix", "field")
SCALAR_OPS = ("add", "neg", "sub", "mul", "inv", "div", "pow")
_EGRL_MODULES = ("egrl", "egrl.field", "egrl.matrix", "egrl.subsetsum", "egrl.linear",
                 "egrl.construction", "egrl.cli")


def _domain_size(ctx, domain) -> int:
    if domain == "full":
        return ctx.q
    if domain == "star":
        return ctx.q - 1
    return len(domain)


def _dp_cells(counts):
    def hook(args):
        ctx, domain, m = args[:3]
        counts["subsetsum.dp_cells"] += _domain_size(ctx, domain) * (m + 1) * ctx.q
    return hook


def _witness_cells(counts):
    def hook(args):
        ctx, domain, m = args[:3]
        counts["subsetsum.witness_cells"] += (_domain_size(ctx, domain) + 1) * (m + 1) * ctx.q
    return hook


def _messages(counts):
    def hook(args):
        code = args[0]
        counts["linear.msgs"] += code.ctx.q ** code.k
    return hook


class Tracer:
    """Records spans and counters while installed (``with Tracer(): ...``)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._in_field = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------------

    def _timed(self, name: str, fn, hook=None, field: bool = False):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            rec = [len(spans), stack[-1] if stack else -1, tracer.op, name, clock(), 0]
            spans.append(rec)
            stack.append(rec[0])
            tracer._in_field += field
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_field -= field
                stack.pop()
                rec[5] = clock()

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn):
        tracer = self

        def counted(*args):
            if tracer._in_field:
                return fn(*args)
            tracer._in_field = 1
            tracer.counts["field.scalar_ops"] += 1
            try:
                return fn(*args)
            finally:
                tracer._in_field = 0

        counted.__wrapped__ = fn
        return counted

    def _segmented(self, fn):
        tracer = self

        def blocks(*args, **kwargs):
            return tracer._advance_spans(fn(*args, **kwargs))

        blocks.__wrapped__ = fn
        return blocks

    def _advance_spans(self, inner):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        while True:
            rec = [len(spans), stack[-1] if stack else -1, self.op, "linear.codeword_blocks",
                   clock(), 0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                block = next(inner)
            except StopIteration:
                return
            finally:
                stack.pop()
                rec[5] = clock()
            self.counts["linear.blocks"] += 1
            yield block

    # -- installation ------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, wrapper factory) for every traced callable."""
        from egrl import cli, construction, field, linear, matrix, subsetsum

        c = self.counts
        t = self._timed
        fc, fm, lc, ep = field.FieldCtx, matrix.FieldMatrix, linear.LinearCode, \
            construction.EgrlParams
        out = [
            (fc, "__init__", lambda f: t("field.ctx_build", f, field=True)),
            (fc, "add_table", lambda f: t("field.np_table", f, field=True)),
            (fc, "mul_table", lambda f: t("field.np_table", f, field=True)),
            (fc, "generator_powers", lambda f: t("field.generator_powers", f, field=True)),
            (fc, "primitive_element", lambda f: t("field.primitive_element", f, field=True)),
        ]
        out += [(fc, name, self._counted) for name in SCALAR_OPS]
        out += [(fm, name, lambda f, name=name: t(f"matrix.{name.strip('_')}", f))
                for name in ("__init__", "_rref_pivots", "det", "inverse", "matmul",
                             "null_space", "transpose", "to_text")]
        out += [
            (subsetsum, "count_dp", lambda f: t("subsetsum.count_dp", f, _dp_cells(c))),
            (subsetsum, "find_subset",
             lambda f: t("subsetsum.find_subset", f, _witness_cells(c))),
            (subsetsum, "count_li_wan", lambda f: t("subsetsum.count_li_wan", f)),
            (lc, "__init__", lambda f: t("linear.code_init", f)),
            (lc, "dual", lambda f: t("linear.dual", f)),
            (lc, "codeword_blocks", self._segmented),
            (lc, "weight_distribution",
             lambda f: t("linear.weight_distribution", f, _messages(c))),
            (lc, "_both_distributions", lambda f: t("linear.both_distributions", f)),
            (lc, "classify", lambda f: t("linear.classify", f)),
            (linear, "macwilliams", lambda f: t("linear.macwilliams", f)),
            (linear, "nmds_distribution", lambda f: t("linear.nmds_distribution", f)),
            (ep, "__post_init__", lambda f: t("construction.params", f)),
            (ep, "to_dict", lambda f: t("construction.to_dict", f)),
        ]
        out += [(construction, name, lambda f, name=name: t(f"construction.{name}", f))
                for name in ("generator_matrix", "egrl_code", "compute_u", "parity_check_matrix",
                             "check_mds", "check_dual_amds", "special_construction",
                             "is_special_instance", "dual_min_weight_count",
                             "special_nmds_distribution")]
        out += [
            (cli, "main", lambda f: t("cli.main", f)),
            (cli, "_build_parser", lambda f: t("cli.parse", f)),
            (cli, "_emit_report", lambda f: t("cli.render", f)),
        ]
        return out

    def _patch(self, owner, attr: str, value):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [sys.modules[m] for m in _EGRL_MODULES if m in sys.modules]
        for owner, attr, factory in self._targets():
            original = getattr(owner, attr, None)
            if original is None:  # gone from this version of egrl: its metrics read 0
                continue
            wrapper = factory(original)
            if isinstance(owner, type):
                # Aliases such as FieldMatrix.__matmul__ = matmul are looked up too.
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, name, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextmanager
    def root(self, op_index: int):
        """The op's root span; every span opened inside carries op_index."""
        self.op = op_index
        clock = time.perf_counter_ns
        rec = [len(self.spans), -1, op_index, "bench.op", clock(), 0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[5] = clock()
            self.op = -1


def summarize(spans: list[list]) -> dict:
    """Aggregate spans: inclusive time and calls per name, self time per layer.

    Self time is a span's duration minus the durations of its direct
    children, so summing self time over all spans of an op gives the op's
    root span exactly, with nothing counted twice.
    """
    child_ns = [0] * len(spans)
    child_names: dict[int, set] = defaultdict(set)
    for sid, parent, _op, name, t0, t1 in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
            child_names[parent].add(name)
    incl = defaultdict(int)
    calls = defaultdict(int)
    self_ns = {layer: 0 for layer in LAYERS}
    root_ns = 0
    for sid, parent, _op, name, t0, t1 in spans:
        dur = t1 - t0
        incl[name] += dur
        calls[name] += 1
        self_ns[name.split(".", 1)[0]] += dur - child_ns[sid]
        if parent < 0:
            root_ns += dur
    dual_enums = sum(1 for sid, _p, _o, name, _a, _b in spans
                     if name == "linear.both_distributions" and "linear.dual" in child_names[sid])
    return {"incl_ns": incl, "calls": calls, "self_ns": self_ns, "root_ns": root_ns,
            "dual_enums": dual_enums}
