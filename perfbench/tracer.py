"""Spans around the program's layer boundaries, installed from outside.

``Tracer.install`` replaces each function or method in TARGETS by a wrapper,
in every loaded ``mackeybox`` module that holds it; ``restore`` puts the
originals back.  No file of the program changes.  Spans stay in memory for
the op that made them; ``end_op`` folds them into the run's totals.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (layer, defining module, attribute; "Class.method" for methods)
TARGETS = (
    ("intlin.snf", "mackeybox.intlin", "smith_normal_form"),
    ("intlin.hnf", "mackeybox.intlin", "hermite_normal_form"),
    ("intlin.solve", "mackeybox.intlin", "solve_linear"),
    ("intlin.membership", "mackeybox.intlin", "lattice_contains"),
    ("intlin.kernel", "mackeybox.intlin", "kernel_basis"),
    ("intlin.matmul", "mackeybox.intlin", "IntMatrix.__matmul__"),
    ("intlin.apply", "mackeybox.intlin", "IntMatrix.apply"),
    ("abgroup.well_defined", "mackeybox.abgroup", "AbHom.is_well_defined"),
    ("abgroup.equals", "mackeybox.abgroup", "AbHom.equals"),
    ("abgroup.power", "mackeybox.abgroup", "AbHom.power"),
    ("abgroup.invariant_factors", "mackeybox.abgroup", "invariant_factors"),
    ("abgroup.kernel", "mackeybox.abgroup", "kernel"),
    ("mackey.norm", "mackeybox.mackey", "action_norm"),
    ("mackey.box", "mackeybox.mackey", "box_product"),
    ("mackey.axioms", "mackeybox.mackey", "check_axioms"),
    ("mackey.verify", "mackeybox.mackey", "verify_morphism"),
    ("separation.classify", "mackeybox.separation", "classify_invertible"),
    ("separation.invert", "mackeybox.separation", "invert"),
    ("separation.isotropy", "mackeybox.separation", "isotropy_sequence"),
    ("separation.iso", "mackeybox.separation", "try_find_isomorphism"),
    ("document.parse", "mackeybox.document", "parse_functor"),
    ("document.render", "mackeybox.document", "render_lewis"),
)
LAYERS = tuple(t[0] for t in TARGETS)
# generators whose yields are counted: the bottom maps the iso search tests
COUNTED = (("separation.iso.candidates", "mackeybox.separation", "_matrix_candidates"),)

# layers whose arguments or results feed extra totals (see Tracer._post)
POSTED = ("intlin.snf", "intlin.matmul", "mackey.box", "document.parse", "document.render")
# totals that combine by max rather than by sum
MAX_KEYS = ("intlin.snf.max_dim", "intlin.snf.max_transform_bits",
            "mackey.box.max_top_gens", "mackey.box.max_top_rels")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    A span is ``[layer, start, end, parent index or -1, tail]``; ``tail`` is
    the tracer's own bookkeeping after ``end``, charged to no layer.
    """
    cover = [0.0] * len(spans)
    for _, start, end, parent, tail in spans:
        if parent >= 0:
            cover[parent] += end - start + tail
    return [end - start - cover[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _largest_bits(*mats) -> int:
    return max((max(map(abs, m.entries), default=0) for m in mats), default=0).bit_length()


class Tracer:
    def __init__(self):
        self.spans = []
        self.current = -1
        self.totals = {}
        self._snf_inputs = set()
        self._saved = []

    # -- per-layer facts read from arguments and results ---------------------

    def _post(self, layer, args, result):
        t = self.totals
        if layer == "intlin.snf":
            a = args[0]
            self._snf_inputs.add(a)
            t["intlin.snf.max_dim"] = max(t.get("intlin.snf.max_dim", 0), a.rows, a.cols)
            bits = _largest_bits(result.u, result.v)
            t["intlin.snf.max_transform_bits"] = max(t.get("intlin.snf.max_transform_bits", 0), bits)
        elif layer == "intlin.matmul" and result is not NotImplemented:
            a, b = args
            t["_matmul.zeros"] = t.get("_matmul.zeros", 0) + a.entries.count(0) + b.entries.count(0)
            t["_matmul.entries"] = t.get("_matmul.entries", 0) + len(a.entries) + len(b.entries)
        elif layer == "mackey.box":
            t["mackey.box.max_top_gens"] = max(t.get("mackey.box.max_top_gens", 0), result.top.ngens)
            t["mackey.box.max_top_rels"] = max(t.get("mackey.box.max_top_rels", 0), result.top.relations.cols)
        elif layer == "document.parse":
            t["document.bytes"] = t.get("document.bytes", 0) + len(args[0].encode())
        elif layer == "document.render":
            t["document.bytes"] = t.get("document.bytes", 0) + len(result.encode())

    def _wrap(self, index, fn):
        layer = LAYERS[index]
        post = layer in POSTED
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = self.current
            rec = [index, 0.0, 0.0, parent, 0.0]
            self.current = len(spans)
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self.current = parent
            if post:
                self._post(layer, args, result)
                rec[4] = perf_counter() - rec[2]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, key, fn):
        totals = self.totals

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                totals[key] = totals.get(key, 0) + 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / restore ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a loaded mackeybox module holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mackeybox" or name.startswith("mackeybox."))]
        for index, (_, modname, attr) in enumerate(TARGETS):
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(index, fn))
                continue
            fn = getattr(owner, attr)
            self._replace(modules, fn, self._wrap(index, fn))
        for key, modname, attr in COUNTED:
            fn = getattr(sys.modules[modname], attr, None)
            if fn is not None:  # a later design may enumerate candidates differently
                self._replace(modules, fn, self._counting(key, fn))

    def _replace(self, modules, fn, wrapper) -> None:
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._saved.append((mod, name, fn))
                    setattr(mod, name, wrapper)

    def restore(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    # -- aggregation ------------------------------------------------------------

    def end_op(self) -> None:
        """Fold the current op's spans into the totals."""
        t = self.totals
        spans = self.spans
        for span, own in zip(spans, self_times(spans)):
            layer = LAYERS[span[0]]
            t[layer + ".calls"] = t.get(layer + ".calls", 0) + 1
            t[layer + ".self_s"] = t.get(layer + ".self_s", 0.0) + own
        t["intlin.snf.distinct"] = t.get("intlin.snf.distinct", 0) + len(self._snf_inputs)
        spans.clear()
        self._snf_inputs.clear()
        self.current = -1


def merge(totals: dict, other: dict) -> None:
    """Add one set of totals into another (max for the max_* entries)."""
    for key, value in other.items():
        if key in MAX_KEYS:
            totals[key] = max(totals.get(key, 0), value)
        else:
            totals[key] = totals.get(key, 0) + value


def layer_metrics(totals: dict) -> dict:
    """The per-layer metrics, with zeros for layers the run never entered."""
    t = dict(totals)
    entries = t.pop("_matmul.entries", 0)
    zeros = t.pop("_matmul.zeros", 0)
    t["intlin.matmul.zero_share"] = zeros / entries if entries else 0.0
    calls = t.get("intlin.snf.calls", 0)
    t["intlin.snf.distinct_share"] = t.get("intlin.snf.distinct", 0) / calls if calls else 0.0
    return t
