"""Traced mode: per-layer counts and self times, measured from outside.

The tracer wraps the public functions of each layer module and the
arithmetic operators of its element classes by rebinding them in the
loaded ``drinfeld_weil`` modules; the program's source is not touched.

* Every wrapped call is counted and its self time (duration minus the
  time spent in wrapped calls below it) is charged to its layer.
* Public module-level functions, ``cli.main`` and the field and basis
  constructors also record a span: (id, parent id, name, start, end).
* Element operators (FieldElem, UniPoly, RatFunc, MPoly, TwistedPoly,
  q-expansions) are too hot for spans: they are counted and timed only.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
          "__rmul__", "__truediv__", "__rtruediv__", "__pow__")

# layer -> {class name: methods}; the module-level public functions of each
# layer are found by inspection.  Methods are counted and timed, not spanned,
# except the constructors listed in SPAN_METHODS.
METHODS = {
    "fields": {"FieldElem": _ARITH + ("inverse",),
               "FiniteField": ("__init__",),
               "Embedding": ("__call__",),
               "RelativeBasis": ("__init__", "coords", "lift")},
    "linalg": {},
    "polys": {"UniPoly": _ARITH + ("__divmod__", "__call__", "monic", "hasse_deriv",
                                   "map_coeffs"),
              "PolyRing": ("poly",),
              "RatFunc": ("__init__",) + _ARITH,
              "FracField": ("frac", "coerce")},
    "multipoly": {"MPoly": _ARITH + ("reduce_mod", "hasse_deriv", "coeff_in_var",
                                     "inject", "permute_vars", "text", "latex"),
                  "MPolyRing": ("from_unipoly", "var", "term", "constant")},
    "twisted": {"TwistedPoly": _ARITH + ("apply", "map_coeffs")},
    "modules": {"DrinfeldModule": ("phi_x", "phi_of", "phi_apply", "exterior")},
    "weil_ops": {},
    "tate": {"_SymSeries": _ARITH + ("frobenius", "prune", "mismatches")},
    "pairing": {},
    "cli": {},
}
SPAN_METHODS = {"FiniteField.__init__", "RelativeBasis.__init__"}
# public helpers called once per monomial: counted, not spanned
HOT_FUNCTIONS = {"tate.mono_mul", "tate.mono_shift", "tate.mono_in_band",
                 "tate.mono_str", "fields.is_prime"}

LAYERS = tuple(METHODS)
PACKAGE = "drinfeld_weil"


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_ns = Counter()     # per layer
        self.incl_ns = Counter()     # per name, outermost activations only
        self.returns = Counter()     # per name, calls that returned normally
        self.active = Counter()      # per name, current nesting depth
        self.spans = []              # (id, parent, name, start_ns, end_ns)
        # frames: [child_ns, span_id]; the root frame absorbs top-level time
        self.stack = [[0, 0]]
        self.t0 = perf_counter_ns()
        self._next_id = 1

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, layer, span):
        counts, self_ns, incl_ns = self.counts, self.self_ns, self.incl_ns
        returns, active, stack, spans = self.returns, self.active, self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            active[name] += 1
            if span:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = stack[-1][1]
            frame = [0, sid]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                returns[name] += 1
                return out
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                d = t1 - t0
                self_ns[layer] += d - frame[0]
                stack[-1][0] += d
                active[name] -= 1
                if not active[name]:
                    incl_ns[name] += d
                if span:
                    spans.append((sid, stack[-1][1], name, t0, t1))

        return wrapper

    def install(self):
        """Wrap every layer of the imported package, in every module that
        holds a reference to the wrapped function."""
        replaced = {}
        for layer, classes in METHODS.items():
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(fn)):
                    name = f"{layer}.{attr}"
                    replaced[fn] = self._wrap(fn, name, layer, name not in HOT_FUNCTIONS)
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__.get(meth)
                    if fn is None:
                        continue
                    qual = f"{cls_name}.{meth}"
                    setattr(cls, meth, self._wrap(fn, f"{layer}.{qual}", layer,
                                                  qual in SPAN_METHODS))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in replaced:
                        setattr(mod, attr, replaced[val])

    def span(self, name, fn, *args):
        """Run fn(*args) as a span of the benchmark itself."""
        return self._wrap(fn, name, "bench", True)(*args)

    # -- results ----------------------------------------------------------

    def _under(self, name, ancestor):
        """Spans called `name` that have an `ancestor` span above them."""
        by_id = {s[0]: s for s in self.spans}
        n = 0
        for sid, parent, nm, _, _ in self.spans:
            if nm != name:
                continue
            while parent in by_id:
                if by_id[parent][2] == ancestor:
                    n += 1
                    break
                parent = by_id[parent][1]
        return n

    def metrics(self) -> dict:
        c = self.counts

        def calls(*names):
            return {"value": sum(c[n] for n in names), "unit": "count"}

        def secs(ns):
            return {"value": ns / 1e9, "unit": "s"}

        built_in_torsion = self._under("fields.make_field", "modules.torsion_basis")
        out = {
            "fields.elem_mul_calls": calls("fields.FieldElem.__mul__", "fields.FieldElem.__rmul__"),
            "fields.elem_add_calls": calls("fields.FieldElem.__add__", "fields.FieldElem.__radd__"),
            "fields.elem_pow_calls": calls("fields.FieldElem.__pow__"),
            "fields.elem_inverse_calls": calls("fields.FieldElem.inverse"),
            "fields.fields_built": calls("fields.FiniteField.__init__"),
            "fields.field_build_s": secs(self.incl_ns["fields.FiniteField.__init__"]),
            "fields.embed_s": secs(self.incl_ns["fields.embed"]),
            "linalg.rref_calls": calls("linalg.rref"),
            "modules.torsion_basis_s": secs(self.incl_ns["modules.torsion_basis"]),
            "modules.extension_yield": {
                "value": self.returns["modules.torsion_basis"] / max(built_in_torsion, 1),
                "unit": "ratio"},
            "multipoly.mul_calls": calls("multipoly.MPoly.__mul__", "multipoly.MPoly.__rmul__"),
            "multipoly.reduce_mod_calls": calls("multipoly.MPoly.reduce_mod"),
            "weil_ops.weil_op_r_calls": calls("weil_ops.weil_op_r"),
            "twisted.apply_calls": calls("twisted.TwistedPoly.apply"),
            "twisted.mul_calls": calls("twisted.TwistedPoly.__mul__", "twisted.TwistedPoly.__rmul__"),
            "pairing.moore_det_calls": calls("pairing.moore_det"),
            "pairing.weil_pairing_s": secs(self.incl_ns["pairing.weil_pairing"]),
            "pairing.main_theorem_check_s": secs(self.incl_ns["pairing.main_theorem_check"]),
            "polys.unipoly_mul_calls": calls("polys.UniPoly.__mul__", "polys.UniPoly.__rmul__"),
            "polys.unipoly_divmod_calls": calls("polys.UniPoly.__divmod__"),
            "polys.gcd_calls": calls("polys.poly_gcd"),
            "polys.inv_mod_calls": calls("polys.inv_mod"),
            "polys.ratfunc_built": calls("polys.RatFunc.__init__"),
            "tate.agf_remainder_s": secs(self.incl_ns["tate.agf_remainder"]),
            "tate.moore_series_s": secs(self.incl_ns["tate.moore_series"]),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = secs(self.self_ns[layer])
        return out

    def dump(self) -> dict:
        return {"spans": [[sid, parent, name, s - self.t0, e - self.t0]
                          for sid, parent, name, s, e in self.spans],
                "counts": dict(sorted(self.counts.items())),
                "self_s": {k: v / 1e9 for k, v in sorted(self.self_ns.items())}}
