"""Spans at the public entry points of each ``orepi`` module.

``Tracer.install()`` wraps the entry points listed in ``ENTRY_POINTS`` at
every binding site: the defining module, every ``orepi`` module that
imported the function by name (``center`` and ``identities`` import
``multiply``, ``normal_form`` and ``multiply_assoc``), and the package
namespace.  Methods are wrapped on their class.  ``uninstall()`` puts
the original objects back.  Untraced runs never install anything.

Each wrapped call records a span: id, parent id, name, start, end, and
the part of its interval covered by children.  A layer's self time is
the sum over its spans of duration minus that covered part.  ``Coeff``
arithmetic (add, sub, mul, inv, and the composite operations built on
them) is too frequent for one span per call: it is timed and counted in
aggregate, and its time is charged to the enclosing span as child time.
Only the outermost arithmetic call is timed, so ``x ** 8`` is one timed
interval that counts its inner multiplications as operations.

Spans stay in memory until ``summary()`` folds them into per-layer
figures at the end of the run.
"""

import importlib
import sys
import time
from collections import defaultdict

from orepi import fields, linalg

# module -> public functions whose calls are spans of that layer
ENTRY_POINTS = {
    "presentations": ("build_family",),
    "rewrite": ("normal_form", "multiply", "multiply_assoc", "q_commutator",
                "overlap_check", "specialize_poly"),
    "identities": ("check_paper_identity", "oracle_rhs", "nf_eval"),
    "center": ("is_central", "central_candidates", "spanning_check",
               "downup_center_generators", "gwa_auto_order"),
    "linalg": ("dense_kernel",),
    "pidecide": ("pi_decide", "verify_witness"),
    "matrep": ("multilinear_identity_search", "quantum_plane_rep"),
    "cli": ("run_command",),
}
METHOD_POINTS = ((linalg.SpanTracker, "insert", "linalg"),)

# Coeff methods: counted ring operations, and timed-only composites
COUNTED = {"__add__": "add", "__radd__": "add", "__sub__": "sub",
           "__rsub__": "sub", "__mul__": "mul", "__rmul__": "mul",
           "inv": "inv"}
TIMED_ONLY = ("__neg__", "__truediv__", "__rtruediv__", "__pow__", "__eq__")
FIELD_KINDS = ("rational", "cyclotomic", "ratfunc", "galois")
# layers reported as <layer>.self_s; the cli layer's only entry point is
# reported as cli.run_command.self_s, and "bench" is the harness itself
LAYERS = ("fields", "rewrite", "identities", "center", "linalg", "pidecide",
          "matrep", "presentations", "bench")


def coeff_terms(c):
    """Size of one coefficient: monomials of a rational function, nonzero
    basis coordinates otherwise."""
    kind = c.ctx.kind
    if kind == "ratfunc":
        return len(c.val[0]) + len(c.val[1])
    if kind == "rational":
        return 1
    return sum(1 for x in c.val if x)


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans = []        # (id, parent id, name, start, end, child_s)
        self.stack = []        # open spans: [id, name, start, child_s]
        self.active = defaultdict(int)   # name -> open spans of that name
        self.nested = set()    # ids of spans inside a span of the same name
        self.next_id = 1
        self.coeff_depth = 0
        self.coeff_s = 0.0
        self.ops = defaultdict(int)      # field kind -> ring operations
        self.nf_terms = []               # output sizes of normal_form
        self.max_coeff_terms = 0
        self.overlap_inputs = []         # presentations given to overlap_check
        self.insert_useful = 0
        self.identity_checks = 0
        self.saved = []        # (owner, attribute, original) to restore

    # -- spans ---------------------------------------------------------------

    def begin(self, name):
        sid = self.next_id
        self.next_id += 1
        if self.active[name]:
            self.nested.add(sid)
        self.active[name] += 1
        self.stack.append([sid, name, time.perf_counter(), 0.0])

    def end(self):
        t1 = time.perf_counter()
        sid, name, t0, child = self.stack.pop()
        self.active[name] -= 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += t1 - t0
        self.spans.append((sid, parent[0] if parent else 0, name, t0, t1,
                           child))

    def hide_since(self, t0):
        """Keep tracer work since t0 out of the enclosing span's self time."""
        if self.stack:
            self.stack[-1][3] += time.perf_counter() - t0

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                t0 = time.perf_counter()
                after(args, out)
                tracer.hide_since(t0)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_coeff(self, fn, op):
        tracer = self
        ops = self.ops
        clock = time.perf_counter

        def wrapper(a, *rest):
            if op is not None:
                ops[a.ctx.kind] += 1
            if tracer.coeff_depth:
                return fn(a, *rest)
            tracer.coeff_depth = 1
            t0 = clock()
            try:
                return fn(a, *rest)
            finally:
                dt = clock() - t0
                tracer.coeff_depth = 0
                tracer.coeff_s += dt
                if tracer.stack:
                    tracer.stack[-1][3] += dt
        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, name):
        if name == "rewrite.normal_form":
            def after(args, out):
                self.nf_terms.append(len(out))
                if not self._inside_rewrite():
                    self._note_coeffs(out)
            return after
        if name in ("rewrite.multiply", "rewrite.multiply_assoc",
                    "rewrite.q_commutator"):
            def after(args, out):
                if not self._inside_rewrite():
                    self._note_coeffs(out)
            return after
        if name == "rewrite.overlap_check":
            return lambda args, out: self.overlap_inputs.append(args[0])
        if name == "linalg.insert":
            def after(args, out):
                self.insert_useful += bool(out)
            return after
        if name == "identities.check_paper_identity":
            def after(args, out):
                self.identity_checks += len(out.checks)
            return after
        return None

    def _inside_rewrite(self):
        return any(fr[1].startswith("rewrite.") for fr in self.stack)

    def _note_coeffs(self, poly):
        for c in poly.terms.values():
            n = coeff_terms(c)
            if n > self.max_coeff_terms:
                self.max_coeff_terms = n

    def _replace(self, owner, attr, new):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        homes = {layer: importlib.import_module(f"orepi.{layer}")
                 for layer in ENTRY_POINTS}
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "orepi" or k.startswith("orepi.")]
        for layer, names in ENTRY_POINTS.items():
            home = homes[layer]
            for fname in names:
                fn = getattr(home, fname)
                span = f"{layer}.{fname}"
                wrapper = self._wrap(span, fn, self._after(span))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._replace(mod, attr, wrapper)
        for cls, meth, layer in METHOD_POINTS:
            span = f"{layer}.{meth}"
            self._replace(cls, meth, self._wrap(span, getattr(cls, meth),
                                                self._after(span)))
        for meth, op in COUNTED.items():
            self._replace(fields.Coeff, meth,
                          self._wrap_coeff(getattr(fields.Coeff, meth), op))
        for meth in TIMED_ONLY:
            self._replace(fields.Coeff, meth,
                          self._wrap_coeff(getattr(fields.Coeff, meth), None))

    def uninstall(self):
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    # -- figures -------------------------------------------------------------

    @staticmethod
    def _under(parent_of, sid, name):
        while sid:
            sid, pname = parent_of[sid]
            if pname == name:
                return True
        return False

    def summary(self, passes):
        """Per-layer figures, each a per-pass mean over ``passes`` passes."""
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        parent_of = {sid: (parent, name)
                     for sid, parent, name, _, _, _ in self.spans}
        oracle_in_check = 0.0
        for sid, parent, name, t0, t1, child in self.spans:
            self_s[name] += (t1 - t0) - child
            calls[name] += 1
            if sid not in self.nested:
                incl_s[name] += t1 - t0
                if name == "identities.oracle_rhs" and \
                        self._under(parent_of, parent,
                                    "identities.check_paper_identity"):
                    oracle_in_check += t1 - t0
        layer_self = defaultdict(float)
        for name, s in self_s.items():
            layer_self[name.split(".", 1)[0]] += s
        layer_self["fields"] = self.coeff_s
        k = float(passes)
        inserts = calls["linalg.insert"]
        overlap_calls = calls["rewrite.overlap_check"]
        distinct = len({id(p) for p in self.overlap_inputs})
        m = {f"{layer}.self_s": layer_self[layer] / k for layer in LAYERS}
        m.update({f"fields.ops.{kind}": self.ops[kind] / k
                  for kind in FIELD_KINDS})
        m.update({
            "fields.max_coeff_terms": self.max_coeff_terms,
            "rewrite.calls": calls["rewrite.normal_form"] / k,
            "rewrite.terms_out": sum(self.nf_terms) / k,
            "rewrite.peak_terms": max(self.nf_terms, default=0),
            "rewrite.overlap_check.calls": overlap_calls / k,
            "rewrite.overlap_check.s": incl_s["rewrite.overlap_check"] / k,
            "rewrite.overlap_check.reuse_ratio":
                distinct / overlap_calls if overlap_calls else 1.0,
            "identities.oracle_s": incl_s["identities.oracle_rhs"] / k,
            "identities.check_s":
                (incl_s["identities.check_paper_identity"]
                 - oracle_in_check) / k,
            "identities.checks": self.identity_checks / k,
            "center.is_central.calls": calls["center.is_central"] / k,
            "center.is_central.self_s": self_s["center.is_central"] / k,
            "center.spanning_check.s": incl_s["center.spanning_check"] / k,
            "center.candidates.s": incl_s["center.central_candidates"] / k,
            "linalg.span_insert.calls": inserts / k,
            "linalg.span_insert.self_s": self_s["linalg.insert"] / k,
            "linalg.span_insert.useful_ratio":
                self.insert_useful / inserts if inserts else 1.0,
            "linalg.dense_kernel.s": incl_s["linalg.dense_kernel"] / k,
            "pidecide.decide_s": incl_s["pidecide.pi_decide"] / k,
            "pidecide.verify_witness_s": incl_s["pidecide.verify_witness"] / k,
            "matrep.identity_search_s":
                incl_s["matrep.multilinear_identity_search"] / k,
            "presentations.build_family_s":
                incl_s["presentations.build_family"] / k,
            "cli.run_command.self_s": self_s["cli.run_command"] / k,
        })
        return m
