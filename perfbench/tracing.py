"""Per-layer tracing from outside the library.

`Tracer(lib)` wraps the public functions of every `ffr` layer at
run time (no edit under `src/`).  Because modules import each other's
functions with `from .x import y`, a wrapper is installed in every `ffr`
module namespace that holds the function.  Each call records a span
(name, start, end, parent span, instance); spans stay in memory and are
written out at the end.  `layer_metrics` turns spans into the per-layer
metrics: counts, inclusive times of the outermost span of each group, and
self times (duration minus the time covered by child spans).

Monomial arithmetic and subset enumeration are not wrapped: they run in
inner loops, so wrapping them would multiply the overhead, and their cost
belongs to the caller's layer anyway.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
from array import array
from time import perf_counter

from decide import LAYERS

SKIP = {
    "ring": {"mono_mul", "mono_divides", "mono_div", "mono_lcm", "mono_gcd",
             "mono_deg"},
    "exterior": {"subsets_colex", "subset_index", "eps_sign", "complement"},
}
METHODS = {
    "groebner": {"IdealGens": ("__init__", "groebner"),
                 "GroebnerBasis": ("normal_form",),
                 "ModuleBasis": ("__init__", "normal_form")},
    "algebra": {"AIdeal": ("__init__",)},
    "complexes": {"FreeComplex": ("__init__",)},
    "monomial": {"MonomialList": ("parse",)},
}

# metric group -> span names; a span counts towards a group's time only when
# no ancestor span belongs to the same group
GROUPS = {
    "ring.parse": ("ring.parse_poly",),
    "groebner.gb": ("groebner.IdealGens.groebner",),
    "groebner.elim": ("groebner.ideal_intersection",
                      "groebner.ideal_colon_poly", "groebner.saturation"),
    "groebner.module_gb": ("groebner.ModuleBasis.__init__",),
    "groebner.nf": ("groebner.GroebnerBasis.normal_form",
                    "groebner.ModuleBasis.normal_form"),
    "algebra.ideal_init": ("algebra.AIdeal.__init__",
                           "groebner.IdealGens.__init__"),
    "algebra.colon": ("algebra.module_colon_scalar",
                      "algebra.module_colon_ideal",
                      "algebra.module_colon_element"),
    "algebra.faithful": ("algebra.is_faithful_ideal",),
    "depth.kronecker": ("depth.kronecker_sequence",),
    "depth.stages": ("depth.is_E_regular_sequence",),
    "exterior.minor": ("exterior.matrix_minor",),
    "exterior.power": ("exterior.exterior_power_matrix",),
    "complexes.det_ideal": ("complexes.determinantal_ideal",),
    "complexes.certify": ("complexes.certify_exact",),
    "complexes.complex_init": ("complexes.FreeComplex.__init__",),
    "cayley.factorize": ("cayley.cayley_factorize",),
    "cayley.resultant": ("cayley.resultant_via_cayley",),
}
# whole layers as groups: depth.s and monomial.taylor_s
LAYER_GROUPS = ("depth", "monomial")

PER_LAYER = [
    ("ring.parse_s", "s"),
    ("groebner.gb_calls", "count"), ("groebner.gb_s", "s"),
    ("groebner.basis_len", "count"), ("groebner.elim_s", "s"),
    ("groebner.module_gb_calls", "count"), ("groebner.module_gb_s", "s"),
    ("groebner.nf_calls", "count"), ("groebner.nf_s", "s"),
    ("algebra.ideal_gens_offered", "count"),
    ("algebra.ideal_gens_kept", "count"), ("algebra.ideal_init_s", "s"),
    ("algebra.colon_s", "s"), ("algebra.faithful_calls", "count"),
    ("algebra.faithful_s", "s"),
    ("depth.calls", "count"), ("depth.stages_run", "count"),
    ("depth.s", "s"), ("depth.kronecker_s", "s"),
    ("exterior.minor_calls", "count"), ("exterior.minor_s", "s"),
    ("exterior.power_s", "s"),
    ("complexes.det_ideal_calls", "count"),
    ("complexes.minors_requested", "count"), ("complexes.det_ideal_s", "s"),
    ("complexes.certify_s", "s"), ("complexes.complex_init_s", "s"),
    ("cayley.factorize_s", "s"), ("cayley.lift_calls", "count"),
    ("cayley.resultant_s", "s"),
    ("monomial.taylor_s", "s"),
    ("cli.startup_ms", "ms"), ("cli.report_ms", "ms"),
    ("cli.report_bytes", "bytes"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS]


def _minors_requested(args, kwargs, result):
    M, k = args[0], args[1]
    if k <= 0 or k > min(M.rows, M.cols):
        return 0
    return math.comb(M.rows, k) * math.comb(M.cols, k)


def _stages(args, kwargs, result):
    return result.k if result.holds else result.fail_stage


def _basis_len(args, kwargs, result):
    return len(result.basis)


def _kept(args, kwargs, result):
    return len(args[0].gens)


# span name -> function(args, kwargs, result) giving the span's number
MEASURES = {
    "complexes.determinantal_ideal": _minors_requested,
    "depth.is_E_regular_sequence": _stages,
    "groebner.IdealGens.groebner": _basis_len,
    "algebra.AIdeal.__init__": _kept,
    "groebner.IdealGens.__init__": _kept,
}
IDEAL_INITS = ("algebra.AIdeal.__init__", "groebner.IdealGens.__init__")


class Tracer:
    """Records spans around the wrapped library functions of `lib`.

    The wrappers are built once; `active()` installs them for a block.
    """

    def __init__(self, lib=None):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.value: dict[int, int] = {}    # span -> measured number
        self.offered: dict[int, int] = {}  # ideal-init span -> gens offered
        self.current_instance = -1
        self._stack = [-1]
        self._plan = [] if lib is None else self._plan_for(lib)

    # -- recording

    def _intern(self, span_name: str) -> int:
        nid = self.name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        return nid

    def _wrap(self, fn, span_name):
        nid = self._intern(span_name)
        measure = MEASURES.get(span_name)
        is_gb = span_name == "groebner.IdealGens.groebner"
        is_init = span_name in IDEAL_INITS
        stack, tracer = self._stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_gb and args[0]._gb is not None:
                return fn(*args, **kwargs)  # cached: no basis computed
            if is_init:  # count the generators even when given an iterator
                if len(args) > 2:
                    args = args[:2] + (list(args[2]),) + args[3:]
                else:
                    kwargs["gens"] = list(kwargs["gens"])
            sid = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1])
            tracer.instance.append(tracer.current_instance)
            tracer.end.append(0.0)
            stack.append(sid)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                stack.pop()
            if is_init:
                tracer.offered[sid] = len(args[2] if len(args) > 2
                                          else kwargs["gens"])
            if measure is not None:
                tracer.value[sid] = measure(args, kwargs, result)
            return result
        return wrapper

    def _plan_for(self, lib) -> list:
        """(owner, attribute, wrapper, original) for every public function
        of every layer, in every namespace that holds it."""
        plan = []
        modules = [getattr(lib, layer) for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or attr in SKIP.get(layer, ())):
                    continue
                wrapped = self._wrap(fn, f"{layer}.{attr}")
                plan += [(other, name, wrapped, fn) for other in modules
                         for name, obj in vars(other).items() if obj is fn]
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(
                            raw.__func__, f"{layer}.{cls_name}.{meth}"))
                    else:
                        wrapped = self._wrap(raw, f"{layer}.{cls_name}.{meth}")
                    plan.append((cls, meth, wrapped, raw))
        return plan

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        for owner, name, new, _ in self._plan:
            setattr(owner, name, new)
        try:
            yield self
        finally:
            for owner, name, _, old in reversed(self._plan):
                setattr(owner, name, old)

    # -- merging and writing

    def merge(self, doc: dict, instance: int) -> None:
        """Append spans written by a traced child process."""
        base = len(self.name)
        for name, s, e, p, _, value, offered in doc["spans"]:
            sid = len(self.name)
            self.name.append(self._intern(doc["names"][name]))
            self.start.append(s)
            self.end.append(e)
            self.parent.append(-1 if p < 0 else base + p)
            self.instance.append(instance)
            if value is not None:
                self.value[sid] = value
            if offered is not None:
                self.offered[sid] = offered

    def to_doc(self) -> dict:
        return {"names": self.names,
                "spans": [[self.name[i], self.start[i], self.end[i],
                           self.parent[i], self.instance[i],
                           self.value.get(i), self.offered.get(i)]
                          for i in range(len(self.name))]}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_doc(), fh, separators=(",", ":"))

# ---------------------------------------------------------------------------
# analysis


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer counts, group times and self times from the spans."""
    names = tr.names
    n = len(tr.name)
    groups = list(GROUPS) + [f"{layer}.layer" for layer in LAYER_GROUPS]
    bits = {g: 1 << k for k, g in enumerate(groups)}
    name_groups = [[g for g in GROUPS if span_name in GROUPS[g]]
                   + [f"{layer}.layer" for layer in LAYER_GROUPS
                      if span_name.startswith(layer + ".")]
                   for span_name in names]
    name_bits = [sum(bits[g] for g in gs) for gs in name_groups]
    lift_name = names.index("algebra.algebra_membership") \
        if "algebra.algebra_membership" in names else -1

    count = dict.fromkeys(groups, 0)
    outer = dict.fromkeys(groups, 0)
    outer_s = dict.fromkeys(groups, 0.0)
    value = dict.fromkeys(groups, 0)
    lift_calls = offered = 0
    child_time = [0.0] * n
    ancestors = [0] * n  # group bits of all ancestors
    for i in range(n):
        p = tr.parent[i]
        dur = tr.end[i] - tr.start[i]
        if p >= 0:
            ancestors[i] = ancestors[p] | name_bits[tr.name[p]]
            child_time[p] += dur
        for g in name_groups[tr.name[i]]:
            count[g] += 1
            value[g] += tr.value.get(i, 0)
            if not ancestors[i] & bits[g]:
                outer[g] += 1
                outer_s[g] += dur
        if tr.name[i] == lift_name and ancestors[i] & bits["cayley.factorize"]:
            lift_calls += 1
        offered += tr.offered.get(i, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i in range(n):
        layer = names[tr.name[i]].split(".", 1)[0]
        self_s[layer] += tr.end[i] - tr.start[i] - child_time[i]

    out = {
        "ring.parse_s": outer_s["ring.parse"],
        "groebner.gb_calls": count["groebner.gb"],
        "groebner.gb_s": outer_s["groebner.gb"],
        "groebner.basis_len": value["groebner.gb"],
        "groebner.elim_s": outer_s["groebner.elim"],
        "groebner.module_gb_calls": count["groebner.module_gb"],
        "groebner.module_gb_s": outer_s["groebner.module_gb"],
        "groebner.nf_calls": count["groebner.nf"],
        "groebner.nf_s": outer_s["groebner.nf"],
        "algebra.ideal_gens_offered": offered,
        "algebra.ideal_gens_kept": value["algebra.ideal_init"],
        "algebra.ideal_init_s": outer_s["algebra.ideal_init"],
        "algebra.colon_s": outer_s["algebra.colon"],
        "algebra.faithful_calls": count["algebra.faithful"],
        "algebra.faithful_s": outer_s["algebra.faithful"],
        "depth.calls": outer["depth.layer"],
        "depth.stages_run": value["depth.stages"],
        "depth.s": outer_s["depth.layer"],
        "depth.kronecker_s": outer_s["depth.kronecker"],
        "exterior.minor_calls": count["exterior.minor"],
        "exterior.minor_s": outer_s["exterior.minor"],
        "exterior.power_s": outer_s["exterior.power"],
        "complexes.det_ideal_calls": count["complexes.det_ideal"],
        "complexes.minors_requested": value["complexes.det_ideal"],
        "complexes.det_ideal_s": outer_s["complexes.det_ideal"],
        "complexes.certify_s": outer_s["complexes.certify"],
        "complexes.complex_init_s": outer_s["complexes.complex_init"],
        "cayley.factorize_s": outer_s["cayley.factorize"],
        "cayley.lift_calls": lift_calls,
        "cayley.resultant_s": outer_s["cayley.resultant"],
        "monomial.taylor_s": outer_s["monomial.layer"],
    }
    out.update({f"{layer}.self_s": s for layer, s in self_s.items()})
    return out
