"""Spans around the public entry points of each layer, installed from outside.

The package imports names directly (``from .expr import differentiate``),
so a wrapper is bound in place of the original in every ``moyal`` module
that holds it, and the two ``HamiltonianSpec`` methods are wrapped on the
class.  Spans (name, start, end, parent, job id) are kept in memory as
arrays and written out when the run ends; :meth:`Tracer.uninstall` puts
every original back.

Only public names are wrapped, so a layer's self time includes the private
helpers it calls directly: the ``self_s`` of ``hbar2_ode`` and
``hbar2_transport`` holds their own ``flow._eval_real`` calls.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# module -> public functions wrapped; metric names are "<module>.<name>.*"
WRAPPED = {
    "poly": ("star_product", "moyal_bracket", "star_n", "bracket_2n", "poisson_bracket"),
    "words": ("bch_check", "sas_order", "expand", "weyl_symmetrize"),
    "expr": ("differentiate", "eval_expr", "parse_expr"),
    "closed_forms": ("builtin_example1",),
    "brackets": ("moyal_bracket_truncated",),
    "jets": ("eval_expr_jet",),
    "flow": ("integrate_flow", "integrate_flow_jets"),
    "semiclassical": ("hbar2_ode", "hbar2_transport", "divergence_order", "iterated_brackets"),
}
# methods wrapped on their class: (module, class, names)
WRAPPED_METHODS = (("flow", "HamiltonianSpec", ("field", "field_jets")),)

SPAN_NAMES = tuple(
    [f"{mod}.{name}" for mod, names in WRAPPED.items() for name in names]
    + [f"{mod}.{name}" for mod, _cls, names in WRAPPED_METHODS for name in names]
)

# counters the hooks gather that are reported as they are, with their units
_REPORTED = {
    "scalars.coeff_bits_max": "bits",
    "poly.terms_out": "count",
    "expr.differentiate.nodes_out": "count",
    "brackets.grades_evaluated": "count",
    "flow.integrate_flow.steps": "count",
    "flow.integrate_flow_jets.steps": "count",
    "flow.jets_stored": "count",
    "semiclassical.transport_nodes": "count",
    "semiclassical.jet_steps": "count",
}
# and those reported only as ratios
COUNTERS = (*_REPORTED, "poly.grades_computed", "poly.grades_nonzero", "brackets.pair_repeats")


def _coeff_bits(poly) -> int:
    bits = 0
    for c in poly.terms.values():
        for r in (c.re, c.im):
            bits = max(bits, r.numerator.bit_length(), r.denominator.bit_length())
    return bits


def _poly_out(tracer, args, out, parent):
    tracer.counts["poly.terms_out"] += len(out.terms)
    bits = tracer.counts["scalars.coeff_bits_max"]
    tracer.counts["scalars.coeff_bits_max"] = max(bits, _coeff_bits(out))


def _grade_out(tracer, args, out, parent):
    _poly_out(tracer, args, out, parent)
    tracer.counts["poly.grades_computed"] += 1
    tracer.counts["poly.grades_nonzero"] += bool(out.terms)


def _expand_out(tracer, args, out, parent):
    bits = tracer.counts["scalars.coeff_bits_max"]
    tracer.counts["scalars.coeff_bits_max"] = max(bits, _coeff_bits(out))


def _count_nodes(e) -> int:
    """Distinct nodes of an expression DAG."""
    seen = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        stack.extend(getattr(n, "terms", ()))
        stack.extend(getattr(n, "factors", ()))
        for attr in ("base", "arg"):
            child = getattr(n, attr, None)
            if child is not None:
                stack.append(child)
    return len(seen)


def _differentiate_out(tracer, args, out, parent):
    tracer.counts["expr.differentiate.nodes_out"] += _count_nodes(out)


def _bracket_truncated_out(tracer, args, out, parent):
    tracer.counts["brackets.grades_evaluated"] += len(out.partial_sums)
    pair = (args[0], args[1])
    if pair in tracer.pairs_seen:
        tracer.counts["brackets.pair_repeats"] += 1
    tracer.pairs_seen.add(pair)


def _flow_out(tracer, args, out, parent):
    tracer.counts["flow.integrate_flow.steps"] += len(out.states) - 1


def _flow_jets_out(tracer, args, out, parent):
    steps = len(out.states) - 1
    tracer.counts["flow.integrate_flow_jets.steps"] += steps
    tracer.counts["flow.jets_stored"] += len(out.jets)
    if parent >= 0 and SPAN_NAMES[tracer.span_name[parent]] == "semiclassical.hbar2_transport":
        tracer.counts["semiclassical.transport_nodes"] += 1
        tracer.counts["semiclassical.jet_steps"] += steps


HOOKS = {
    "poly.star_product": _poly_out,
    "poly.moyal_bracket": _poly_out,
    "poly.poisson_bracket": _poly_out,
    "poly.star_n": _grade_out,
    "poly.bracket_2n": _grade_out,
    "words.expand": _expand_out,
    "expr.differentiate": _differentiate_out,
    "brackets.moyal_bracket_truncated": _bracket_truncated_out,
    "flow.integrate_flow": _flow_out,
    "flow.integrate_flow_jets": _flow_jets_out,
}


def _package_modules() -> list:
    return [m for k, m in sorted(sys.modules.items()) if k == "moyal" or k.startswith("moyal.")]


class Tracer:
    """Records spans of the wrapped functions while installed.

    ``job`` is the id stamped on new spans; the caller sets it before each
    job (0 for set-up).  A hook's own time is charged neither to the span it
    inspects nor to that span's parent.
    """

    def __init__(self):
        self.job = 0
        self.span_name = array("H")
        self.span_job = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.pairs_seen: set = set()
        self._open: list[int] = []
        self._child: list[float] = []
        self._saved: list[tuple] = []
        self._wrappers: list = []  # kept alive so their ids stay unique

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        try:
            for mod, names in WRAPPED.items():
                module = sys.modules[f"moyal.{mod}"]
                for name in names:
                    fn = getattr(module, name)
                    wrapper = self._wrap(f"{mod}.{name}", fn)
                    for owner in modules:
                        for attr, value in list(vars(owner).items()):
                            if value is fn:
                                self._bind(owner, attr, wrapper)
            for mod, cls_name, names in WRAPPED_METHODS:
                cls = getattr(sys.modules[f"moyal.{mod}"], cls_name)
                for name in names:
                    self._bind(cls, name, self._wrap(f"{mod}.{name}", vars(cls)[name]))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def bound_wrappers(self) -> list[str]:
        """Where a wrapper of this tracer is still bound (empty once uninstalled)."""
        ids = {id(w) for w in self._wrappers}
        found = []
        for mod, cls_name, _names in WRAPPED_METHODS:
            cls = getattr(sys.modules[f"moyal.{mod}"], cls_name)
            found += [f"{cls_name}.{a}" for a, v in vars(cls).items() if id(v) in ids]
        for owner in _package_modules():
            found += [f"{owner.__name__}.{a}" for a, v in vars(owner).items() if id(v) in ids]
        return found

    def _bind(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, span: str, fn):
        idx = SPAN_NAMES.index(span)
        hook = HOOKS.get(span)
        perf = time.perf_counter
        opened, child = self._open, self._child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.span_start)
            parent = opened[-1] if opened else -1
            self.span_name.append(idx)
            self.span_job.append(self.job)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            opened.append(sid)
            child.append(0.0)
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf()
                opened.pop()
                inner = child.pop()
                self.span_start[sid] = start
                self.span_end[sid] = end
                self.calls[idx] += 1
                self.self_s[idx] += end - start - inner
            if hook is not None:
                hook(self, args, out, parent)
            if child:
                child[-1] += perf() - start
            return out

        self._wrappers.append(wrapper)
        return wrapper

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for idx, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = (self.calls[idx], "count")
            out[f"{name}.self_s"] = (self.self_s[idx], "s")
        c = self.counts
        out.update({name: (c[name], unit) for name, unit in _REPORTED.items()})
        grades = c["poly.grades_computed"]
        out["poly.grade_nonzero_ratio"] = (c["poly.grades_nonzero"] / grades if grades else 0.0, "ratio")
        calls = self.calls[SPAN_NAMES.index("brackets.moyal_bracket_truncated")]
        out["brackets.pair_repeat_share"] = (c["brackets.pair_repeats"] / calls if calls else 0.0, "ratio")
        out["trace.spans"] = (len(self.span_start), "count")
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped CSV: id, name, job, parent, start_s, end_s."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=3) as fh:
            fh.write("id,name,job,parent,start_s,end_s\n")
            for sid in range(len(self.span_start)):
                fh.write(
                    f"{sid},{SPAN_NAMES[self.span_name[sid]]},{self.span_job[sid]},"
                    f"{self.span_parent[sid]},{self.span_start[sid]!r},{self.span_end[sid]!r}\n"
                )
