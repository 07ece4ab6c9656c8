"""Span tracing of rcftlab's public functions, installed from outside.

``Tracer.install()`` replaces every public function of the six layers,
wherever its name is bound in any of the six modules (so
``rcftlab.contour.two_point`` is wrapped as well as
``rcftlab.curve.two_point``), the public and arithmetic methods of the
classes they define, and ``rcftlab.odesys.solve_ivp``.  Each call records
a span (name, start, end, parent span, claim id) in flat arrays; spans
stay in memory, are written out once at the end, and self times are
derived from them.  ``uninstall()`` restores the original objects.
"""

from __future__ import annotations

import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from rcftlab import contour, curve, odesys, qspecial, series, sewing

LAYERS = {"series": series, "qspecial": qspecial, "curve": curve,
          "contour": contour, "odesys": odesys, "sewing": sewing}

#: operator methods of TruncatedSeries that are wrapped besides public ones
SERIES_DUNDERS = ("__init__", "__neg__", "__add__", "__radd__", "__sub__",
                  "__rsub__", "__mul__", "__rmul__", "__truediv__",
                  "__rtruediv__", "__pow__")

QSPECIAL_FLOAT = ("theta_numeric", "eta_numeric", "eisenstein_numeric", "rr_numeric",
                  "weierstrass_e_values", "e_cubic_residual",
                  "serre_e_identity_residuals")
SERIES_GRID = ("refined", "aligned", "shifted", "truncated")


def _is_series(x):
    return isinstance(x, series.TruncatedSeries)


def _returned_series(obj):
    """Series objects inside a value handed back to a claim."""
    if _is_series(obj):
        yield obj
    elif isinstance(obj, qspecial.CharacterSeries):
        yield obj.series
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _returned_series(v)
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            yield from _returned_series(v)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.claim = array("q")
        self._stack = [-1]
        self.claim_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self._saved: list[tuple] = []
        self._call_hooks = {
            "series.__mul__": self._on_mul, "series.__rmul__": self._on_mul,
            "curve.two_point": self._on_two_point,
            "contour.cauchy_coefficient": self._on_cauchy,
        }
        self._return_hooks = {"odesys.solve_ivp": self._on_solve_ivp}

    # -- span recording --------------------------------------------------

    def _nid(self, name):
        i = self._name_id.get(name)
        if i is None:
            i = self._name_id[name] = len(self.names)
            self.names.append(name)
        return i

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        i = len(self.start)
        parent = self._stack[-1]
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(parent)
        self.name.append(self._nid(name))
        self.claim.append(self.claim_id)
        hook = self._call_hooks.get(name)
        if hook is not None:
            hook(args, kwargs)
        self._stack.append(i)
        self.start[i] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()
        hook = self._return_hooks.get(name)
        if hook is not None:
            hook(out)
        if parent >= 0 and self.name[parent] == self._claim_nid:
            for s in _returned_series(out):
                self.counts["series.stored_coeffs"] += len(s.coeffs)
                self.counts["series.nonzero_coeffs"] += int(np.count_nonzero(s.coeffs))
        return out

    def claim_span(self, claim_id, fn):
        self.claim_id = claim_id
        try:
            return self.span("claim", fn)
        finally:
            self.claim_id = -1

    # -- counters at layer boundaries ------------------------------------

    def _on_mul(self, args, kwargs):
        a, b = args[0], args[1]
        if _is_series(a) and _is_series(b):
            d = int(np.lcm(a.denom, b.denom))
            self.counts["series.mul.calls"] += 1
            self.counts["series.mul.macs"] += (len(a.coeffs) * (d // a.denom)
                                               * len(b.coeffs) * (d // b.denom))

    def _on_two_point(self, args, kwargs):
        self.counts["curve.two_point.points"] += int(np.size(args[2]))

    def _on_cauchy(self, args, kwargs):
        self.counts["contour.integrand_points"] += args[1].nodes
        self.counts["contour.coeffs_returned"] += 1

    def _on_solve_ivp(self, sol):
        self.counts["odesys.rhs_evals"] += sol.nfev

    def _keyed(self, metric, fn):
        """Record the normalized argument tuple of each call for distinct_frac."""
        sig = inspect.signature(fn)

        def hook(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.keys[metric].add(tuple(
                complex(v) if hasattr(v, "imag") else v for v in bound.arguments.values()))
        return hook

    # -- installation ----------------------------------------------------

    def _wrapper(self, name, fn):
        span = self.span

        def traced(*args, **kwargs):
            return span(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        self._claim_nid = self._nid("claim")
        wrappers = {}
        for layer, mod in LAYERS.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith("rcftlab."):
                    home = obj.__module__.split(".")[1]
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrapper(f"{home}.{obj.__name__}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        wrappers[id(odesys.solve_ivp)] = self._wrapper("odesys.solve_ivp", odesys.solve_ivp)
        for mod in LAYERS.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, w)
        self._call_hooks["sewing.theta_char_1d"] = self._keyed(
            "sewing.theta_char_1d", sewing.theta_char_1d.__wrapped__)
        self._call_hooks["sewing.wp_coeffs"] = self._keyed(
            "sewing.wp_coeffs", sewing.wp_coeffs.__wrapped__)

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (cls is series.TruncatedSeries
                                             and attr in SERIES_DUNDERS):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrapper(f"{layer}.{attr}", raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrapper(f"{layer}.{attr}", raw)
            else:
                continue
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    # -- derived metrics -------------------------------------------------

    def arrays(self):
        return {"start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "name": np.frombuffer(self.name, dtype=np.int64),
                "claim": np.frombuffer(self.claim, dtype=np.int64),
                "names": np.array(self.names)}

    def write(self, path):
        np.savez_compressed(path, **self.arrays())

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the child spans' durations."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        per_name = np.bincount(a["name"], weights=dur - child, minlength=len(self.names))
        calls = np.bincount(a["name"], minlength=len(self.names))
        return ({n: float(per_name[i]) for i, n in enumerate(self.names)},
                {n: int(calls[i]) for i, n in enumerate(self.names)})

    def metrics(self) -> dict[str, float]:
        st, calls = self.self_times()

        def self_of(*names):
            return sum(st.get(n, 0.0) for n in names)

        def layer_self(layer):
            return sum(v for n, v in st.items() if n.split(".")[0] == layer)

        c = self.counts
        total = self_of("claim") + sum(layer_self(layer) for layer in LAYERS)
        out = {"trace.claims_s": total}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self(layer)
            out[f"{layer}.self_frac"] = layer_self(layer) / total
        out.update({
            "series.mul.calls": c["series.mul.calls"],
            "series.mul.macs": c["series.mul.macs"],
            "series.inverse.self_s": self_of("series.inverse"),
            "series.exp_log.self_s": self_of("series.exp", "series.log"),
            "series.grid.self_s": self_of(*(f"series.{n}" for n in SERIES_GRID)),
            "series.order_fit.self_s": self_of("series.order_fit"),
            "series.stored_coeffs": c["series.stored_coeffs"],
            "series.fill_ratio": (c["series.nonzero_coeffs"] / c["series.stored_coeffs"]
                                  if c["series.stored_coeffs"] else 0.0),
            "qspecial.qseries.self_s": sum(
                v for n, v in st.items() if n.startswith("qspecial.")
                and n.split(".")[1] not in QSPECIAL_FLOAT),
            "qspecial.float.calls": sum(calls.get(f"qspecial.{n}", 0) for n in QSPECIAL_FLOAT),
            "qspecial.float.self_s": self_of(*(f"qspecial.{n}" for n in QSPECIAL_FLOAT)),
            "curve.two_point.points": c["curve.two_point.points"],
            "curve.two_point.self_s": self_of("curve.two_point"),
            "curve.b_sym_coeffs.calls": calls.get("curve.b_sym_coeffs", 0),
            "contour.cauchy.calls": calls.get("contour.cauchy_coefficient", 0),
            "contour.evals_per_coeff": (c["contour.integrand_points"]
                                        / c["contour.coeffs_returned"]
                                        if c["contour.coeffs_returned"] else 0.0),
            "odesys.solve_ivp.calls": calls.get("odesys.solve_ivp", 0),
            "odesys.solve_ivp.self_s": self_of("odesys.solve_ivp"),
            "odesys.rhs_evals": c["odesys.rhs_evals"],
        })
        for metric, fn in (("theta_char_1d", "theta_char_1d"), ("wp_coeffs", "wp_coeffs")):
            n = calls.get(f"sewing.{fn}", 0)
            out[f"sewing.{metric}.calls"] = n
            out[f"sewing.{metric}.distinct_frac"] = (
                len(self.keys[f"sewing.{fn}"]) / n if n else 0.0)
        out.update({
            "sewing.siegel_direct.calls": calls.get("sewing.siegel_theta_direct", 0),
            "sewing.siegel_direct.self_s": self_of("sewing.siegel_theta_direct"),
            "sewing.siegel_expansion.self_s": self_of("sewing.siegel_theta_expansion"),
            "sewing.wp_lattice_oracle.self_s": self_of("sewing.wp_lattice_oracle"),
            "trace.spans": len(self.start),
        })
        return out
