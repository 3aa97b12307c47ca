"""Outside-in tracing of the voamodes layers, installed from the benchmark.

`install()` wraps each layer's public functions and replaces every
binding of them: the package binds names with `from .x import y`, so a
function can sit in several module namespaces, in a class body, or in a
dispatch dict (`suites._SUITE_FUNCS`).  The program itself is not
changed.  Each call records a span (layer id, parent span, start, end)
in flat arrays; `dump()` writes them, plus per-layer counters, when the
child exits.  `self_times()` turns spans into per-layer call counts,
inclusive time and self time (span minus the time its child spans cover).
"""

from __future__ import annotations

import importlib
import pickle
import sys
import time
from array import array

PKG = "voamodes"

def _module_key(self, k, l, v, w):
    return (self.lam, self.level_cap, k, l, v, w)


def _intertwiner_key(self, k, l, w1, w2):
    return (self.lam1, self.lam2, self.scale, self.level_cap, k, l, w1, w2)


def _left_key(v, w, k, n, l):
    return (v, w, k, n, l)


def _right_key(w, v, k, n, l, form="conjugated"):
    return (w, v, k, n, l, form)


ZERO = "zero"

# (span name, module, attribute path inside the module, observer).  The
# observer is None, a function of the call's arguments whose distinct
# values give `.distinct_frac`, or ZERO, which counts zero results.
LAYERS = [
    ("series.gen_binomial", "series", "gen_binomial", None),
    ("heisenberg.expand_pair", "heisenberg", "expand_pair", None),
    ("heisenberg.sugawara_l", "heisenberg", "sugawara_l", None),
    ("fock.FockModule.theta", "fock", "FockModule.theta", _module_key),
    ("fock.FockIntertwiner.theta", "fock", "FockIntertwiner.theta",
     _intertwiner_key),
    ("fock.FockModule.theta_dual", "fock", "FockModule.theta_dual", _module_key),
    ("fock.FockModule.mode", "fock", "FockModule.mode", None),
    ("fock.right_vertex_op", "fock", "right_vertex_op", None),
    ("matrices.left_entry", "matrices", "left_entry", _left_key),
    ("matrices.right_entry", "matrices", "right_entry", _right_key),
    ("matrices.right_entry.conjugated", "matrices", "right_entry_conjugated", None),
    ("matrices.right_entry.direct", "matrices", "right_entry_direct", None),
    ("matrices.right_entry.right-op", "matrices", "right_entry_right_op", None),
    ("matrices.jacobi_kernel_element", "matrices", "jacobi_kernel_element", ZERO),
    ("matrices.probe_equal", "matrices", "probe_equal", None),
    ("correspondence.MapTable.from_intertwiner", "correspondence",
     "MapTable.from_intertwiner", None),
    ("correspondence.MapTable.value", "correspondence", "MapTable.value", None),
    ("correspondence.certify_jacobi", "correspondence", "certify_jacobi", None),
    ("correspondence.reachability_closure", "correspondence",
     "reachability_closure", None),
    ("suites.cert_table", "suites", "RunContext.cert_table", None),
    ("cli.cmd_tables", "cli", "cmd_tables", None),
]

SUITE_NAMES = (
    "homomorphism", "unit", "bimodule", "three-forms", "kernel",
    "omega-commutators", "binomial-218", "conjugation", "exp-L",
    "roundtrip", "jacobi-cert", "L1-cert", "opposite", "reachability",
)


class Recorder:
    """Spans kept in flat arrays: layer id, parent span index, start, end."""

    def __init__(self, names):
        self.names = list(names)
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.seen = {}      # layer id -> set of argument keys
        self.zero = {}      # layer id -> count of zero results

    def wrap(self, layer_id, fn, key=None, zero=False):
        layer, parent, start, end, stack = (
            self.layer, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter
        seen = self.seen.setdefault(layer_id, set()) if key else None
        if zero:
            self.zero[layer_id] = 0

        def traced(*args, **kwargs):
            i = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            if seen is not None:
                seen.add(key(*args, **kwargs))
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if zero and out.is_zero():
                self.zero[layer_id] += 1
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced


def self_times(n_layers, layer, parent, start, end):
    """Per layer: (calls, inclusive seconds, self seconds).

    A span's self time is its duration minus the durations of its direct
    children; spans on one thread nest, so children never overlap.
    """
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    calls = [0] * n_layers
    total = [0.0] * n_layers
    own = [0.0] * n_layers
    for i, lid in enumerate(layer):
        calls[lid] += 1
        total[lid] += dur[i]
        own[lid] += dur[i] - child[i]
    return calls, total, own


# ---------------------------------------------------------------------------
# installation


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PKG or name.startswith(PKG + "."))]


def _resolve(module, path):
    """(owner, attribute, raw value) for 'f' or 'Class.f' inside module."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    raw = vars(owner)[parts[-1]]
    return owner, parts[-1], raw


def install():
    """Wrap every layer in LAYERS and every suite; return the Recorder."""
    importlib.import_module(PKG + ".cli")
    suites = sys.modules[PKG + ".suites"]
    rec = Recorder([spec[0] for spec in LAYERS] +
                   ["suites." + s for s in SUITE_NAMES])
    swaps = {}   # id(original function) -> (original, wrapper)
    for lid, (_name, mod, path, observe) in enumerate(LAYERS):
        owner, attr, raw = _resolve(sys.modules[f"{PKG}.{mod}"], path)
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        wrapped = rec.wrap(lid, fn, key=None if observe in (None, ZERO)
                           else observe, zero=observe == ZERO)
        swaps[id(fn)] = (fn, wrapped)
        if isinstance(owner, type):
            setattr(owner, attr, classmethod(wrapped) if is_cm else wrapped)
    for offset, suite in enumerate(SUITE_NAMES):
        fn = suites._SUITE_FUNCS[suite]
        swaps[id(fn)] = (fn, rec.wrap(len(LAYERS) + offset, fn))
    _rebind(swaps)
    check_installed(swaps)
    rec.expand_cache_start = len(sys.modules[PKG + ".heisenberg"]._EXPAND_CACHE)
    return rec


def _rebind(swaps):
    """Point every module-level binding, and dispatch-dict value, at the wrappers."""
    for module in _package_modules():
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if id(value) in swaps:
                namespace[attr] = swaps[id(value)][1]
            elif isinstance(value, dict):
                for key, fn in list(value.items()):
                    if id(fn) in swaps:
                        value[key] = swaps[id(fn)][1]


def check_installed(swaps):
    """Raise if any package namespace, class or dict still holds an original."""
    stale = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            where = f"{module.__name__}.{attr}"
            if id(value) in swaps:
                stale.append(where)
            elif isinstance(value, dict):
                stale += [f"{where}[{key!r}]" for key, fn in value.items()
                          if id(fn) in swaps]
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cval in vars(value).items():
                    fn = cval.__func__ if isinstance(cval, classmethod) else cval
                    if id(fn) in swaps:
                        stale.append(f"{where}.{cattr}")
    if stale:
        raise RuntimeError("unwrapped bindings: " + ", ".join(sorted(stale)))


def dump(rec, path):
    """Write spans and end-of-run counters to `path` (pickle)."""
    matrices = sys.modules[PKG + ".matrices"]
    heis = sys.modules[PKG + ".heisenberg"]
    extras = {
        "distinct": {rec.names[lid]: len(keys) for lid, keys in rec.seen.items()},
        "zero": {rec.names[lid]: n for lid, n in rec.zero.items()},
        "expand_cache_growth": len(heis._EXPAND_CACHE) - rec.expand_cache_start,
        "cache_info": {
            "matrices.left_entry": matrices._left_entry_cached.cache_info()[:2],
            "matrices.right_entry": matrices._right_entry_cached.cache_info()[:2],
        },
    }
    with open(path, "wb") as fh:
        pickle.dump({"names": rec.names, "layer": rec.layer,
                     "parent": rec.parent, "start": rec.start, "end": rec.end,
                     "extras": extras}, fh, protocol=pickle.HIGHEST_PROTOCOL)
