"""Per-layer counters and timings, recorded from outside the program.

``install`` wraps the public functions listed in ``TARGETS``.  A function
that other modules imported by name (``from .algebras import
jacobson_radical``) is replaced in every ringspectra module that holds it,
so every caller goes through the wrapper.  Methods are replaced on their
class.  Recording is on only while ``Tracer.active`` is set, which the
worker does around each timed operation, so set-up and the benchmark's own
checks are not counted.

Self time is a call's duration minus the time of the wrapped calls made
inside it.  Inclusive time counts only the outermost call of a function
that recurses into itself.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, metric prefix or None for "module.attribute",
# reported figures: c = calls, s = self_ms, i = incl_ms)
TARGETS = [
    ("algebras", "FiniteDimAlgebra.__init__", "algebras.FiniteDimAlgebra", "c"),
    ("algebras", "jacobson_radical", None, "csi"),
    ("algebras", "quotient_algebra", None, "c"),
    ("algebras", "FiniteDimAlgebra.opposite", None, "c"),
    ("algebras", "wedderburn_blocks", None, "ci"),
    ("modules", "RightModule.__init__", "modules.RightModule", "c"),
    ("modules", "simple_modules", None, "ci"),
    ("modules", "primitive_idempotents", None, "ci"),
    ("modules", "injective_envelope", None, "ci"),
    ("modules", "composition_factors", None, "ci"),
    ("modules", "projective_cover", None, "c"),
    ("linalg", "Matrix.__init__", "linalg.Matrix", "c"),
    ("linalg", "Matrix.rref", None, "cs"),
    ("linalg", "Matrix.__mul__", "linalg.Matrix.mul", "cs"),
    ("linalg", "spin", None, "cs"),
    ("linalg", "Subspace.from_vectors", None, "c"),
    ("ideals", "minimal_primes", None, "ci"),
    ("ideals", "is_prime", None, "ci"),
    ("ideals", "annihilator", None, "c"),
    ("oracle", "enumerate_subspaces", None, "cs"),
    ("oracle", "brute_is_prime", None, "i"),
    ("oracle", "brute_is_essential", None, "i"),
    ("oracle", "brute_singular_subspace", None, "i"),
    ("oracle", "brute_mass", None, "i"),
    ("oracle", "brute_is_monoform", None, "i"),
    ("oracle", "brute_is_compressible", None, "i"),
    ("oracle", "brute_is_prime_object", None, "i"),
    ("spectra", "verify_correspondence", None, "csi"),
    ("subcats", "classify_locally_closed_localizing", None, "i"),
    ("subcats", "classify_localizing", None, "i"),
    ("subcats", "reduced_part", None, "i"),
    ("subcats", "artinianization", None, "i"),
    ("goldie", "goldie_localizing", None, "i"),
    ("goldie", "validate_quotient_ring", None, "i"),
    ("commutative", "factor_integer", None, "cs"),
    ("commutative", "factor_polynomial", None, "cs"),
    ("commutative", "primes_up_to", None, "cs"),
    ("commutative", "irreducible_polys", None, "cs"),
    ("fixtures", "load_fixture", None, "ci"),
    ("cli", "main", None, "i"),
]
REPORTED = {prefix or f"{mod}.{attr}": figs for mod, attr, prefix, figs in TARGETS}

# Figures derived from the operations themselves: the worker's per round,
# and the traced wall times, in total and for each part of the workload.
DERIVED = {
    "algebras.radicals_per_input": "ratio",
    "modules.injective_envelope.calls_in_analyze_atoms": "count",
    "cli.report_bytes": "bytes",
    "trace.wall_s": "s",
    "part.analyze-corpus.wall_s": "s",
    "part.scaling.wall_s": "s",
    "part.oracle.wall_s": "s",
    "part.windows.wall_s": "s",
}

_FIGURES = {"c": ("calls", "count"), "s": ("self_ms", "ms"), "i": ("incl_ms", "ms")}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for prefix, figs in REPORTED.items():
        for f in figs:
            name, unit = _FIGURES[f]
            out[f"{prefix}.{name}"] = unit
    out.update(DERIVED)
    return out


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = {}       # prefix -> [calls, self_s, incl_s, depth]
        self._children = []   # wrapped-child time of each open call

    def wrap(self, prefix, fn):
        st = self.stats.setdefault(prefix, [0, 0.0, 0.0, 0])
        children = self._children
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st[0] += 1
            st[3] += 1
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                st[1] += elapsed - children.pop()
                st[3] -= 1
                if st[3] == 0:
                    st[2] += elapsed
                if children:
                    children[-1] += elapsed
        return wrapper

    def reset(self):
        for st in self.stats.values():
            st[0], st[1], st[2] = 0, 0.0, 0.0

    def calls(self, prefix) -> int:
        return self.stats[prefix][0]

    def snapshot(self) -> dict:
        out = {}
        for prefix, figs in REPORTED.items():
            calls, self_s, incl_s, _depth = self.stats[prefix]
            for f in figs:
                out[f"{prefix}.{_FIGURES[f][0]}"] = (
                    calls if f == "c" else 1000.0 * (self_s if f == "s" else incl_s))
        return out


def install(tracer: Tracer):
    """Wrap every target; call before anything imports names from the program."""
    for modname, *_rest in TARGETS:
        importlib.import_module("ringspectra." + modname)
    modules = [m for n, m in list(sys.modules.items())
               if n == "ringspectra" or n.startswith("ringspectra.")]
    for modname, attr, prefix, _figs in TARGETS:
        mod = sys.modules["ringspectra." + modname]
        prefix = prefix or f"{modname}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(prefix, raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(prefix, raw))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(prefix, orig)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, name, wrapped)
