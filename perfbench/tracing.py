"""Spans around the public functions of each pencildil layer.

The tracer lives entirely in the benchmark: it replaces each listed
function, in every ``pencildil`` module that binds it, with a wrapper that
records a span (name, start, end, parent) and restores the originals on
``uninstall``.  The program itself is not changed.  A listed function that
no longer exists is reported as absent rather than raising.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "pencildil"

# Public functions traced per layer (module of pencildil -> function names).
LAYERS = {
    "pencil": ("classify",),
    "factorization": ("gram_coefficients", "bauer_factorize",
                      "verify_factorization", "outer_surrogate_check",
                      "outer_roots"),
    "isodil": ("build_canonical", "apply", "apply_adjoint", "check_dilation",
               "check_uniform", "check_minimality"),
    "unidil": ("core_subspaces", "build_q", "apply_u", "apply_u_adjoint",
               "verify_q_identities", "compression_tower",
               "check_uniform_unitary", "check_minimality_unitary",
               "check_biinner"),
    "verify": ("run_pipeline", "canonical_chain", "unitarity_report",
               "equivalence_falsifier", "demo"),
    "linalg": ("numerical_rank", "orthonormal_range", "spec_norm", "psd_sqrt"),
}

# Functions that loop over circle points themselves, with the argument that
# sets how many points; ``grid.points`` sums that argument over their calls.
GRID_LOOPS = {
    "pencil.classify": "grid_size",
    "factorization.bauer_factorize": "grid_size",
    "factorization.verify_factorization": "grid_size",
    "factorization.outer_surrogate_check": "grid_size",
    "unidil.verify_q_identities": "grid_size",
    "unidil.compression_tower": "grid_size",
    "unidil.check_biinner": "grid_size",
    "verify.unitarity_report": "count",
}


def traced_names(layers=LAYERS) -> list[str]:
    return [f"{module}.{fn}" for module, fns in layers.items() for fn in fns]


class Tracer:
    """Records spans of the wrapped functions while installed.

    Spans are kept in memory for the current op; ``fold`` turns them into
    per-function call counts, self times and failures and clears them.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []
        self.absent: list[str] = []
        names = traced_names(layers)
        self.calls = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.failed = dict.fromkeys(names, 0)
        self.grid_points = 0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        grid_arg = GRID_LOOPS.get(name)
        signature = inspect.signature(fn) if grid_arg else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.grid_points += int(bound.arguments[grid_arg])
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, ok)

        return wrapper

    def install(self):
        """Wrap every listed function wherever a package module binds it."""
        self.absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module, fns in self.layers.items():
            try:
                home = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                home = None
            for fn in fns:
                name = f"{module}.{fn}"
                orig = getattr(home, fn, None)
                if not inspect.isfunction(orig):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def fold(self):
        """Add the recorded spans to the per-function totals and clear them."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, ok in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, ok) in enumerate(self.spans):
            self.calls[name] += 1
            self.self_s[name] += (end - start) - child[i]
            if not ok:
                self.failed[name] += 1
        self.spans.clear()
