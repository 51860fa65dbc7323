"""In-memory span recording around calls into emlab's layers.

The tracer replaces public functions with wrappers at run time; nothing
under ``src/`` is edited.  A function is replaced in every module namespace
that holds it (``emlab.cli.simulate`` and ``emlab.dynamics.simulate`` are the
same object), so calls are caught whichever import path the caller used.

Spans are kept in flat lists (name, start, end, parent) and written out when
the run ends.  Self time of a span is its duration minus the time its child
spans cover; all calls run on one Python thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (module, attribute, span name).  The FFT entries are wrapped on scipy.fft
# itself, because emlab calls them as ``sfft.<name>`` attribute lookups.
TARGETS = [
    ("emlab.cli", "run_simulate", "cli.run"),
    ("emlab.cli", "run_linear", "cli.run"),
    ("emlab.cli", "run_inequalities", "cli.run"),
    ("emlab.model", "make_initial_data", "model.make_initial_data"),
    ("emlab.model", "verify_compatibility", "model.verify_compatibility"),
    ("emlab.dynamics", "simulate", "dynamics.simulate"),
    ("emlab.energetics", "standard_monitor", "energetics.standard_monitor"),
    ("emlab.linear", "decay_report", "linear.decay_report"),
    ("emlab.linear", "multi_norm_series", "linear.multi_norm_series"),
    ("emlab.linear", "mode_matrix", "linear.mode_matrix"),
    ("numpy.linalg", "eig", "linear.eig"),
    ("numpy.linalg", "solve", "linear.solve"),
    ("scipy.linalg", "expm", "linear.expm"),
    ("emlab.analysis", "fit_decay", "analysis.fit_decay"),
    ("emlab.inequalities", "default_suite", "inequalities.default_suite"),
    ("emlab.inequalities", "check_gagliardo_nirenberg", "inequalities.gagliardo_nirenberg"),
    ("emlab.inequalities", "check_closure_estimates", "inequalities.closure_estimates"),
    ("emlab.inequalities", "check_commutator", "inequalities.commutator"),
    ("emlab.inequalities", "check_embeddings", "inequalities.embeddings"),
    ("emlab.inequalities", "check_exact_interpolation", "inequalities.exact_interpolation"),
    ("scipy.fft", "rfftn", "fft.rfftn"),
    ("scipy.fft", "irfftn", "fft.irfftn"),
    ("scipy.fft", "fftn", "fft.fftn"),
    ("scipy.fft", "ifftn", "fft.ifftn"),
]

# standard_monitor returns the callable the simulator samples; that callable
# is what gets its own span.
_RETURNS_CALLABLE = {"energetics.standard_monitor": "energetics.monitor"}


def replace_everywhere(module_name: str, attr: str, make_wrapper) -> list[tuple]:
    """Replace ``module.attr`` in that module and in every loaded emlab module
    that holds the same object.  Returns (module, name, original) triples for
    ``restore``; an empty list when the name does not exist."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr, None)
    if original is None:
        return []
    wrapper = make_wrapper(original)
    holders = [module] + [
        m for name, m in list(sys.modules.items()) if name.split(".")[0] == "emlab" and m is not None
    ]
    patched = []
    for holder in holders:
        for name, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, name, wrapper)
                patched.append((holder, name, original))
    return patched


def restore(patched: list[tuple]) -> None:
    for holder, name, original in reversed(patched):
        setattr(holder, name, original)


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.fft_workers: set = set()
        self.dropped: dict[str, str] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        returned = _RETURNS_CALLABLE.get(name)
        is_fft = name.startswith("fft.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_fft:
                self.fft_workers.add(kwargs.get("workers"))
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if returned is not None:
                result = self.wrap(result, returned)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name in targets:
            patched = replace_everywhere(module_name, attr, lambda fn, n=name: self.wrap(fn, n))
            if patched:
                self._patched.extend(patched)
            else:
                self.dropped[f"{module_name}.{attr}"] = "name not found at this commit"

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched = []

    # -- derived quantities ---------------------------------------------------

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.names]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                kids[parent].append(idx)
        return kids

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i, n in enumerate(self.names) if n == name)

    def count(self, name: str) -> int:
        return self.names.count(name)

    def self_time(self, name: str, excluded: set[str] | None = None) -> float:
        """Summed duration of ``name`` spans minus the descendants whose name is
        in ``excluded`` (outermost ones only).  ``excluded=None`` subtracts
        every direct child: the plain self time."""
        kids = self.children()

        def covered(idx: int) -> float:
            out = 0.0
            for child in kids[idx]:
                if excluded is None or self.names[child] in excluded:
                    out += self.duration(child)
                else:
                    out += covered(child)
            return out

        return sum(
            self.duration(i) - covered(i) for i, n in enumerate(self.names) if n == name
        )

    def dump(self, path: Path) -> None:
        """Write the spans as columns; parent -1 marks a root span."""
        t0 = min(self.starts, default=0.0)
        path.write_text(
            json.dumps(
                {
                    "names": self.names,
                    "start_s": [round(s - t0, 9) for s in self.starts],
                    "end_s": [round(e - t0, 9) for e in self.ends],
                    "parent": self.parents,
                }
            )
        )
