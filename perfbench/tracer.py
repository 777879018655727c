"""Spans around mixedrandic's public functions, installed from outside.

Each public function of the eight package modules is replaced by a wrapper
in its defining module and in every package module that imported it by name
(``theorems.randic_spectrum`` is a separate name from
``spectra.randic_spectrum``).  A wrapper records one span per call: name,
start, end, parent and whether the call raised.  Spans live in flat arrays
while the run lasts and are written out once, at the end.

The program itself is never edited: `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("graphs", "gains", "enumeration", "matrices", "spectra",
          "theorems", "campaign", "cli")

_MARK = "__perfbench_span__"


def package_modules(package) -> list:
    return [package] + [importlib.import_module(f"{package.__name__}.{layer}")
                        for layer in LAYERS]


def installed_wrappers(package) -> list[str]:
    """Names in the package that currently hold a tracing wrapper."""
    return [f"{module.__name__}.{attr}"
            for module in package_modules(package)
            for attr, value in vars(module).items()
            if getattr(value, _MARK, None) is not None]


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.matrices_seen: set[bytes] = set()

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = package_modules(self.package)
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, name, fn))
                            setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, name, fn = self._patches.pop()
            setattr(holder, name, fn)

    def _open(self, nid: int) -> int:
        i = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        open_, close, stack = self._open, self._close, self._stack

        if inspect.isgeneratorfunction(fn):
            # The span runs from the first item to exhaustion; while the
            # consumer holds control between items it is off the stack.
            def traced(*args, **kwargs):
                i = open_(nid)
                active = True
                try:
                    for item in fn(*args, **kwargs):
                        stack.pop()
                        active = False
                        yield item
                        stack.append(i)
                        active = True
                except GeneratorExit:
                    raise
                except BaseException:
                    self.raised[i] = 1
                    raise
                finally:
                    self.end[i] = time.perf_counter()
                    if active:
                        stack.pop()
        else:
            note = self._note_matrix if name == "spectra.eigendecompose" else None

            def traced(*args, **kwargs):
                if note is not None:
                    note(args[0] if args else kwargs["mat"])
                i = open_(nid)
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    self.raised[i] = 1
                    raise
                finally:
                    close(i)

        functools.update_wrapper(traced, fn)
        setattr(traced, _MARK, name)
        return traced

    def _note_matrix(self, mat) -> None:
        data = np.ascontiguousarray(mat, dtype=complex).tobytes()
        self.matrices_seen.add(hashlib.blake2b(data, digest_size=16).digest())

    # ------------------------------------------------------------ results

    def __len__(self) -> int:
        return len(self.name_of)

    def counts(self) -> Counter:
        return Counter(self.names[nid] for nid in self.name_of)

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: index, parent, name, start, end (seconds
        from the first span), raised."""
        t0 = self.start[0] if len(self) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as out:
            out.write("index\tparent\tname\tstart_s\tend_s\traised\n")
            for i in range(len(self)):
                out.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}"
                          f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}"
                          f"\t{self.raised[i]}\n")


class SpanView:
    """Derived per-span facts: duration, self time and root op."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        n = len(tracer)
        self.duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
        covered = [0.0] * n
        self.root = list(range(n))
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                covered[p] += self.duration[i]
                self.root[i] = self.root[p]
        self.self_time = [d - c for d, c in zip(self.duration, covered)]
        self.name = [tracer.names[nid] for nid in tracer.name_of]
        self.by_name: dict[str, list[int]] = {}
        for i, nm in enumerate(self.name):
            self.by_name.setdefault(nm, []).append(i)

    def spans(self, *names: str, roots: set[int] | None = None) -> list[int]:
        """Indices of the spans called `names`, in call order per name,
        optionally only those under the given root spans."""
        found = [i for nm in names for i in self.by_name.get(nm, ())]
        if roots is None:
            return found
        return [i for i in found if self.root[i] in roots]

    def outermost_time(self, *names: str) -> float:
        """Time inside any of `names`, counting nested calls among them once."""
        wanted = set(names)
        inside = [False] * len(self.name)
        total = 0.0
        for i, nm in enumerate(self.name):
            p = self.tracer.parent[i]
            enclosed = p >= 0 and inside[p]
            inside[i] = enclosed or nm in wanted
            if nm in wanted and not enclosed:
                total += self.duration[i]
        return total

    def total(self, *names: str) -> float:
        return sum(self.duration[i] for i in self.spans(*names))


def self_test(package, run_small) -> list[str]:
    """Problems found with the tracer itself, or [] when it behaves.

    `run_small()` drives a small fixed input through the package.  Run it
    traced twice: counts must repeat exactly, spans must nest, and every
    wrapper must be gone after each uninstall.
    """
    problems = []
    if installed_wrappers(package):
        problems.append("wrappers present before the traced run")
    counts = []
    for _ in range(2):
        tracer = Tracer(package)
        tracer.install()
        if {name.split(".")[0] for name in tracer.names} != set(LAYERS):
            problems.append("a layer has no public function wrapped")
        try:
            run_small()
        finally:
            tracer.uninstall()
        if installed_wrappers(package):
            problems.append("wrappers left after uninstall")
        if not len(tracer):
            problems.append("no spans recorded")
        for i in range(len(tracer)):
            p = tracer.parent[i]
            if tracer.end[i] < tracer.start[i] or (p >= 0 and not (
                    tracer.start[p] <= tracer.start[i]
                    and tracer.end[i] <= tracer.end[p])):
                problems.append(f"span {i} does not nest in its parent")
                break
        counts.append(tracer.counts())
    if counts[0] != counts[1]:
        problems.append("span counts differ between identical runs")
    return problems
