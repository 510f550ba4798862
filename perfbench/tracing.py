"""Layer tracing from outside the simulator.

:class:`LayerTracer` wraps the public methods of each simulator layer at
runtime (class attributes and module functions are swapped for timing
wrappers, and put back on :meth:`LayerTracer.uninstall`).  No file under
``src/`` is touched and nothing is wrapped unless a traced run asks.

Every wrapped call is a span.  Spans nest on one stack, so a span's
*self time* is its duration minus the time its child spans cover, and
the self times of all layers never sum to more than the traced window.
A ref-grid pass opens millions of spans, so spans are folded into
per-layer totals as they close instead of being kept in a list: the
aggregates are exactly what a stored span list would reduce to.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: Layer -> (module, class or ``None`` for module functions, attributes).
#: A layer is the ``repro`` subpackage the wrapped code lives in.  The
#: ``exec`` layer is deliberately absent: the benchmark bypasses the
#: cached experiment runner so no timed cell can be served from cache.
LAYER_TARGETS: Dict[str, List[Tuple[str, object, Tuple[str, ...]]]] = {
    "sim.machine": [
        ("repro.sim.machine", "Machine", (
            "__init__", "add_user", "create_file", "open_file", "mmap",
            "load", "store", "persist", "compute", "fence", "load_bytes",
            "store_bytes", "mark_measurement_start", "result", "crash",
            "reboot",
        )),
    ],
    "sim.batch": [
        ("repro.sim.batch", "BatchRunner", ("run",)),
        ("repro.sim.batch", None, (
            "execute_compiled", "capture_workload", "_capture_raw",
            "_compile_raw", "_interpret", "replay",
        )),
    ],
    "sim.service": [
        ("repro.sim.service", None, ("run_service",)),
    ],
    "kernel": [
        ("repro.kernel.mmu", "MMU", ("translate",)),
    ],
    "mem": [
        ("repro.mem.hierarchy", "CacheHierarchy", ("access",)),
        ("repro.mem.nvm", "NVMDevice", ("read", "write")),
        ("repro.mem.controller", "PlainMemoryController", ("access",)),
    ],
    "secmem": [
        ("repro.secmem.secure_controller", "BaselineSecureController", ("access",)),
        ("repro.secmem.metadata_cache", "MetadataCache", ("access",)),
        ("repro.secmem.merkle", "BonsaiMerkleTree", (
            "update_leaf", "verify_leaf", "rebuild_root", "flag_poisoned_nodes",
        )),
        ("repro.secmem.osiris", "OsirisRecovery", ("recover_counter",)),
    ],
    "core": [
        ("repro.core.ott", "OpenTunnelTable", ("lookup",)),
        ("repro.core.fsencr", "FsEncrController", (
            "install_file_key", "update_fecb", "read_data",
            "crash_flush_ott", "recover_ott_after_crash",
        )),
    ],
    "fs": [
        ("repro.fs.ext4dax", "DaxFilesystem", ("create", "open", "fault_in")),
    ],
    "crypto": [
        ("repro.crypto.aes", "AES128", ("encrypt_block", "decrypt_block")),
    ],
    "faults": [
        ("repro.faults.lifecycle", None, ("crash_machine", "reboot_machine")),
    ],
}

#: Every public method and property of ``MetadataLayout`` is a span of
#: its own sub-layer: it is the hottest secmem code on the reference path.
LAYOUT_MODULE = "repro.secmem.layout"
LAYOUT_LAYER = "secmem.layout"

#: Layers reported as ``<layer>.self_s``.  ``secmem.self_s`` includes the
#: layout sub-layer; ``workloads`` is every Workload subclass's
#: ``setup``/``run``, i.e. op generation.
LAYERS = (
    "secmem", "mem", "kernel", "sim.machine", "sim.batch", "sim.service",
    "core", "fs", "crypto", "faults", "workloads",
)


class LayerTracer:
    """Install timing wrappers, fold spans into per-layer self time."""

    def __init__(self) -> None:
        #: layer -> self seconds (``secmem.layout`` kept separately).
        self.self_s: Counter = Counter()
        #: span name ("layer:Qualname") -> calls.
        self.calls: Counter = Counter()
        #: span name -> inclusive seconds (only top-level entries of a
        #: name count, so recursion is not double-counted).
        self.inclusive_s: Counter = Counter()
        self._active: Counter = Counter()
        self._stack: List[float] = [0.0]
        self._undo: List[Callable[[], None]] = []

    # -- wrapping -------------------------------------------------------

    def _span(self, layer: str, name: str, fn: Callable) -> Callable:
        perf = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        inclusive = self.inclusive_s
        active = self._active

        def span(*args, **kwargs):
            calls[name] += 1
            active[name] += 1
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                self_s[layer] += duration - stack.pop()
                stack[-1] += duration
                active[name] -= 1
                if not active[name]:
                    inclusive[name] += duration

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _wrap_attr(self, owner, attr: str, layer: str) -> None:
        original = owner.__dict__[attr]
        name = f"{layer}:{getattr(owner, '__name__', '')}.{attr}"
        if isinstance(original, property):
            wrapped = property(self._span(layer, name, original.fget))
        else:
            wrapped = self._span(layer, name, original)
        self._patch(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every target; raises if a target no longer exists."""
        import importlib

        import repro.workloads  # noqa: F401  (registers every subclass)
        from repro.mem.stats import StatCounters
        from repro.workloads.base import Workload

        for layer, targets in LAYER_TARGETS.items():
            for module_name, class_name, attrs in targets:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                for attr in attrs:
                    self._wrap_attr(owner, attr, layer)

        layout_cls = importlib.import_module(LAYOUT_MODULE).MetadataLayout
        for attr, value in list(vars(layout_cls).items()):
            if attr.startswith("_") or not (
                callable(value) or isinstance(value, property)
            ):
                continue
            self._wrap_attr(layout_cls, attr, LAYOUT_LAYER)

        pending, seen = list(Workload.__subclasses__()), set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for attr in ("setup", "run"):
                if attr in cls.__dict__:
                    self._wrap_attr(cls, attr, "workloads")

        # Counted, not timed: a span around every stat bump would
        # swamp the layers it is called from.
        self._patch(StatCounters, "add",
                    self._counted("mem:StatCounters.add", StatCounters.add))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- readout ----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        """Self seconds of a layer, including its sub-layers."""
        return sum(
            seconds for name, seconds in self.self_s.items()
            if name == layer
            or (name.startswith(layer + ".") and name not in LAYERS)
        )

    def calls_in(self, prefix: str) -> int:
        """Calls of every span whose name starts with ``prefix``."""
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    def inclusive_in(self, prefix: str) -> float:
        return sum(s for name, s in self.inclusive_s.items() if name.startswith(prefix))
