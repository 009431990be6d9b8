"""Spans around the calls into the layers of biphoton_shaper.

A :class:`Tracer` wraps functions so that every call records a span: name,
start, end and the index of the enclosing span.  Spans stay in memory and are
written once, by :meth:`Tracer.spans`, when the traced process ends.

:func:`trace_layers` finds at run time every public function that a layer
module defines, so a function added later is traced without editing the
benchmark.  It then replaces every reference to a wrapped function that any
module of the package holds: names imported with ``from .x import f`` and the
values of module-level dicts such as ``scenarios.EXPERIMENT_RUNNERS``.

Spans nest through a single stack, so the traced program must call the
layers from one thread (the benchmark never passes ``--parallel``).
"""

import functools
import hashlib
import inspect
import sys
import time

PACKAGE = "biphoton_shaper"
LAYER_MODULES = ("spectral_field", "bases", "shaper", "measurement", "metrics",
                 "scenarios", "config")


def _amplitude_key(amp, *_):
    """Identity of the amplitude an ``amplitude_svd`` call decomposes.

    Keyed by content, not by object.  ``compute_modes`` is left out: one full
    decomposition also gives the values-only result.  A strided sample of the
    values tells the amplitudes of one run apart and costs about a
    millisecond on a 2049-point grid.
    """
    values = amp.values
    digest = hashlib.blake2b(values[::7, ::7].tobytes(), digest_size=16)
    digest.update(repr((values.shape, str(values.dtype))).encode())
    return digest.hexdigest()


def _amplitude_bytes(amp, *_):
    """Bytes of the joint amplitude one coincidence integral reads."""
    return amp.values.nbytes


# Per-function probes: each maps the call's positional arguments to a value
# recorded with the span.  A probe runs before the span opens, inside a span of
# its own named PROBE_SPAN, so its time is charged to neither the function nor
# its caller.
PROBE_SPAN = "trace.probe"
PROBES = {
    "bases.amplitude_svd": _amplitude_key,
    "measurement.coincidence_signal": _amplitude_bytes,
}


class Tracer:
    def __init__(self):
        self._names = []
        self._starts = []
        self._ends = []
        self._parents = []
        self._stack = []
        self.probed = {}  # span name -> list of probe values, in call order

    def _open(self, name):
        index = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(None)
        self._stack.append(index)
        self._starts.append(time.perf_counter())
        return index

    def _close(self, index):
        self._ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None
        values = self.probed.setdefault(name, []) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                # A sibling span before the call's own, so the caller's
                # self time does not include the probe.
                index = self._open(PROBE_SPAN)
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    values.append(probe(*bound.arguments.values()))
                finally:
                    self._close(index)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def spans(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in zip(self._names, self._starts, self._ends,
                                      self._parents)]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _replace_references(wrapped):
    """Point every module attribute and module-level dict entry at the wrappers."""
    by_id = {id(fn): new for fn, new in wrapped}
    for module in _package_modules():
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if id(value) in by_id:
                namespace[attr] = by_id[id(value)]
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in by_id:
                        value[key] = by_id[id(item)]


def trace_layers(tracer, modules=LAYER_MODULES):
    """Wrap every public function the given layer modules define."""
    wrapped = []
    for short in modules:
        module = sys.modules[f"{PACKAGE}.{short}"]
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                wrapped.append((value, tracer.wrap(f"{short}.{attr}", value)))
    _replace_references(wrapped)
