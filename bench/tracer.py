"""Outside-in tracing of the weaksym layers.

The package imports functions by name (``from .numerics import
spectral_decompose``), so a shim on the defining module alone would miss
most calls. :class:`Tracer` replaces every public function in every
``weaksym.*`` namespace that binds it, plus the section table of
``weaksym.verify``, records one span per call in memory, and restores the
originals on :meth:`uninstall`. Nothing in the package is edited.

A span is ``[name, start, end, parent, pass_id]``; ``parent`` is the index of
the enclosing span or -1. For a few functions the shim also hashes the
input arrays, so the share of distinct inputs per pass can be reported.
"""

import functools
import hashlib
import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _array_bytes(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=complex)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


def _first(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Input keys for the functions whose redundant work is measured. Arguments
# are taken by position or keyword, as the package calls them.
INPUT_KEYS = {
    "transfer.build_transfer": lambda a, k: _array_bytes(
        _first(a, k, 0, "lpdo").tensor, _first(a, k, 1, "op")
    ),
    "transfer.build_ancilla_transfer": lambda a, k: _array_bytes(
        _first(a, k, 0, "lpdo").tensor, _first(a, k, 1, "op_a")
    ),
    "numerics.spectral_decompose": lambda a, k: _array_bytes(_first(a, k, 0, "m")),
    "symmetry.extract_virtual_rep": lambda a, k: _array_bytes(
        _first(a, k, 0, "lpdo").tensor, _first(a, k, 1, "act").u, _first(a, k, 1, "act").ua
    ),
}


def _matrix_order(args, kwargs):
    return int(np.shape(_first(args, kwargs, 0, "m"))[0])


def _amplitudes(args, kwargs):
    d, da = np.shape(_first(args, kwargs, 0, "lpdo").tensor)[:2]
    return int(d * da) ** int(_first(args, kwargs, 2, "n_sites"))


# Work counters computed from the inputs: name -> (counter, function of args).
WORK_COUNTERS = {
    "numerics.spectral_decompose": ("n3_sum", lambda a, k: _matrix_order(a, k) ** 3),
    "oracle.contract_full": ("amplitudes", _amplitudes),
}


def section_slug(section):
    return section.replace(" ", "_").replace("-", "_")


class Tracer:
    """Span recorder that patches the weaksym namespaces while installed."""

    def __init__(self):
        self.spans = []
        self.inputs = defaultdict(list)  # name -> [(pass_id, key)]
        self.work = defaultdict(lambda: defaultdict(int))  # (name, counter) -> pass -> sum
        self.pass_id = -1
        self._stack = []
        self._patched = []
        self._shims = {}

    def _shim(self, name, fn):
        key_of = INPUT_KEYS.get(name)
        counter = WORK_COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if key_of is not None:
                self.inputs[name].append((self.pass_id, key_of(args, kwargs)))
            if counter is not None:
                self.work[(name, counter[0])][self.pass_id] += counter[1](args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return shim

    def _wrap(self, fn, name):
        shim = self._shims.get(id(fn))
        if shim is None:
            shim = self._shims[id(fn)] = self._shim(name, fn)
        return shim

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "weaksym" or n.startswith("weaksym.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("weaksym.")
                ):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                self._patched.append((vars(module), attr, obj))
                setattr(module, attr, self._wrap(obj, name))
        sections = getattr(sys.modules.get("weaksym.verify"), "_SECTIONS", {})
        for section, fn in list(sections.items()):
            self._patched.append((sections, section, fn))
            sections[section] = self._shim(f"verify.{section_slug(section)}", fn)

    def uninstall(self):
        while self._patched:
            namespace, key, original = self._patched.pop()
            namespace[key] = original

    # --- statistics ---------------------------------------------------------

    def pass_stats(self):
        """{pass_id: {name: {calls, self_s, total_s}}} from the recorded spans.

        Self time is a span's duration minus that of its direct children;
        total time counts only spans with no enclosing span of the same name.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}))
        for i, (name, start, end, parent, pass_id) in enumerate(spans):
            rec = out[pass_id][name]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child[i]
            outer = True
            while parent >= 0:
                if spans[parent][0] == name:
                    outer = False
                    break
                parent = spans[parent][3]
            if outer:
                rec["total_s"] += end - start
        for (name, counter), per_pass in self.work.items():
            for pass_id, value in per_pass.items():
                out[pass_id][name][counter] = value
        for name, entries in self.inputs.items():
            per_pass = defaultdict(list)
            for pass_id, key in entries:
                per_pass[pass_id].append(key)
            for pass_id, keys in per_pass.items():
                out[pass_id][name]["unique_ratio"] = len(set(keys)) / len(keys)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def median_over_passes(stats, name, stat, passes):
    """Median of one statistic over the given passes (0 where never called)."""
    return statistics.median(stats[p][name][stat] if name in stats[p] else 0 for p in passes)
