"""Span recorder for the benchmark's traced runs.

The package has no tracing of its own, so spans are recorded from the
outside: each public function named in ``TARGETS`` is replaced by a
wrapper in every ``zpaction.*`` module that holds it, including modules
that imported it by name (``from .classify import orbit_partition``).
Module-internal calls go through the module globals, so nested spans are
seen too.

A span is ``{name, start, end, parent}``; spans are kept in compact
arrays in memory and written once, when the run ends.  Per-pass
statistics are accumulated as spans close:

* ``<name>.self_s``: span duration minus the time its nested spans cover;
* ``<name>.calls``: number of spans;
* ``<name>.<count>``: the counts a target's counter reads from its
  arguments and result (rows, keys, generators, ...);
* ``<name>.rss_growth_mb``: growth of the process's peak RSS during the
  span, less that of nested spans.  The peak only rises, so the value is
  nonzero only where a span raises the process peak for the first time.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _orbit_partition_counts(args, kwargs, result, child):
    return {
        "keys_in": sum(len(members) for _, members in result.orbits),
        "generators": len(args[1].generators),
        "orbits_out": result.count,
    }


def _invariant_keys_full_counts(args, kwargs, result, child):
    return {"rows_in": child.get("enumeration.theta_table.rows", 0), "keys_out": len(result)}


# (module, function, counter, track peak RSS).  A counter maps
# (args, kwargs, result, counts of nested spans) to named counts.
TARGETS = (
    ("cli", "main", None, False),
    ("enumeration", "enumerate_actions", lambda a, k, r, c: {"keys": len(r)}, False),
    ("enumeration", "theta_table", lambda a, k, r, c: {"rows": len(r)}, True),
    ("enumeration", "key_from_digit_string", None, False),
    ("classify", "count_orbits_burnside", lambda a, k, r, c: {"elements": a[1].order}, False),
    ("classify", "burnside_count_full", None, False),
    ("classify", "orbit_partition", _orbit_partition_counts, False),
    ("classify", "invariant_keys_full", _invariant_keys_full_counts, True),
    ("classify", "classify_triples", None, False),
    ("hgroup", "normalizer_in_symmetric", lambda a, k, r, c: {"generators_out": len(r.generators)}, False),
    ("hgroup", "symmetric_group", None, False),
    ("hgroup", "close_group", None, False),
    ("predictions", "predicted_invariant_set", lambda a, k, r, c: {"keys_out": len(r)}, False),
    ("fpalgebra", "rref", None, False),
    ("fpalgebra", "kernel_basis", None, False),
    ("geometry", "fiber_product_model", None, False),
    ("geometry", "render_model", None, False),
    ("geometry", "jacobian_decomposition", None, False),
    ("geometry", "conjecture_probe", None, False),
)


class _Frame:
    __slots__ = ("child_s", "child_rss", "child_counts")

    def __init__(self):
        self.child_s = 0.0
        self.child_rss = 0.0
        self.child_counts: dict[str, float] = {}


class Tracer:
    """Wraps the target functions while installed and records their spans."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_counts: dict[int, dict[str, float]] = {}
        self.stats: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[tuple[int, _Frame]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, tuple[object, object]] = {}
        for module, function, counter, track_rss in TARGETS:
            name = f"{module}.{function}"
            original = getattr(sys.modules.get(f"zpaction.{module}"), function, None)
            if original is None:
                self.missing.append(name)
                continue
            self.names.append(name)
            wrapper = self._wrap(len(self.names) - 1, name, original, counter, track_rss)
            self._wrappers[name] = (original, wrapper)

    def _wrap(self, name_id, name, original, counter, track_rss):
        self_key, calls_key, rss_key = f"{name}.self_s", f"{name}.calls", f"{name}.rss_growth_mb"
        stack, stats = self._stack, self.stats

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            frame = _Frame()
            stack.append((index, frame))
            rss0 = _peak_rss_mb() if track_rss else 0.0
            start = perf_counter()
            self.span_start.append(start)
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.span_end[index] = end
                duration = end - start
                stats[self_key] += duration - frame.child_s
                stats[calls_key] += 1
                rss = _peak_rss_mb() - rss0 if track_rss else frame.child_rss
                if track_rss:
                    stats[rss_key] += rss - frame.child_rss
                if stack:
                    parent = stack[-1][1]
                    parent.child_s += duration
                    parent.child_rss += rss
            if counter is not None:
                counts = counter(args, kwargs, result, frame.child_counts)
                self.span_counts[index] = counts
                parent_counts = stack[-1][1].child_counts if stack else None
                for key, value in counts.items():
                    stats[f"{name}.{key}"] += value
                    if parent_counts is not None:
                        parent_counts[f"{name}.{key}"] = parent_counts.get(f"{name}.{key}", 0) + value
            return result

        return wrapper

    def install(self) -> None:
        """Replace every reference to a target in the loaded zpaction modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "zpaction" or n.startswith("zpaction.")]
        for original, wrapper in self._wrappers.values():
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take_stats(self) -> dict[str, float]:
        """Statistics accumulated since the last call, then reset them."""
        out = dict(self.stats)
        self.stats.clear()
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans as an ``.npz`` archive with one column per field.

        ``name`` indexes ``names``; ``parent`` is the index of the enclosing
        span or -1; ``counts`` and ``meta`` are JSON strings, the counts
        keyed by span index.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            counts=np.array(json.dumps({str(i): c for i, c in self.span_counts.items()})),
            meta=np.array(json.dumps(meta)),
        )
