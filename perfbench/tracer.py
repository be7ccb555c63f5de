"""Per-layer spans and counts, recorded from outside the package.

The tracer replaces public functions at the module attributes where their
callers look them up (for example `recoupler.evolution.propagator`, which
`_group_unitary` calls, and `recoupler.verifier.propagator`, which the identity
suite calls) with wrappers that record a span per call. Nothing in `src/`
changes. A layer's self time is the duration of its spans minus the part of
each span its child spans cover, so the layers' self times add up to the time
spent inside any wrapped call.

A hook point that no longer exists is skipped; the metrics fed only by missing
hooks are reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# complex128 bytes and the real flops of one dense complex d x d product
_BYTES = 16
_MATMUL = 8


def _to_matrix_counts(counts, args, kwargs, result):
    s = args[0]
    terms = len(s) if hasattr(s, "terms") else 1
    dim = result.shape[0]
    counts["pauli.to_matrix_calls"] += 1
    counts["pauli.to_matrix_terms"] += terms
    # each term materializes one dense matrix, plus the accumulator
    counts["pauli.dense_bytes"] += (terms + 1) * _BYTES * dim * dim


def _propagator_counts(counts, args, kwargs, result):
    d = result.shape[0]
    counts["evolution.propagate_calls"] += 1
    counts["evolution.propagate_dim_max"] = max(counts["evolution.propagate_dim_max"], d)
    # eigh counted as one product, plus reconstruction and the unitarity check
    counts["evolution.dense_flops"] += 3 * _MATMUL * d**3


def _apply_schedule_counts(counts, args, kwargs, result):
    schedule = args[0]
    d = result.shape[0]
    counts["evolution.dense_flops"] += len(schedule.groups) * _MATMUL * d**3


def _generator_counts(counts, args, kwargs, result):
    counts["model.generator_terms"] += len(result)


def _compile_counts(counts, args, kwargs, result):
    counts["compiler.groups"] += result.step_count_parallel
    counts["compiler.steps"] += result.step_count_serial


def _cli_counts(counts, args, kwargs, result):
    counts["cli.calls"] += 1


# (layer, function, namespaces whose attribute callers use, counter, count names)
# "" is the package namespace the benchmark itself calls through.
HOOKS = (
    ("pauli.to_matrix", "to_matrix", ("evolution", "verifier", "encoding"), _to_matrix_counts,
     ("pauli.to_matrix_calls", "pauli.to_matrix_terms", "pauli.dense_bytes")),
    ("evolution.propagate", "propagator", ("evolution", "verifier"), _propagator_counts,
     ("evolution.propagate_calls", "evolution.propagate_dim_max", "evolution.dense_flops")),
    ("evolution.product", "apply_schedule", ("", "verifier", "cli"), _apply_schedule_counts,
     ("evolution.dense_flops",)),
    ("evolution.restrict", "restrict", ("", "verifier", "cli"), None, ()),
    ("evolution.schedule_io", "schedule_from_dict", ("", "evolution"), None, ()),
    ("evolution.schedule_io", "load_schedule", ("cli",), None, ()),
    ("evolution.schedule_io", "save_schedule", ("cli",), None, ()),
    ("evolution.schedule_io", "schedule_to_dict", ("cli",), None, ()),
    ("model.generator", "toggled_generator", ("evolution",), _generator_counts,
     ("model.generator_terms",)),
    ("model.generator", "background_hamiltonian", ("evolution",), _generator_counts,
     ("model.generator_terms",)),
    ("compiler.compile", "compile_gate", ("verifier",), _compile_counts,
     ("compiler.groups", "compiler.steps")),
    ("compiler.compile", "compile_circuit", ("verifier", "cli"), _compile_counts,
     ("compiler.groups", "compiler.steps")),
    ("encoding.isometry", "code_isometry", ("evolution", "encoding"), None, ()),
    ("verifier.self", "verify_gate", ("", "cli"), None, ()),
    ("verifier.self", "verify_circuit", ("", "cli"), None, ()),
    ("verifier.self", "cost_report", ("", "cli"), None, ()),
    ("verifier.target", "target_logical", ("verifier",), None, ()),
    ("verifier.target", "target_circuit", ("verifier",), None, ()),
    ("verifier.fidelity", "fidelity", ("verifier",), None, ()),
    ("verifier.suite", "identity_suite", ("", "cli"), None, ()),
    ("cli.main", "main", ("cli",), _cli_counts, ("cli.calls",)),
)

LAYERS = tuple(dict.fromkeys(h[0] for h in HOOKS))
COUNTS = tuple(dict.fromkeys(name for h in HOOKS for name in h[4]))
# counts derived from argument sizes, not measured; the unit says so
UNITS = {"pauli.dense_bytes": "byte-computed", "evolution.dense_flops": "flop-computed"}


class Tracer:
    """Installs the wrappers on `install()`, restores the originals on `remove()`."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.counts: Counter = Counter()
        self.count_errors: set[str] = set()
        self.layers: set[str] = set()  # layers with at least one installed hook
        self.counted: set[str] = set()  # counts with at least one installed hook
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self):
        for layer, name, namespaces, counter, names in HOOKS:
            for ns in namespaces:
                try:
                    module = importlib.import_module("recoupler" + (f".{ns}" if ns else ""))
                except ImportError:
                    continue
                original = getattr(module, name, None)
                if original is None:
                    continue
                setattr(module, name, self._wrap(layer, original, counter, names))
                self._undo.append((module, name, original))
                self.layers.add(layer)
                self.counted.update(names)

    def remove(self):
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()

    def _wrap(self, layer, fn, counter, names):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                try:
                    counter(counts, args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    self.count_errors.update(names)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per-layer span time minus the time covered by child spans."""
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict.fromkeys(sorted(self.layers), 0.0)
        for (layer, start, end, _), child in zip(self.spans, covered):
            out[layer] += end - start - child
        return out

    def metrics(self, wall: float, untraced_wall: float) -> tuple[dict, list[str]]:
        """Per-layer metrics of the traced pass, and the names reported absent."""
        out: dict[str, dict] = {}
        absent: list[str] = []
        selfs = self.self_times()
        for layer in LAYERS:
            if layer in selfs:
                out[f"{layer}_s"] = {"value": selfs[layer], "unit": "s"}
            else:
                absent.append(f"{layer}_s")
        for name in COUNTS:
            if name in self.counted and name not in self.count_errors:
                out[name] = {"value": self.counts[name], "unit": UNITS.get(name, "count")}
            else:
                absent.append(name)
        out["trace.overhead_frac"] = {"value": wall / untraced_wall - 1.0, "unit": "frac"}
        out["trace.coverage_frac"] = {"value": sum(selfs.values()) / wall, "unit": "frac"}
        return out, absent
