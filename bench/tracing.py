"""Spans and counters for the benchmark's traced runs.

A traced run wraps public trotterr functions at the names their callers
look them up under (for example ``trotterr.trotter.multiply``, which the
error-operator build calls, or ``trotterr.analysis.expectation``).  The
package source is left untouched: the wrappers are installed on module and
class attributes for the duration of the run and restored afterwards.

Every span records its name, start, end, parent span and operation id, and
is kept in memory until the run ends.  A layer's self time is the duration
of its spans minus the time their direct child spans cover; counters are
recorded at the same boundaries.  Per-operation metrics divide run totals
by the number of traced operations.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# Per-layer metrics in the order they are reported.  A name ending in ``_s``
# is the self time per operation of the span named by the rest; the others
# are counts per operation.
LAYER_METRICS = (
    ("cli.import_s", "s"),
    ("cli.handler_s", "s"),
    ("hamiltonian.parse_s", "s"),
    ("hamiltonian.sequence_s", "s"),
    ("hamiltonian.operator_s", "s"),
    ("hamiltonian.fragments", "count"),
    ("fermion.multiply_s", "s"),
    ("fermion.multiply_calls", "count"),
    ("fermion.product_terms", "count"),
    ("fermion.arith_s", "s"),
    ("fermion.arith_calls", "count"),
    ("trotter.build_s", "s"),
    ("trotter.validate_s", "s"),
    ("trotter.v_terms", "count"),
    ("fock.ground_state_s", "s"),
    ("fock.expectation_s", "s"),
    ("fock.spectral_norm_s", "s"),
    ("fock.full_spectrum_s", "s"),
    ("fock.apply_calls", "count"),
    ("fock.dim", "count"),
    ("ci.ground_state_s", "s"),
    ("ci.subspace_dim", "count"),
    ("haar.sample_s", "s"),
    ("haar.samples", "count"),
    ("analysis.self_s", "s"),
    ("stateprep.prep_cost_s", "s"),
    ("trace.op_p50_s", "s"),
)

# Counters reported as the per-operation maximum rather than a sum.
MAX_COUNTERS = frozenset({"fock.dim"})

ROOT_SPAN = "op"


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[tuple[str, int], float] = {}
        self._stack: list[int] = []
        self._op = -1

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    @contextmanager
    def operation(self, op_id: int):
        self._op = op_id
        with self.span(ROOT_SPAN):
            yield

    def add(self, name: str, value: float) -> None:
        key = (name, self._op)
        if name in MAX_COUNTERS:
            self.counts[key] = max(self.counts.get(key, 0), value)
        else:
            self.counts[key] = self.counts.get(key, 0) + value

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over the whole run."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def op_durations(self) -> list[float]:
        return [end - start for name, start, end, _, _ in self.spans if name == ROOT_SPAN]

    def metrics(self) -> dict[str, dict]:
        durations = self.op_durations()
        n_ops = len(durations)
        selfs = self.self_times()
        counts: dict[str, float] = {}
        for (name, _), value in self.counts.items():
            counts[name] = counts.get(name, 0) + value
        out = {}
        for name, unit in LAYER_METRICS:
            if name == "trace.op_p50_s":
                value = statistics.median(durations)
            elif unit == "s":
                value = selfs.get(name[: -len("_s")], 0.0) / n_ops
            else:
                value = counts.get(name, 0) / n_ops
            out[name] = {"value": value, "unit": unit}
        return out

    def group_shares(self) -> dict[str, float]:
        """Share of traced operation time per layer; the CLI layer is split
        into the fresh-interpreter import and the in-process handler, and
        ``bench`` is time inside an operation that no layer span covers."""
        total = sum(self.op_durations())
        groups: dict[str, float] = {}
        for name, seconds in self.self_times().items():
            if name == ROOT_SPAN:
                group = "bench"
            elif name.startswith("cli."):
                group = name
            else:
                group = name.split(".", 1)[0]
            groups[group] = groups.get(group, 0.0) + seconds
        return {g: s / total for g, s in sorted(groups.items(), key=lambda kv: -kv[1])}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "op")
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}) + "\n")


def dominant_layer_check(shares: dict[str, float], predicted: list[str]) -> tuple[bool, str]:
    """Whether the predicted layers together take more traced time than any
    other single layer, with a one-line explanation either way."""
    claimed = sum(shares.get(g, 0.0) for g in predicted)
    others = {g: s for g, s in shares.items() if g not in predicted and g != "bench"}
    rival, rival_share = max(others.items(), key=lambda kv: kv[1], default=("none", 0.0))
    label = "+".join(predicted)
    if claimed > rival_share:
        return True, f"{label} {claimed:.1%} > next {rival} {rival_share:.1%}"
    return False, f"predicted {label} {claimed:.1%} but {rival} takes {rival_share:.1%}"


# ---------------------------------------------------------------------------
# Wrapped names.
# ---------------------------------------------------------------------------


def _fragments(t, result, args):
    t.add("hamiltonian.fragments", len(result))


def _product(t, result, args):
    t.add("fermion.multiply_calls", 1)
    t.add("fermion.product_terms", len(result))


def _arith(t, result, args):
    t.add("fermion.arith_calls", 1)


def _v_terms(t, result, args):
    t.add("trotter.v_terms", len(result.op))


def _basis_dim(t, result, args):
    t.add("fock.dim", args[1].dim)


def _vector_dim(t, result, args):
    t.add("fock.dim", args[1].basis.dim)


def _apply(t, result, args):
    t.add("fock.apply_calls", 1)


def _ci_dim(t, result, args):
    t.add("ci.subspace_dim", result[1].basis.dim)


def _samples(t, result, args):
    t.add("haar.samples", result.n_samples)


# (owner, attribute, span, counter).  The owner is "module" or
# "module:Class"; a span of None records the counter only.
WRAPPED = (
    # the benchmark's own calls into the public API
    ("trotterr", "analyze", "analysis.self", None),
    ("trotterr", "load_fcidump", "hamiltonian.parse", None),
    ("trotterr", "build_trotter_sequence", "hamiltonian.sequence", _fragments),
    ("trotterr", "build_error_operator", "trotter.build", _v_terms),
    ("trotterr", "haar_error_distribution", "haar.sample", _samples),
    # names the CLI handlers import at call time
    ("trotterr.analysis", "analyze", "analysis.self", None),
    ("trotterr.analysis", "orbital_marginals", "analysis.self", None),
    ("trotterr.hamiltonian", "load_fcidump", "hamiltonian.parse", None),
    ("trotterr.hamiltonian", "build_trotter_sequence", "hamiltonian.sequence", _fragments),
    ("trotterr.trotter", "build_error_operator", "trotter.build", _v_terms),
    ("trotterr.haar", "haar_error_distribution", "haar.sample", _samples),
    ("trotterr.fock", "full_spectrum", "fock.full_spectrum", _basis_dim),
    ("trotterr.stateprep", "prep_cost_report", "stateprep.prep_cost", None),
    # calls between package modules
    ("trotterr.analysis", "build_trotter_sequence", "hamiltonian.sequence", _fragments),
    ("trotterr.analysis", "build_error_operator", "trotter.build", _v_terms),
    ("trotterr.analysis", "ground_state", "fock.ground_state", _basis_dim),
    ("trotterr.analysis", "expectation", "fock.expectation", _vector_dim),
    ("trotterr.analysis", "spectral_norm", "fock.spectral_norm", _basis_dim),
    ("trotterr.analysis", "ci_ground_state", "ci.ground_state", _ci_dim),
    ("trotterr.ci", "ground_state", "fock.ground_state", _basis_dim),
    ("trotterr.haar", "full_spectrum", "fock.full_spectrum", _basis_dim),
    ("trotterr.hamiltonian:MolecularSystem", "hamiltonian", "hamiltonian.operator", None),
    ("trotterr.hamiltonian", "operator_sum", "fermion.arith", _arith),
    ("trotterr.trotter", "multiply", "fermion.multiply", _product),
    ("trotterr.trotter", "commutator", "fermion.multiply", _product),
    ("trotterr.trotter", "operator_sum", "fermion.arith", _arith),
    ("trotterr.trotter:ErrorOperator", "validate", "trotter.validate", None),
    ("trotterr.fermion:NormalOrderedOperator", "__add__", "fermion.arith", _arith),
    ("trotterr.fermion:NormalOrderedOperator", "__sub__", "fermion.arith", _arith),
    ("trotterr.fermion:NormalOrderedOperator", "adjoint", "fermion.arith", _arith),
    ("trotterr.fermion:NormalOrderedOperator", "pruned", "fermion.arith", _arith),
    ("trotterr.fermion:NormalOrderedOperator", "scaled", "fermion.arith", _arith),
    ("trotterr.fock", "apply", None, _apply),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _wrap(tracer: Tracer, fn, span: str | None, counter):
    if span is None:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter(tracer, result, args)
            return result

        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        # a span re-entered under itself (an operator method calling another)
        # belongs to the outer call
        if tracer.current() == span:
            return fn(*args, **kwargs)
        index = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            counter(tracer, result, args)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper in ``WRAPPED`` and restore the originals on exit."""
    saved = []
    try:
        for owner, attr, span, counter in WRAPPED:
            target = _resolve(owner)
            original = target.__dict__[attr]
            saved.append((target, attr, original))
            setattr(target, attr, _wrap(tracer, original, span, counter))
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)
