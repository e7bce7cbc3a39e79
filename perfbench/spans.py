"""In-memory spans and the wrappers that record them around package calls.

A span is ``[name, start, end, parent, run_id, attrs]``; ``parent`` is the
index of the enclosing span in the same tracer (``-1`` for a root).  Spans
nest by call order, because the benchmark and the package are single
threaded, so a span's self time is its duration minus the durations of its
direct children.

:func:`instrument` wraps the package's public functions and session methods
for the length of one traced pass.  The package modules ``from``-import each
other, so a function is rebound in every module that holds it, not only in
the module that defines it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Span recorder with an explicit stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self._stack: list[int] = []
        # name of the ifpc round span opened by the next ``challenge`` call
        self.round_name: str | None = None
        self.open_round: int | None = None

    def begin(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.run_id, attrs])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {index} closed while {top} is open")

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        index = self.begin(name, attrs)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def close_round(self) -> None:
        """End the open ifpc round span, if any (round k ends where k+1 starts)."""
        if self.open_round is not None:
            self.end(self.open_round)
            self.open_round = None

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children, per span."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[2] - s[1] - covered[i] for i, s in enumerate(spans)]


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _timed(tracer: Tracer, fn, name, attrs=None, rename=None):
    """Wrap fn in a span; ``name`` may be a callable of the call arguments."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        index = tracer.begin(label, attrs(*args, **kwargs) if attrs else None)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if rename is not None:
            tracer.spans[index][0] = rename(out)
        return out

    return wrapper


def _values_name(ds, obs, *_, **__) -> str:
    kind = {"HermitianDense": "hermitian", "RankOneProjector": "projector"}
    return "shadows.values_" + kind.get(type(obs).__name__, "other")


def _code_wrappers(tracer: Tracer, challenge, observe):
    """ifpc round spans run from one ``challenge`` call to the next."""

    @functools.wraps(challenge)
    def timed_challenge(self, rng):
        tracer.close_round()
        if tracer.round_name is not None:
            tracer.open_round = tracer.begin(tracer.round_name)
        with tracer.span("ifpc.code"):
            return challenge(self, rng)

    @functools.wraps(observe)
    def timed_observe(self, answer):
        with tracer.span("ifpc.code"):
            return observe(self, answer)

    return timed_challenge, timed_observe


def _rebind(modules, original, replacement, undo) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))


@contextmanager
def instrument(tracer: Tracer, extra_modules=()):
    """Wrap the package's layer entry points in spans until the block exits.

    ``extra_modules`` are the benchmark's own modules, which hold bindings of
    package functions too.
    """
    from adaptive_shadows import (attack, core, ifpc, mechanisms, shadows,
                                  threshold_search)

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "adaptive_shadows" or n.startswith("adaptive_shadows.")]
    modules += list(extra_modules)
    functions = [
        (core.expectation, "core.expectation", None, None),
        (shadows.collect_povm_snapshots, "shadows.povm_sample",
         lambda state, count, *a, **k: {"d": state.d, "n": int(count)}, None),
        (shadows.collect_pauli_snapshots_dense, "shadows.pauli_dense_sample",
         None, None),
        (shadows.snapshot_values, _values_name, None, None),
        (mechanisms.query_value_table, "mechanisms.query_value_table",
         None, None),
        (mechanisms.bell_samples, "mechanisms.bell_sample", None, None),
        (mechanisms.q_p_values, "mechanisms.q_p_values", None, None),
        (attack.run_adaptive_attack, "attack.adaptive_run", None,
         lambda res: f"attack.{res.method}_run"),
        (attack.run_nonadaptive_baseline, "attack.baseline_run", None, None),
    ]
    methods = [
        (core.HermitianDense, "__init__", "core.hermitian_dense"),
        (core.DenseState, "__init__", "core.dense_state"),
        (mechanisms.DpMedianSession, "query", "mechanisms.dp_median_query"),
        (mechanisms.PmwSession, "query", "mechanisms.pmw_query"),
        (mechanisms.SqSession, "query", "mechanisms.sq_query"),
        (threshold_search.ClosenessTeacher, "check",
         "threshold_search.teacher_check"),
        (threshold_search.ShadowThresholdSession, "ask",
         "threshold_search.ask"),
    ]
    undo: list = []
    try:
        for fn, name, attrs, rename in functions:
            _rebind(modules, fn, _timed(tracer, fn, name, attrs, rename), undo)
        for cls, attr, name in methods:
            original = cls.__dict__[attr]
            setattr(cls, attr, _timed(tracer, original, name))
            undo.append((cls, attr, original))
        code = ifpc.ScoreTracingCode
        originals = (code.__dict__["challenge"], code.__dict__["observe"])
        for attr, wrapped in zip(("challenge", "observe"),
                                 _code_wrappers(tracer, *originals)):
            setattr(code, attr, wrapped)
        undo += [(code, "challenge", originals[0]),
                 (code, "observe", originals[1])]
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _median_ms(values) -> float:
    return float(np.median(values)) * 1e3 if len(values) else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-call medians (ms) and call counts for every recorded span name.

    Timings of calls that never happened read 0, so that every workload
    reports the same metric names.
    """
    selfs = np.array(self_times(spans))
    lengths = np.array([s[2] - s[1] for s in spans])
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def durations(name):
        return lengths[by_name.get(name, [])]

    def own(name):
        return selfs[by_name.get(name, [])]

    out: dict[str, float] = {}
    for name in ("core.hermitian_dense", "core.expectation", "core.dense_state",
                 "shadows.povm_sample", "shadows.pauli_dense_sample",
                 "shadows.values_hermitian", "shadows.values_projector",
                 "mechanisms.dp_median_query", "mechanisms.pmw_query",
                 "mechanisms.query_value_table", "mechanisms.bell_sample",
                 "mechanisms.q_p_values", "mechanisms.sq_query",
                 "threshold_search.ask", "subspace.tomograph_build",
                 "attack.bruteforce_run", "attack.sufficient_run",
                 "attack.baseline_run"):
        out[f"{name}_ms"] = _median_ms(durations(name))
        out[f"{name}_calls"] = len(by_name.get(name, []))
    for metric, name in (("threshold_search.teacher_check_self",
                          "threshold_search.teacher_check"),
                         ("subspace.round_self", "subspace.round"),
                         ("ifpc.answer_self", "ifpc.answer")):
        out[f"{metric}_ms"] = _median_ms(own(name))
        out[f"{metric}_calls"] = len(by_name.get(name, []))
    for variant in ("local", "pauli"):
        for n in (5, 10):
            name = f"ifpc.{variant}_round.N{n}"
            out[f"ifpc.{variant}_round_ms.N{n}"] = _median_ms(durations(name))
            out[f"ifpc.{variant}_round_calls.N{n}"] = len(by_name.get(name, []))

    # challenge + observe per round: both code spans are children of the round
    per_round: dict[int, float] = {}
    for i in by_name.get("ifpc.code", []):
        parent = spans[i][3]
        per_round[parent] = per_round.get(parent, 0.0) + lengths[i]
    out["ifpc.code_ms"] = _median_ms(list(per_round.values()))
    out["ifpc.code_calls"] = len(per_round)

    povm = by_name.get("shadows.povm_sample", [])
    busy = float(lengths[povm].sum())
    out["shadows.povm_snapshots_per_s"] = (
        sum(spans[i][5]["n"] for i in povm) / busy if busy > 0 else 0.0)
    out["shadows.snapshot_values_calls"] = sum(
        len(by_name.get(n, [])) for n in by_name if n.startswith("shadows.values_"))
    return out


def povm_sizes(spans: list[list]) -> dict[str, dict]:
    """Per (d, N) median and count of POVM draws, for the run record."""
    groups: dict[str, list[float]] = {}
    for s in spans:
        if s[0] == "shadows.povm_sample":
            key = f"d{s[5]['d']}_n{s[5]['n']}"
            groups.setdefault(key, []).append(s[2] - s[1])
    return {k: {"median_ms": _median_ms(v), "calls": len(v)}
            for k, v in sorted(groups.items())}
