"""Span tracer that wraps escbo's public functions at the layer boundaries.

The program itself carries no tracing.  ``Tracer.install`` replaces each
function in the namespace it is *called from* (so ``harness.consensus_point``,
the checkpoint call, and ``swarm.consensus_point``, the call inside a step,
become two different spans), and ``Tracer.uninstall`` puts every original
back.  A span is (name, start, end, parent, run id); spans stay in memory in
flat integer arrays until the caller writes them out after measuring.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# Span names and the (module, attribute) each one wraps.  Module names are
# resolved against the imported escbo package.
PATCHES = (
    ("harness.run_once", "harness", "run_once"),
    ("harness.from_records", "harness.AggregateReport", "from_records"),
    ("harness.emit_report", "harness", "emit_report"),
    ("harness.checkpoint_consensus", "harness", "consensus_point"),
    ("swarm.swarm_diameter", "harness", "swarm_diameter"),
    ("swarm.check_stop", "harness", "check_stop"),
    ("swarm.escbo_step", "harness", "escbo_step"),
    ("swarm.vanilla_cbo_step", "harness", "vanilla_cbo_step"),
    ("swarm.fescbo_step", "harness", "fescbo_step"),
    ("swarm.consensus_point", "swarm", "consensus_point"),
    ("swarm.draw_noise", "swarm", "draw_noise"),
    ("objective.minibatch_gradients", "swarm", "minibatch_gradients"),
    ("objective.eval_many", "objective.Objective", "eval_many"),
    ("benchmarks.lookup", "benchmarks", "lookup"),
    ("neural.generate_synthetic", "neural", "generate_synthetic"),
)
STEPS = ("swarm.escbo_step", "swarm.vanilla_cbo_step", "swarm.fescbo_step")
EVAL = "objective.eval_many"
GRADIENTS = "objective.minibatch_gradients"


def resolve(package, dotted: str):
    obj = package
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records nested spans of the wrapped functions while installed."""

    def __init__(self):
        self.names = [name for name, _, _ in PATCHES]
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.rows = array("q")  # points evaluated, for eval_many spans
        self.errors = Counter()  # (span name, exception type) -> count
        self._stack: list[int] = []
        self._run_id = -1
        self._next_run = 0
        self._saved: list[tuple[object, str, object]] = []
        self._arrays: dict | None = None

    # -- patching ---------------------------------------------------------

    def install(self, package) -> None:
        if self._saved or self._arrays is not None:
            raise RuntimeError("a Tracer can be installed only once")
        for name, owner_path, attr in PATCHES:
            owner = resolve(package, owner_path)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        is_run = name == "harness.run_once"
        is_eval = name == EVAL
        span_name, start, end, parent = (self.span_name, self.start,
                                         self.end, self.parent)
        run, rows, stack, errors = self.run, self.rows, self._stack, \
            self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            if is_run:
                self._run_id = self._next_run
                self._next_run += 1
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self._run_id)
            rows.append(len(args[1]) if is_eval else 0)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if is_run:
                    self._run_id = -1

        return traced

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        """The span columns as int64 arrays, once recording has ended."""
        if self._saved:
            raise RuntimeError("uninstall the tracer before reading spans")
        if self._arrays is None:
            self._arrays = {
                key: np.array(getattr(self, attr), dtype=np.int64)
                for key, attr in (("name", "span_name"), ("start", "start"),
                                  ("end", "end"), ("parent", "parent"),
                                  ("run", "run"), ("rows", "rows"))}
        return self._arrays

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover (ns).

        Spans nest and run one after another on one thread, so the covered
        time is the sum of the children's durations; ``check_nesting``
        verifies that premise.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child_total = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child_total, a["parent"][has_parent], dur[has_parent])
        return dur - child_total

    def check_nesting(self) -> list[str]:
        """Problems found: children outside their parent or overlapping."""
        a = self.arrays()
        start, end, parent = a["start"], a["end"], a["parent"]
        problems = []
        if np.any(end < start):
            problems.append("a span ends before it starts")
        kids = np.flatnonzero(parent >= 0)
        p = parent[kids]
        if np.any((start[kids] < start[p]) | (end[kids] > end[p])):
            problems.append("a span lies outside its parent")
        order = kids[np.lexsort((start[kids], p))]
        same = parent[order[1:]] == parent[order[:-1]]
        if np.any(same & (start[order[1:]] < end[order[:-1]])):
            problems.append("two sibling spans overlap")
        return problems

    def eval_rows_by_caller(self) -> Counter:
        """Rows evaluated, keyed init / grad_base / grad_probe / refresh.

        Inside ``minibatch_gradients`` the first evaluation is the base
        points and the later one the coordinate probes; a step's own
        evaluation is the value refresh; one made directly by ``run_once``
        is the initial swarm.
        """
        a = self.arrays()
        evals = np.flatnonzero(a["name"] == self.name_id[EVAL])
        parent = a["parent"][evals]
        caller = np.where(parent >= 0, a["name"][parent], -1)
        rows = a["rows"][evals]
        kind = np.full(evals.size, "other", dtype=object)
        kind[caller == self.name_id["harness.run_once"]] = "init"
        kind[np.isin(caller, [self.name_id[s] for s in STEPS])] = "refresh"
        in_grad = np.flatnonzero(caller == self.name_id[GRADIENTS])
        kind[in_grad] = "grad_probe"
        # Spans are stored in call order, so a parent's first child has the
        # lowest index.
        _, first = np.unique(parent[in_grad], return_index=True)
        kind[in_grad[first]] = "grad_base"
        out = Counter()
        for k in ("init", "grad_base", "grad_probe", "refresh", "other"):
            out[k] = int(rows[kind == k].sum())
        return out

    def totals(self) -> dict:
        """Per span name: calls and total self time in seconds."""
        a = self.arrays()
        self_ns = self.self_times()
        out = {}
        for i, name in enumerate(self.names):
            mask = a["name"] == i
            out[name] = {"calls": int(mask.sum()),
                         "self_s": float(self_ns[mask].sum()) * 1e-9}
        out[EVAL]["rows"] = int(a["rows"].sum())
        return out
