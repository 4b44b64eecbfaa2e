"""Spans around the library's layer boundaries, installed from outside.

``Tracer.install`` rebinds each traced name in every ``latquot`` module that
holds it (``variety.quotient``, ``cli.kappa``, the package re-exports, ...)
and patches the two ``Lattice`` methods on the class; ``Tracer.restore``
puts every original object back.  A span is
``[name, start_ns, end_ns, parent, job, work]``, kept in memory; ``parent``
is the index of the enclosing span and ``work`` is a per-call count for the
few functions that have one.  A recursive function is timed at its
outermost call only.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# layer (module) -> traced functions; "Lattice.x" is a method on core.Lattice
TRACED = {
    "core": ("from_covers", "product", "restrict", "sublattice_closure", "Lattice.covers_i",
             "Lattice._validate", "is_distributive", "is_modular", "is_isomorphic"),
    "congruence": ("_congruence_closure", "cong_join", "congruence_witness", "all_congruences",
                   "quotient", "push_congruence", "congruence_from_blocks"),
    "variety": ("kappa", "satisfies", "kappa_oracle", "class_filter", "verify_theorem1",
                "verify_theorem2", "verify_theorem3"),
    "terms": ("parse_identity_file", "eval_term"),
    "textfmt": ("parse_lattice_text", "dump_lattice_text", "to_dot"),
    "catalog": ("resolve",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
JOB = "job"


def _term_variables(term, out):
    if hasattr(term, "name") and not hasattr(term, "left"):
        out.add(term.name)
    else:
        _term_variables(term.left, out)
        _term_variables(term.right, out)


def kappa_assignments(lat, spec):
    """Sum over the identities of n^k: the assignments kappa's sweep visits."""
    total = 0
    for ident in spec.identities:
        names = set()
        _term_variables(ident.lhs, names)
        _term_variables(ident.rhs, names)
        total += len(lat) ** len(names)
    return total


# per-call work counts: name -> f(args, result)
WORK = {
    "variety.kappa": lambda args, result: kappa_assignments(args[0], args[1]),
    "congruence.all_congruences": lambda args, result: len(result),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = {}
        self._saved = []
        self.job_id = None

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced name in every loaded latquot module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "latquot" or name.startswith("latquot."))]
        core = sys.modules["latquot.core"]
        for mod, fns in TRACED.items():
            for fn in fns:
                span = f"{mod}.{fn}"
                if fn.startswith("Lattice."):
                    attr = fn.split(".", 1)[1]
                    original = core.Lattice.__dict__[attr]
                    self._patch(core.Lattice, attr, original, self._wrap(span, original))
                    continue
                original = getattr(sys.modules[f"latquot.{mod}"], fn)
                wrapper = self._wrap(span, original)
                for module in modules:
                    if module.__dict__.get(fn) is original:
                        self._patch(module, fn, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def patched(self):
        """(owner, attribute, original) for every name currently rebound."""
        return list(self._saved)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        active[name] = 0
        work = WORK.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            active[name] = 1
            record = [name, 0, 0, stack[-1] if stack else None, self.job_id, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                active[name] = 0
            if work is not None:
                record[5] = work(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def job(self, job_id):
        """Root span of one job; library spans inside it become its children."""
        self.job_id = job_id
        record = [JOB, 0, 0, None, job_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()
            self.job_id = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans, start=0):
    """Per span from ``start`` on: duration minus the time its direct children
    cover.  ``start`` must begin a job, so no parent lies before it."""
    own = [s[2] - s[1] for s in spans[start:]]
    for s in spans[start:]:
        if s[3] is not None:
            own[s[3] - start] -= s[2] - s[1]
    return own


def _has_ancestor(spans, i, name):
    p = spans[i][3]
    while p is not None:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def summarize(spans, start, jobs):
    """Per-layer figures for the traced pass over ``jobs`` jobs whose spans
    begin at index ``start``."""
    own = self_times(spans, start)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    assignments = con_useful = joins_in_enum = 0
    kappa_ns = recheck_ns = enum_ns = witness_ns = 0
    for i in range(start, len(spans)):
        name, begin, end, parent, _job, work = spans[i]
        if name == JOB:
            continue
        dur = end - begin
        out[f"{name}.calls"] += 1
        out[f"{name}.total_s"] += dur / 1e9
        out[f"{name}.self_s"] += own[i - start] / 1e9
        parent_name = spans[parent][0] if parent is not None else None
        if name == "variety.kappa":
            assignments += work
            kappa_ns += dur
        elif name in ("congruence.quotient", "variety.satisfies") and parent_name == "variety.kappa":
            recheck_ns += dur
        elif name == "congruence.all_congruences":
            con_useful += work - 1
            enum_ns += dur
        elif name == "congruence.cong_join" and _has_ancestor(spans, i, "congruence.all_congruences"):
            joins_in_enum += 1
        elif name == "congruence.congruence_witness" and _has_ancestor(
                spans, i, "congruence.all_congruences"):
            witness_ns += dur
    out["variety.kappa.assignments"] = assignments
    out["variety.kappa.recheck_share"] = recheck_ns / kappa_ns if kappa_ns else 0.0
    out["congruence.cong_join.useful_ratio"] = con_useful / joins_in_enum if joins_in_enum else 0.0
    out["congruence.all_congruences.witness_share"] = witness_ns / enum_ns if enum_ns else 0.0
    out["core.Lattice.covers_i.calls_per_job"] = out["core.Lattice.covers_i.calls"] / jobs
    return out


DERIVED_UNITS = {
    "variety.kappa.assignments": "count",
    "variety.kappa.recheck_share": "ratio",
    "congruence.cong_join.useful_ratio": "ratio",
    "congruence.all_congruences.witness_share": "ratio",
    "core.Lattice.covers_i.calls_per_job": "1/job",
    "trace_overhead": "ratio",
}


def per_layer_units():
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units
