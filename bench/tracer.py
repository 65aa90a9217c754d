"""Per-layer tracing of qpbw from outside the package.

Nothing under src/ knows about this module.  `install` replaces public
functions of the qpbw layers with wrappers, wherever a module holds the
name, so calls made through any import path are seen:

* span functions (block, solve, xi_matrix, apply_op, ...) record one span
  each: name, start, end, parent span and request id.  A span's self time
  is its duration minus the durations of its child spans; `self_times`
  derives it from the span list alone.
* qfield functions (poly_gcd, poly_divexact, RationalFunction.__init__)
  run millions of times, so they are counted, not spanned.  Their self
  time excludes nested qfield calls only: they cross-cut every span.

Spans stay in memory and are written out once, by `write`, when the
traced iteration ends.
"""

import json
from collections import Counter
from time import perf_counter

# (metric prefix, module, attribute path) of every span function.
SPAN_TARGETS = (
    ("intertwiner.block", "intertwiner", "PhiTable.block"),
    ("intertwiner.solve", "intertwiner", "solve_exact"),
    ("intertwiner.column", "intertwiner", "CheckedTable.column"),
    ("fock.apply_op", "fock", "apply_op"),
    ("fock.xi_matrix", "fock", "xi_matrix"),
    ("pbw.transition_block", "pbw", "transition_block"),
    ("verify.ket_apply", "verify", "KetOperator.apply"),
    ("verify.theorem", "verify", "verify_theorem"),
    ("verify.properties", "verify", "verify_properties"),
    ("verify.tetrahedron", "verify", "verify_tetrahedron"),
    ("verify.reflection", "verify", "verify_3d_reflection"),
    ("verify.intertwining", "verify", "verify_t_intertwining"),
    ("cli.compute_records", "cli", "compute_records"),
    ("cli.format", "cli", "record_to_json"),
)

# The verify suites open a request of their own when none is open.
SUITE_SPANS = {"verify.theorem", "verify.properties", "verify.tetrahedron",
               "verify.reflection", "verify.intertwining"}

COUNTER_TARGETS = (
    ("qfield.gcd", "qfield", "poly_gcd"),
    ("qfield.divexact", "qfield", "poly_divexact"),
    ("qfield.rf_init", "qfield", "RationalFunction.__init__"),
)

LAYERS = ("qfield", "presets", "pbw", "fock", "intertwiner", "verify", "cli")


class Tracer:
    """Spans, counters and the request id of the work in progress."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request]
        self._open = []          # indices of the spans now running
        self.request = None
        self.counters = Counter()
        self.hot = {}            # name -> [calls, total seconds, self seconds]
        self._hot_child = []     # nested qfield time, one slot per open call
        self.block_weights = set()
        self.solve_max_rows = 0

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._open
        note = _NOTES.get(name)
        suite = name in SUITE_SPANS

        def wrapper(*args, **kwargs):
            opened = suite and self.request is None
            if opened:
                self.request = name.split(".", 1)[1]
            rec = [name, 0.0, 0.0, stack[-1] if stack else None,
                   self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if opened:
                    self.request = None
            if note is not None:
                note(self, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        stat = self.hot.setdefault(name, [0, 0.0, 0.0])
        child = self._hot_child

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                if child:
                    child[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap every target in every qpbw module that holds it."""
        import qpbw
        from qpbw import cli, fock, intertwiner, pbw, presets, qfield, verify
        modules = {"qfield": qfield, "presets": presets, "pbw": pbw,
                   "fock": fock, "intertwiner": intertwiner,
                   "verify": verify, "cli": cli}
        holders = [qpbw] + [modules[name] for name in LAYERS]
        self._lru_misses0 = pbw.transition_block.cache_info().misses
        self._transition_cache = pbw.transition_block
        for targets, make in ((SPAN_TARGETS, self._span),
                              (COUNTER_TARGETS, self._counter)):
            for name, mod, path in targets:
                owner, attr = _resolve(modules[mod], path)
                orig = owner.__dict__[attr]
                wrapped = make(name, orig)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                    continue
                for holder in holders:
                    if holder.__dict__.get(attr) is orig:
                        setattr(holder, attr, wrapped)

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metric values, by metric name (see BENCHMARK.json)."""
        own = self_times(self.spans)
        calls = Counter(rec[0] for rec in self.spans)
        out = {}
        for name in ("intertwiner.block", "intertwiner.solve",
                     "fock.apply_op", "fock.xi_matrix",
                     "pbw.transition_block", "verify.ket_apply"):
            out[name + "_calls"] = calls[name]
            out[name + "_s"] = own.get(name, 0.0)
        out["intertwiner.column_calls"] = calls["intertwiner.column"]
        out["intertwiner.block_reuse"] = (
            len(self.block_weights) / calls["intertwiner.block"]
            if calls["intertwiner.block"] else 0.0)
        out["intertwiner.solve_max_rows"] = self.solve_max_rows
        out["pbw.transition_block_misses"] = (
            self._transition_cache.cache_info().misses - self._lru_misses0)
        out["fock.apply_op_terms"] = self.counters["apply_op_terms"]
        out["verify.ket_terms_out"] = self.counters["ket_terms_out"]
        gcd, rf_init, div = (self.hot[n] for n in (
            "qfield.gcd", "qfield.rf_init", "qfield.divexact"))
        out["qfield.gcd_calls"] = gcd[0]
        out["qfield.gcd_s"] = gcd[2]
        out["qfield.rf_init_calls"] = rf_init[0]
        out["qfield.rf_init_s"] = rf_init[2]
        out["qfield.divexact_calls"] = div[0]
        out["cli.compute_records_s"] = own.get("cli.compute_records", 0.0)
        out["cli.format_s"] = own.get("cli.format", 0.0)
        return out

    def write(self, path, origin, meta):
        """Dump the spans (times relative to `origin`) and counters."""
        spans = [[name, round(start - origin, 7), round(end - origin, 7),
                  parent, request]
                 for name, start, end, parent, request in self.spans]
        doc = {"meta": meta,
               "fields": ["name", "start_s", "end_s", "parent", "request"],
               "spans": spans,
               "qfield": {name: {"calls": c, "total_s": t, "self_s": s}
                          for name, (c, t, s) in sorted(self.hot.items())}}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(spans):
    """Sum of self times by span name: duration minus child spans."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - child[i]
    return dict(out)


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _note_block(tracer, args, kwargs, result):
    table, weight = args[0], args[1] if len(args) > 1 else kwargs["weight"]
    tracer.block_weights.add((table.name, tuple(weight)))


def _note_solve(tracer, args, kwargs, result):
    rows = len(args[0] if args else kwargs["prows"])
    tracer.solve_max_rows = max(tracer.solve_max_rows, rows)


def _note_apply_op(tracer, args, kwargs, result):
    op = args[2] if len(args) > 2 else kwargs["op"]
    vec = args[3] if len(args) > 3 else kwargs["vec"]
    tracer.counters["apply_op_terms"] += len(op) * len(vec)


def _note_ket_apply(tracer, args, kwargs, result):
    tracer.counters["ket_terms_out"] += len(result)


_NOTES = {
    "intertwiner.block": _note_block,
    "intertwiner.solve": _note_solve,
    "fock.apply_op": _note_apply_op,
    "verify.ket_apply": _note_ket_apply,
}
