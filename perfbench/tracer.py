"""Spans at the public boundaries of qtrace's modules, recorded from outside.

``Tracer.install`` wraps each function in TARGETS wherever the qtrace
package holds a reference to it: a name imported with ``from .qtorus
import normal_product`` is a separate module attribute and is patched
too.  Each call records a span ``(name, start, end, parent, job, info)``
in memory; ``parent`` is the index of the enclosing span or -1, and
``info`` is a count taken from the call's result where a per-layer
metric needs one.  ``uninstall`` puts every original back.

``layer_metrics`` turns a span list into the per-layer metrics.  A
span's self time is its duration minus the time its child spans cover.
"""

import math
import sys
import time

# (module, attribute path, span name)
TARGETS = (
    ("qtrace.cli", "main", "cli.main"),
    ("qtrace.cli", "parse_surface_file", "cli.parse_surface_file"),
    ("qtrace.cli", "parse_link_file", "cli.parse_link_file"),
    ("qtrace.cli", "polynomial_terms", "cli.polynomial_terms"),
    ("qtrace.cli", "emit_polynomial", "cli.emit_polynomial"),
    ("qtrace.surface", "build_surface", "surface.build_surface"),
    ("qtrace.surface", "validate_good_position", "surface.validate_good_position"),
    ("qtrace.surface", "quantum_trace", "surface.quantum_trace"),
    ("qtrace.surface", "project_to_glued", "surface.project_to_glued"),
    ("qtrace.surface", "verify_moves", "surface.verify_moves"),
    ("qtrace.biangle", "biangle_trace", "biangle.biangle_trace"),
    ("qtrace.biangle", "crossing_matrix", "biangle.crossing_matrix"),
    ("qtrace.biangle", "skein_checks", "biangle.skein_checks"),
    ("qtrace.biangle", "yang_baxter_holds", "biangle.yang_baxter_holds"),
    ("qtrace.biangle", "duality_lemma_check", "biangle.duality_lemma_check"),
    ("qtrace.fock_goncharov", "quantum_turn_matrix", "fock_goncharov.quantum_turn_matrix"),
    ("qtrace.fock_goncharov", "is_slnq_point", "fock_goncharov.is_slnq_point"),
    ("qtrace.fock_goncharov", "is_mnq_point", "fock_goncharov.is_mnq_point"),
    ("qtrace.qtorus", "TorusElement.__init__", "qtorus.TorusElement.__init__"),
    ("qtrace.qtorus", "TorusElement.__add__", "qtorus.TorusElement.__add__"),
    ("qtrace.qtorus", "normal_product", "qtorus.normal_product"),
    ("qtrace.qtorus", "mat_mul", "qtorus.mat_mul"),
    ("qtrace.qtorus", "weyl_monomial", "qtorus.weyl_monomial"),
)

MODULES = ("cli", "surface", "biangle", "fock_goncharov", "qtorus")

# metric -> span names whose time it sums; a span inside another span of
# the same metric is not counted twice.
TIMES = {
    "cli.parse_s": ("cli.parse_surface_file", "cli.parse_link_file"),
    "cli.emit_s": ("cli.polynomial_terms", "cli.emit_polynomial"),
    "surface.build_s": ("surface.build_surface",),
    "surface.validate_s": ("surface.validate_good_position",),
    "surface.glue_s": ("surface.project_to_glued",),
    "surface.moves_s": ("surface.verify_moves",),
    "biangle.trace_s": ("biangle.biangle_trace",),
    "biangle.crossing_s": ("biangle.crossing_matrix",),
    "biangle.skein_s": ("biangle.skein_checks", "biangle.yang_baxter_holds", "biangle.duality_lemma_check"),
    "fock_goncharov.turn_matrix_s": ("fock_goncharov.quantum_turn_matrix",),
    "fock_goncharov.point_check_s": ("fock_goncharov.is_slnq_point", "fock_goncharov.is_mnq_point"),
    "qtorus.add_s": ("qtorus.TorusElement.__add__",),
    "qtorus.normal_product_s": ("qtorus.normal_product",),
    "qtorus.mat_mul_s": ("qtorus.mat_mul",),
}

# metric -> span name whose calls it counts
CALLS = {
    "surface.validate_calls": "surface.validate_good_position",
    "biangle.trace_calls": "biangle.biangle_trace",
    "fock_goncharov.turn_matrix_calls": "fock_goncharov.quantum_turn_matrix",
    "qtorus.add_calls": "qtorus.TorusElement.__add__",
    "qtorus.elements_built": "qtorus.TorusElement.__init__",
    "qtorus.normal_product_calls": "qtorus.normal_product",
    "qtorus.weyl_monomial_calls": "qtorus.weyl_monomial",
}

# metric -> span name whose ``info`` counts it sums
SUMS = {
    "surface.tensor_terms": "surface.quantum_trace",
    "surface.glued_terms": "surface.project_to_glued",
    "cli.emit_bytes": "cli.emit_polynomial",
}

# Metrics that are counts: two traced passes must give them exactly.
COUNTS = tuple(CALLS) + tuple(SUMS) + ("surface.state_space", "trace.spans")


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patched = []
        self._diagram = None
        self._group = 0

    def _info(self, name, args, result):
        if name == "biangle.biangle_trace":
            # Consecutive calls on one diagram object build one edge table.
            if args[0] is not self._diagram:
                self._diagram = args[0]
                self._group += 1
            return (self._group, 0 if result.is_zero() else 1)
        if name == "surface.quantum_trace":
            return len(result.tensor.terms)
        if name == "surface.project_to_glued":
            return len(result.terms)
        if name == "cli.emit_polynomial":
            return len(result.encode("utf-8"))
        return None

    def _wrap(self, original, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        needs_info = name == "biangle.biangle_trace" or name in SUMS.values()

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                info = self._info(name, args, result) if needs_info and result is not None else None
                spans[index] = (name, start, end, parent, self.job, info)

        traced.__wrapped__ = original
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        package = [m for key, m in list(sys.modules.items()) if key == "qtrace" or key.startswith("qtrace.")]
        for module_name, path, name in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name)
            holders = [owner] if outer else package
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched = []

    def take(self):
        """Hand over the recorded spans and start a new list; call it
        between jobs, when no traced call is open."""
        if self._stack:
            raise RuntimeError("spans taken while a traced call is open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


# ---------------------------------------------------------------------------
# span arithmetic


def join(first, second):
    """One span list: ``second`` after ``first``, parents re-indexed."""
    shift = len(first)
    return first + [
        (name, start, end, parent + shift if parent >= 0 else -1, job, info)
        for name, start, end, parent, job, info in second
    ]


def self_times(spans):
    """Each span's duration minus the union of its direct children's
    intervals."""
    children = [[] for _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _, _, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def outer_time(spans, names):
    """Total duration of spans named in ``names`` that have no ancestor
    named in ``names``."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        enclosed = parent >= 0 and (inside[parent] or spans[parent][0] in names)
        inside[i] = enclosed
        if name in names and not enclosed:
            total += end - start
    return total


def state_space(spans):
    """Combinations the brute-force state sum visits: for each
    quantum_trace span, the product over its edge tables of the nonzero
    biangle amplitudes."""
    tables = {i: {} for i, s in enumerate(spans) if s[0] == "surface.quantum_trace"}
    for name, _, _, parent, _, info in spans:
        if name == "biangle.biangle_trace" and parent in tables and info is not None:
            group, hit = info
            tables[parent][group] = tables[parent].get(group, 0) + hit
    return sum(math.prod(table.values()) for table in tables.values())


def layer_metrics(spans):
    """Per-layer metrics of one span list, as {name: number}."""
    selfs = self_times(spans)
    metrics = {m: outer_time(spans, set(names)) for m, names in TIMES.items()}
    for metric, target in CALLS.items():
        metrics[metric] = sum(1 for s in spans if s[0] == target)
    for metric, target in SUMS.items():
        metrics[metric] = sum(s[5] for s in spans if s[0] == target and s[5] is not None)
    hits = [s[5][1] for s in spans if s[0] == "biangle.biangle_trace" and s[5] is not None]
    metrics["biangle.trace_nonzero_ratio"] = sum(hits) / len(hits) if hits else 0.0
    metrics["surface.state_space"] = state_space(spans)
    metrics["surface.state_sum_self_s"] = sum(
        t for s, t in zip(spans, selfs) if s[0] == "surface.quantum_trace")
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(
            t for s, t in zip(spans, selfs) if s[0].split(".", 1)[0] == module)
    metrics["trace.spans"] = len(spans)
    return metrics


def function_table(spans):
    """{span name: [calls, total seconds, self seconds]}."""
    table = {}
    for s, t in zip(spans, self_times(spans)):
        row = table.setdefault(s[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s[2] - s[1]
        row[2] += t
    return table
