"""Outside-in tracing of tropfan's layers, installed from the benchmark.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces every binding of each function in :data:`WRAPPED` -- the
defining module's attribute, every ``from ... import`` copy in the other
``tropfan`` modules, or the class attribute for a method -- with a
wrapper that records a span (name, start, end, parent, case id) in
memory.  :meth:`Tracer.uninstall` puts the originals back.

A span's layer is the first component of its name, which is the module
that defines the function.  A layer's self time is the duration of its
spans minus the time their child spans cover, so the self times of one
case add up to the duration of its root ``cli.run`` span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time

LAYERS = ("cli", "matroid", "fan", "compactify", "sheaf", "homology", "zlinalg", "chow", "criteria")


def _bound(fn, names):
    """Key function reading the named arguments of ``fn``, defaults applied."""
    sig = inspect.signature(fn)

    def key(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return tuple(ba.arguments[n] for n in names)

    return key


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _complex_sizes(tr, args, kwargs, gc):
    tr.count("homology.cells", sum(len(labels) for labels in gc.spaces.values()))
    nnz = 0
    side = 0
    for m in gc.maps.values():
        nnz += sum(1 for e in m.entries if e)
        side = max(side, m.rows, m.cols)
    tr.count("homology.nnz", nnz)
    tr.peak("homology.max_side", side)


def _face_count(tr, args, kwargs, comp):
    tr.count("compactify.faces", len(comp.faces))


def _constraint_count(tr, args, kwargs, cert):
    tr.count("zlinalg.feasible.constraints", len(_first_arg(args, kwargs)))


# (span name, module, attribute path, group, repeat key, counter hook).
# The group joins functions whose time is reported together; a span adds
# to its group's inclusive time only when no span of the same group is
# open around it.  A repeat key of "value" compares the first argument
# by value; a tuple of parameter names compares those arguments, with
# objects compared by identity.
WRAPPED = (
    ("cli.run", "cli", "run", None, None, None),
    ("cli.load_fan_file", "cli", "load_fan_file", None, None, None),
    ("cli.render_table", "cli", "render_table", None, None, None),
    ("matroid.bergman_fan", "matroid", "bergman_fan", None, None, None),
    ("fan.star", "fan", "Fan.star", None, None, None),
    ("fan.validate", "fan", "validate", None, None, None),
    ("fan.is_unimodular", "fan", "is_unimodular", None, None, None),
    ("fan.is_saturated", "fan", "is_saturated", None, None, None),
    ("fan.is_balanced", "fan", "is_balanced", None, None, None),
    ("compactify.comp_faces", "compactify", "comp_faces", None, None, _face_count),
    ("compactify.face_sign", "compactify", "Compactification.face_sign", None, None, None),
    ("sheaf.basis", "sheaf", "basis", None, None, None),
    ("sheaf.restriction", "sheaf", "restriction", "sheaf.transport", None, None),
    ("sheaf.dual_transport", "sheaf", "dual_transport", "sheaf.transport", None, None),
    ("sheaf.coords_in", "sheaf", "coords_in", None, None, None),
    ("homology.build_complex", "homology", "build_complex", None, ("space", "p", "variant", "coeff"), _complex_sizes),
    ("homology.cup", "homology", "cup", None, None, None),
    ("homology.check_dd_zero", "homology", "GradedComplex.check_dd_zero", None, None, None),
    ("homology.ComplexGroups", "homology", "ComplexGroups.__init__", None, None, None),
    ("homology.class_of", "homology", "ComplexGroups.class_of", None, None, None),
    ("zlinalg.snf", "zlinalg", "snf", None, None, None),
    ("zlinalg.hnf", "zlinalg", "hnf", None, "value", None),
    ("zlinalg.kernel_basis", "zlinalg", "kernel_basis", None, None, None),
    ("zlinalg.solve_int", "zlinalg", "solve_int", None, None, None),
    ("zlinalg.in_rowspace", "zlinalg", "in_rowspace", None, None, None),
    ("zlinalg.saturate", "zlinalg", "saturate", None, None, None),
    ("zlinalg.rank_frac", "zlinalg", "rank_frac", None, None, None),
    ("zlinalg.solve_frac", "zlinalg", "solve_frac", None, None, None),
    ("zlinalg.feasible", "zlinalg", "feasible", None, None, _constraint_count),
    ("zlinalg.LatticeQuotient", "zlinalg", "LatticeQuotient.__init__", None, None, None),
    ("chow.chow_group", "chow", "chow_group", None, ("fan", "k", "coeff"), None),
    ("chow.chow_multiply", "chow", "chow_multiply", None, None, None),
    ("chow.chow_generator_cocycle", "chow", "chow_generator_cocycle", None, None, None),
    ("chow.cocycle_to_chow", "chow", "cocycle_to_chow", None, None, None),
    ("chow.degree_map", "chow", "degree_map", None, None, None),
    ("criteria.chow_pd_check", "criteria", "chow_pd_check", None, None, None),
    ("criteria.homology_manifold_check", "criteria", "homology_manifold_check", None, None, None),
    ("criteria.pd_weight", "criteria", "pd_weight", None, None, None),
    ("criteria.is_ample", "criteria", "is_ample", None, None, None),
    ("criteria.kleiman_check", "criteria", "kleiman_check", None, None, None),
    ("criteria.verification_report", "criteria", "verification_report", None, None, None),
)

# Per-layer metrics other than <layer>.self_s and <layer>.calls, by kind:
# span counts, inclusive seconds of a group, repeat ratios, counters.
CALLS = ("zlinalg.hnf", "zlinalg.snf", "zlinalg.solve_int", "homology.class_of", "chow.chow_group",
         "fan.star", "sheaf.basis", "compactify.face_sign", "zlinalg.feasible")
SECONDS = ("homology.ComplexGroups", "zlinalg.rank_frac", "homology.build_complex", "homology.check_dd_zero",
           "chow.chow_multiply", "chow.chow_generator_cocycle", "homology.cup", "fan.star", "sheaf.transport",
           "zlinalg.feasible", "criteria.is_ample", "criteria.kleiman_check", "cli.load_fan_file",
           "matroid.bergman_fan")
REPEATS = ("zlinalg.hnf", "homology.build_complex", "chow.chow_group")
COUNTERS = ("homology.cells", "homology.nnz", "homology.max_side", "compactify.faces",
            "zlinalg.feasible.constraints")
PEAKS = ("homology.max_side",)  # counters that keep their largest value instead of a sum


class Tracer:
    """Spans and boundary counters of the wrapped functions, kept in memory."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.cases = []
        self.outer = []
        self.counters = {}  # case id -> {counter: value}
        self._case = None
        self._seen = {}
        self._keep = []
        self._stack = []
        self._open = {}
        self._saved = []

    @property
    def case(self):
        return self._case

    @case.setter
    def case(self, case_id):
        """Start a new case: spans and counters go to it, repeats reset."""
        self._case = case_id
        self._seen = {}
        self._keep = []

    def count(self, name, value):
        c = self.counters.setdefault(self._case, {})
        c[name] = c.get(name, 0) + value

    def peak(self, name, value):
        c = self.counters.setdefault(self._case, {})
        c[name] = max(c.get(name, 0), value)

    def _note_repeat(self, name, key, by_value):
        if not by_value:
            # identity keys: hold the objects so their ids stay unique
            self._keep.append(key)
            key = tuple(id(k) if not isinstance(k, (int, str)) else k for k in key)
        seen = self._seen.setdefault(name, set())
        self.count(f"{name}.repeats", key in seen)
        seen.add(key)

    def _wrap(self, fn, name, group, repeat, hook):
        tr = self
        group = group or name
        key_of = _bound(fn, repeat) if isinstance(repeat, tuple) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if repeat == "value":
                tr._note_repeat(name, _first_arg(args, kwargs), True)
            elif key_of is not None:
                tr._note_repeat(name, key_of(args, kwargs), False)
            idx = len(tr.names)
            depth = tr._open.get(group, 0)
            tr.names.append(name)
            tr.parents.append(tr._stack[-1] if tr._stack else -1)
            tr.cases.append(tr._case)
            tr.outer.append(depth == 0)
            tr.ends.append(0.0)
            tr._stack.append(idx)
            tr._open[group] = depth + 1
            tr.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.ends[idx] = time.perf_counter()
                tr._stack.pop()
                tr._open[group] = depth
            if hook is not None:
                hook(tr, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every binding of each wrapped function in ``tropfan``."""
        modules = [m for n, m in list(sys.modules.items()) if n == "tropfan" or n.startswith("tropfan.")]
        for name, module, path, group, repeat, hook in WRAPPED:
            owner = sys.modules[f"tropfan.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, group, repeat, hook)
            if cls_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def write(self, path):
        """Write the spans as gzipped JSON lines; parents are line numbers or -1."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, name in enumerate(self.names):
                case = self.cases[i]
                fh.write(json.dumps({
                    "name": name,
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "parent": self.parents[i],
                    "case": list(case) if isinstance(case, tuple) else case,
                }))
                fh.write("\n")


def summarize(tr, spans, case_ids):
    """Per-layer metrics of the spans with the given indices.

    Returns ``(metrics, case_self)``; ``case_self`` maps each root
    ``cli.run`` span's case id to (root duration, sum of self times in
    that case), for the check that self times add up.
    """
    spans = list(spans)
    index = set(spans)
    child = dict.fromkeys(spans, 0.0)
    for i in spans:
        p = tr.parents[i]
        if p in index:
            child[p] += tr.ends[i] - tr.starts[i]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.calls"] = 0
    calls = {}
    seconds = {}
    groups = {name: (group or name) for name, _, _, group, _, _ in WRAPPED}
    case_self = {}
    for i in spans:
        name = tr.names[i]
        dur = tr.ends[i] - tr.starts[i]
        own = dur - child[i]
        layer = name.split(".", 1)[0]
        m[f"{layer}.self_s"] += own
        m[f"{layer}.calls"] += 1
        calls[name] = calls.get(name, 0) + 1
        if tr.outer[i]:
            g = groups[name]
            seconds[g] = seconds.get(g, 0.0) + dur
        case = tr.cases[i]
        root, total = case_self.get(case, (0.0, 0.0))
        if name == "cli.run" and tr.parents[i] not in index:
            root += dur
        case_self[case] = (root, total + own)
    for n in CALLS:
        m[f"{n}.calls"] = calls.get(n, 0)
    for n in SECONDS:
        m[f"{n}.s"] = seconds.get(n, 0.0)
    counters = {}
    for case in case_ids:
        for k, v in tr.counters.get(case, {}).items():
            counters[k] = max(counters.get(k, 0), v) if k in PEAKS else counters.get(k, 0) + v
    for n in REPEATS:
        c = calls.get(n, 0)
        m[f"{n}.repeat_ratio"] = counters.get(f"{n}.repeats", 0) / c if c else 0.0
    for n in COUNTERS:
        m[n] = counters.get(n, 0)
    return m, case_self
