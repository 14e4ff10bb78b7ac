"""Spans and counters recorded from outside the program.

``install(tracer)`` replaces the public functions of each layer module with
wrappers that open a span (name, start, end, parent, job id) and bump
counters at the same boundary; ``uninstall`` puts the originals back, so the
timed passes run unwrapped code.  Nothing under ``src/`` is edited: every
wrap point is a module attribute or a class attribute that the program looks
up at call time.

A layer's ``*_s`` metric is self time: the summed durations of its spans
minus the time their child spans cover.  ``cli.overhead_s`` is the self time
of the per-job root span, i.e. the job's wall time outside every layer span.
"""

import functools
import math
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.sparse.linalg

from confinement_lab import criterion, domains, fields, lattice, radial

# (metric, unit, span or counter it is read from)
PER_LAYER = [
    ("lattice.build_grid_s", "s", "lattice.build_grid"),
    ("lattice.assemble_s", "s", "lattice.assemble"),
    ("lattice.n_sites", "count", "lattice.n_sites"),
    ("lattice.nnz", "count", "lattice.nnz"),
    ("lattice.factor_s", "s", "lattice.factor"),
    ("lattice.factor_calls", "count", "lattice.factor_calls"),
    ("lattice.factor_fill", "count", "lattice.factor_fill"),
    ("lattice.lu_solve_s", "s", "lattice.lu_solve"),
    ("lattice.solve_calls", "count", "lattice.solve_calls"),
    ("lattice.eigensolve_s", "s", "lattice.eigensolve"),
    ("domains.rays_s", "s", "domains.rays"),
    ("domains.rays", "count", "domains.rays"),
    ("fields.field_eval_s", "s", "fields.field_eval"),
    ("fields.field_eval_calls", "count", "fields.field_eval_calls"),
    ("fields.field_eval_points", "count", "fields.field_eval_points"),
    ("fields.potential_s", "s", "fields.potential"),
    ("fields.boundary_zeros_s", "s", "fields.boundary_zeros"),
    ("fields.refine_calls", "count", "fields.refine_calls"),
    ("fields.refine_nfev", "count", "fields.refine_nfev"),
    ("exterior.norm_sp_s", "s", "exterior.norm_sp"),
    ("exterior.norm_sp_calls", "count", "exterior.norm_sp_calls"),
    ("criterion.scan_s", "s", "criterion.scan"),
    ("criterion.samples", "count", "criterion.samples"),
    ("criterion.excluded", "count", "criterion.excluded"),
    ("radial.classify_s", "s", "radial.classify"),
    ("radial.classify_calls", "count", "radial.classify_calls"),
    ("radial.q_evals", "count", "radial.q_evals"),
    ("cli.overhead_s", "s", "job"),
    ("cli.bytes_written", "bytes", "cli.bytes_written"),
]


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []   # [job, name, start, end, parent index or None]
        self.counts = Counter()
        self.job = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.job, name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def inside(self, name):
        return any(self.spans[i][1] == name for i in self._stack)

    def count(self, name, n=1):
        self.counts[name] += int(n)

    def self_times(self):
        covered = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (_, name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return out

    def metrics(self):
        """Every per-layer metric of this pass (0 for layers it never entered)."""
        selft = self.self_times()
        return {name: (selft[src] if unit == "s" else self.counts[src])
                for name, unit, src in PER_LAYER}


def _wrap(tracer, fn, span=None, on_result=None, outer_only=False):
    """``fn`` inside a span; ``on_result(result, args)`` records counts.

    With ``outer_only`` the counts skip calls nested in a span of the same
    name (a scan delegating to another scan, a field delegating to its base).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nested = span is not None and tracer.inside(span)
        idx = tracer.open(span) if span is not None else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if idx is not None:
                tracer.close(idx)
        if on_result is not None and not (outer_only and nested):
            on_result(result, args)
        return result

    return wrapper


class _Factor:
    """SuperLU proxy whose ``solve`` is timed and counted."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.count("lattice.solve_calls")
        idx = self._tracer.open("lattice.lu_solve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(idx)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _LinalgProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``lattice``."""

    def __init__(self, splu):
        self.splu = splu

    def __getattr__(self, name):
        return getattr(scipy.sparse.linalg, name)


def _points(x):
    shape = np.shape(x)
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


def _field_classes():
    return [c for c in vars(fields).values()
            if isinstance(c, type) and issubclass(c, fields.MagneticField)]


def _scan_counts(tracer):
    def record(result, args):
        if isinstance(result, dict):  # scan_directions
            p = result["params"]
            tracer.count("criterion.samples",
                         p["n_anchors"] * len(p["depths"]) - result["excluded"])
            tracer.count("criterion.excluded", result["excluded"])
        else:
            tracer.count("criterion.samples", len(result.samples))
            tracer.count("criterion.excluded", result.excluded)
    return record


def _counted_q(tracer):
    def record(problem, args):
        q = problem.q

        def counted(r):
            tracer.count("radial.q_evals")
            return q(r)

        problem.q = counted
    return record


def _splu(tracer):
    def splu(*args, **kwargs):
        idx = tracer.open("lattice.factor")
        try:
            lu = scipy.sparse.linalg.splu(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.count("lattice.factor_calls")
        tracer.count("lattice.factor_fill", lu.L.nnz + lu.U.nnz)
        return _Factor(lu, tracer)
    return splu


def wrap_points(tracer):
    """(owner, attribute, replacement) for every wrap point."""
    t = tracer
    norm_sp = lambda fn: _wrap(t, fn, "exterior.norm_sp",
                               lambda r, a: t.count("exterior.norm_sp_calls"))
    classify = lambda fn: _wrap(t, fn, "radial.classify",
                                lambda r, a: t.count("radial.classify_calls"))
    scan = lambda fn: _wrap(t, fn, "criterion.scan", _scan_counts(t), outer_only=True)
    rays = lambda fn: _wrap(t, fn, "domains.rays", lambda r, a: t.count("domains.rays", len(r)))

    def field_eval(r, a):
        t.count("fields.field_eval_calls")
        t.count("fields.field_eval_points", _points(a[1]))

    def refine(r, a):
        t.count("fields.refine_calls")
        t.count("fields.refine_nfev", r.nfev)

    points = [
        (lattice, "build_grid", _wrap(t, lattice.build_grid, "lattice.build_grid",
                                      lambda r, a: t.count("lattice.n_sites", r.n_sites))),
        (lattice, "assemble", _wrap(t, lattice.assemble, "lattice.assemble",
                                    lambda r, a: t.count("lattice.nnz", r.matrix.nnz))),
        (lattice.LatticeOperator, "lowest_eigenvalues",
         _wrap(t, lattice.LatticeOperator.lowest_eigenvalues, "lattice.eigensolve")),
        (lattice, "min_eigenvalue_of", _wrap(t, lattice.min_eigenvalue_of, "lattice.eigensolve")),
        (lattice, "spla", _LinalgProxy(_splu(t))),
        (lattice, "norm_sp_batch", norm_sp(lattice.norm_sp_batch)),
        (criterion, "norm_sp_batch", norm_sp(criterion.norm_sp_batch)),
        (domains.Domain, "near_boundary_rays", rays(domains.Domain.near_boundary_rays)),
        (domains.PuncturedSpace, "near_boundary_rays",
         rays(domains.PuncturedSpace.near_boundary_rays)),
        (fields, "minimize", _wrap(t, fields.minimize, on_result=refine)),
        (fields, "boundary_one_form_analysis",
         _wrap(t, fields.boundary_one_form_analysis, "fields.boundary_zeros")),
        (criterion, "scan_margin", scan(criterion.scan_margin)),
        (criterion, "singular_point_criterion", scan(criterion.singular_point_criterion)),
        (criterion, "scan_directions", scan(criterion.scan_directions)),
        (radial, "classify_by_solving", classify(radial.classify_by_solving)),
        (radial, "classify_indicial", classify(radial.classify_indicial)),
        (radial, "reduce_disk_mode", _wrap(t, radial.reduce_disk_mode, on_result=_counted_q(t))),
        (radial, "reduce_monopole", _wrap(t, radial.reduce_monopole, on_result=_counted_q(t))),
    ]
    for cls in _field_classes():
        own = vars(cls)
        if "field_matrix_batch" in own:
            points.append((cls, "field_matrix_batch",
                           _wrap(t, own["field_matrix_batch"], "fields.field_eval",
                                 field_eval, outer_only=True)))
        if "potential" in own:
            points.append((cls, "potential", _wrap(t, own["potential"], "fields.potential")))
    return points


def install(tracer):
    """Wrap every layer entry point; returns the originals for ``uninstall``."""
    saved = []
    try:
        for owner, attr, replacement in wrap_points(tracer):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)
    except BaseException:
        uninstall(saved)
        raise
    return saved


def uninstall(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
