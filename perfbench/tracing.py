"""Spans around the calls into each layer of cubeiso, for the traced run.

The program is not changed.  :meth:`Tracer.install` replaces each public
function or method of the layer modules by a wrapper that records a span,
in every ``cubeiso`` module namespace that binds it by name (for example
``variation`` binds ``symmetrize.is_symmetrized``).  Spans are kept in
memory: name, parent, start and end.  The per-layer metrics are computed
from them when the round ends, and the spans are written out.  Untimed runs
never import this module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from math import comb, prod

# Accessors of value types, called once per box, cell, shape or bisection
# step.  Each costs less than a span, so spans there would swamp both the
# trace and its overhead; their time counts in the caller's span.
LEAVES = {
    "geometry": ("as_rat", "box", "AxisBox.", "CubeIsometry."),
    "search": ("MonotoneShape.",),
    "enclosure": ("Enclosure.", "poly_eval"),
}

# Private functions that per-layer metrics name: canonicalization and
# boolean operations of the kernel, slice analysis and the two motion steps
# of the reduction, and competitor construction.
PRIVATE = {
    "geometry": ("_canonicalize", "_combine"),
    "variation": ("_slice_from_profile", "_merge_step_full", "_improve_same_axis_full"),
    "classify": ("_profile_shape_competitor", "_improvement_competitor", "_make_certificate"),
}

# metric prefix -> span names; "_calls" counts every span, "_s" sums the
# spans that have no enclosing span of the same group.
GROUPS = {
    "geometry.canonicalize": ("geometry._canonicalize",),
    "geometry.relative_perimeter": ("geometry.CubicalSet.relative_perimeter",),
    "geometry.boolean_op": ("geometry._combine",),
    "geometry.cross_section": ("geometry.CubicalSet.cross_section",),
    "geometry.voxel": ("geometry.VoxelSet.",),
    "symmetrize.steiner": ("symmetrize.steiner",),
    "symmetrize.is_symmetrized": ("symmetrize.is_symmetrized",),
    "variation.reduce": ("variation.reduce_to_special",),
    "variation.check_stationarity": ("variation.check_stationarity",),
    "variation.is_special": ("variation.is_special",),
    "variation.improve_step": ("variation.improve_step", "variation._improve_same_axis_full"),
    "variation.slices": ("variation._slice_from_profile",),
    "classify.classify": ("classify.classify",),
    "classify.special_family": ("classify.special_family",),
    "classify.competitor": (
        "classify.competitor", "classify._profile_shape_competitor",
        "classify._improvement_competitor", "classify._make_certificate",
    ),
    "classify.profile": ("classify.profile",),
    "enclosure.nth_root": ("enclosure.nth_root",),
    "enclosure.bisect": ("enclosure.bisect_enclosure",),
    "search.sweep": ("search.brute_sweep",),
    "search.brute_min": ("search.brute_min",),
    "exhaustive.audit": ("exhaustive.equality_case_audit",),
    "formats.load": ("formats.load_set", "formats.set_from_json", "formats.voxel_from_json"),
    "formats.serialize": ("formats.set_to_json", "formats.voxel_to_json", "formats.export_obj"),
}

# (metric, unit, source): source is ("calls" | "s", group), ("self", layer),
# ("count", counter), ("max", counter) or ("rate", counter, group).
METRICS = (
    ("geometry.self_s", "s", ("self", "geometry")),
    ("geometry.canonicalize_calls", "count", ("calls", "geometry.canonicalize")),
    ("geometry.canonicalize_s", "s", ("s", "geometry.canonicalize")),
    ("geometry.relative_perimeter_calls", "count", ("calls", "geometry.relative_perimeter")),
    ("geometry.relative_perimeter_s", "s", ("s", "geometry.relative_perimeter")),
    ("geometry.boolean_op_calls", "count", ("calls", "geometry.boolean_op")),
    ("geometry.boolean_op_s", "s", ("s", "geometry.boolean_op")),
    ("geometry.cross_section_calls", "count", ("calls", "geometry.cross_section")),
    ("geometry.cross_section_s", "s", ("s", "geometry.cross_section")),
    ("geometry.max_boxes", "count", ("max", "boxes")),
    ("geometry.max_grid_cells", "count", ("max", "grid_cells")),
    ("geometry.max_denominator_bits", "bits", ("max", "denominator_bits")),
    ("geometry.voxel_calls", "count", ("calls", "geometry.voxel")),
    ("geometry.voxel_s", "s", ("s", "geometry.voxel")),
    ("symmetrize.steiner_calls", "count", ("calls", "symmetrize.steiner")),
    ("symmetrize.steiner_s", "s", ("s", "symmetrize.steiner")),
    ("symmetrize.is_symmetrized_calls", "count", ("calls", "symmetrize.is_symmetrized")),
    ("symmetrize.is_symmetrized_s", "s", ("s", "symmetrize.is_symmetrized")),
    ("symmetrize.self_s", "s", ("self", "symmetrize")),
    ("variation.reduce_calls", "count", ("calls", "variation.reduce")),
    ("variation.reduce_s", "s", ("s", "variation.reduce")),
    ("variation.self_s", "s", ("self", "variation")),
    ("variation.reduction_steps", "count", ("count", "reduction_steps")),
    ("variation.merge_steps", "count", ("count", "merge_steps")),
    ("variation.improve_steps", "count", ("count", "improve_steps")),
    ("variation.slices_analysed", "count", ("calls", "variation.slices")),
    ("variation.check_stationarity_s", "s", ("s", "variation.check_stationarity")),
    ("variation.is_special_s", "s", ("s", "variation.is_special")),
    ("variation.improve_step_s", "s", ("s", "variation.improve_step")),
    ("classify.classify_calls", "count", ("calls", "classify.classify")),
    ("classify.self_s", "s", ("self", "classify")),
    ("classify.special_family_s", "s", ("s", "classify.special_family")),
    ("classify.competitor_s", "s", ("s", "classify.competitor")),
    ("classify.competitors_certified", "count", ("count", "competitors")),
    ("classify.profile_calls", "count", ("calls", "classify.profile")),
    ("classify.profile_s", "s", ("s", "classify.profile")),
    ("enclosure.nth_root_calls", "count", ("calls", "enclosure.nth_root")),
    ("enclosure.bisect_calls", "count", ("calls", "enclosure.bisect")),
    ("enclosure.bisect_s", "s", ("s", "enclosure.bisect")),
    ("search.sweep_calls", "count", ("count", "sweeps")),
    ("search.sweep_s", "s", ("s", "search.sweep")),
    ("search.shapes_per_s", "1/s", ("rate", "shapes", "search.sweep")),
    ("search.brute_min_calls", "count", ("calls", "search.brute_min")),
    ("search.brute_min_s", "s", ("s", "search.brute_min")),
    ("search.minimizer_orbits", "count", ("count", "minimizer_orbits")),
    ("exhaustive.audit_calls", "count", ("calls", "exhaustive.audit")),
    ("exhaustive.audit_s", "s", ("s", "exhaustive.audit")),
    ("exhaustive.sets_scanned", "count", ("count", "sets_scanned")),
    ("exhaustive.sets_per_s", "1/s", ("rate", "sets_scanned", "exhaustive.audit")),
    ("exhaustive.violations_found", "count", ("count", "violations")),
    ("formats.load_s", "s", ("s", "formats.load")),
    ("formats.serialize_s", "s", ("s", "formats.serialize")),
    ("formats.bytes_written", "B", ("count", "bytes_written")),
    ("cli.self_s", "s", ("self", "cli")),
)


def _grid_cells(boxes, extra=()) -> int:
    if not boxes:
        return 0
    return prod(
        len({b.lo[a] for b in boxes} | {b.hi[a] for b in boxes} | set(extra)) - 1
        for a in range(boxes[0].dim)
    )


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict = {}
        self._roots: dict = {}
        self._undo: list = []
        self.by_function: dict = {}  # filled by metrics()

    # -- recording ------------------------------------------------------------

    def _label(self, label: str) -> int:
        self.labels.append(label)
        return len(self.labels) - 1

    def _add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _max(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, fn, label: str, before=None, after=None):
        """``fn`` recording one span per call; ``after(args, result, token)``
        runs once the span is closed, with ``token = before(args)``."""
        nid = self._label(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result, token)
            return result

        return functools.wraps(fn)(traced)

    def op(self, kind: str, call):
        """Run one benchmark operation as a root span named ``bench.<kind>``."""
        if kind not in self._roots:
            self._roots[kind] = self._label(f"bench.{kind}")
        i = len(self.start)
        self.name.append(self._roots[kind])
        self.parent.append(-1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return call()
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    # -- installation ---------------------------------------------------------

    def _hooks(self, label: str, fn):
        """``(before, after)`` callbacks that feed the counters."""
        if label == "geometry._canonicalize":
            def after(args, result, _):
                boxes = args[1]
                self._max("boxes", len(result))
                self._max("grid_cells", _grid_cells(boxes))
                self._max("denominator_bits", max(
                    (c.denominator.bit_length() for b in boxes for c in b.lo + b.hi), default=0))
            return None, after
        if label == "geometry._combine":
            def after(args, result, _):
                x, y = args[0], args[1]
                self._max("grid_cells", _grid_cells(x.boxes + y.boxes, (0, 1)))
            return None, after
        if label == "variation.reduce_to_special":
            def after(args, result, _):
                log = result[1]
                self._add("reduction_steps", len(log))
                self._add("merge_steps", sum(s.kind == "merge" for s in log))
                self._add("improve_steps", sum(s.kind == "improve" for s in log))
            return None, after
        if label == "classify.classify":
            return None, lambda args, res, _: self._add("competitors", res.competitor is not None)
        if label == "search.brute_sweep":
            def after(args, result, misses_before):
                if fn.cache_info().misses > misses_before:
                    dim, res = args[0], args[1]
                    self._add("sweeps", 1)
                    self._add("shapes", comb(2 * res, res) if dim == 2 else _box_count(res))
            return lambda args: fn.cache_info().misses, after
        if label == "search.brute_min":
            return None, lambda args, res, _: self._add("minimizer_orbits", len(res.minimizers))
        if label == "exhaustive.equality_case_audit":
            def after(args, out, _):
                self._add("sets_scanned", out.checked)
                self._add("violations", len(out.violations))
            return None, after
        if label in GROUPS["formats.serialize"]:
            return None, lambda args, text, _: self._add("bytes_written", len(text.encode()))
        return None, None

    def _targets(self, layer: str, module):
        skip = LEAVES.get(layer, ())
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                if attr.startswith("_"):
                    continue
                for meth, member in list(vars(obj).items()):
                    label = f"{layer}.{attr}.{meth}"
                    fn = member.__func__ if isinstance(member, staticmethod) else member
                    if meth.startswith("_") or not inspect.isfunction(fn):
                        continue
                    if label.startswith(tuple(f"{layer}.{s}" for s in skip)):
                        continue
                    yield obj, meth, member, label
            elif callable(obj) and (not attr.startswith("_") or attr in PRIVATE.get(layer, ())):
                if attr in skip or inspect.isgeneratorfunction(obj):
                    continue
                yield module, attr, obj, f"{layer}.{attr}"

    def install(self, modules: dict) -> None:
        """Wrap every target of the layer modules ``{layer: module}``."""
        namespaces = [m for n, m in sys.modules.items() if n == "cubeiso" or n.startswith("cubeiso.")]
        for layer, module in modules.items():
            for owner, attr, member, label in list(self._targets(layer, module)):
                static = isinstance(member, staticmethod)
                fn = member.__func__ if static else member
                wrapped = self.wrap(fn, label, *self._hooks(label, fn))
                if inspect.isclass(owner):
                    self._undo.append((owner, attr, member))
                    setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
                    continue
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, name, fn))
                            setattr(ns, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """The per-layer metrics of the recorded spans; also fills
        ``by_function`` with calls and self time per wrapped name."""
        n = len(self.start)
        labels = self.labels
        group_names = list(GROUPS)
        label_groups = [
            sum(1 << g for g, key in enumerate(group_names)
                if any(lab == p or (p.endswith(".") and lab.startswith(p)) for p in GROUPS[key]))
            for lab in labels
        ]
        calls = [0] * len(group_names)
        outer = [0.0] * len(group_names)
        child = [0.0] * n
        above = [0] * n  # groups open on the span's ancestors
        for i in range(n):
            p = self.parent[i]
            dur = self.end[i] - self.start[i]
            if p >= 0:
                child[p] += dur
                above[i] = above[p] | label_groups[self.name[p]]
            mine = label_groups[self.name[i]]
            if mine:
                for g in range(len(group_names)):
                    if mine >> g & 1:
                        calls[g] += 1
                        if not above[i] >> g & 1:
                            outer[g] += dur
        by_label = [[0, 0.0] for _ in labels]  # calls, self time
        for i in range(n):
            entry = by_label[self.name[i]]
            entry[0] += 1
            entry[1] += (self.end[i] - self.start[i]) - child[i]
        self_time: dict = {}
        for label, (_, own) in zip(labels, by_label):
            layer = label.split(".", 1)[0]
            self_time[layer] = self_time.get(layer, 0.0) + own
        self.by_function = {
            label: {"calls": c, "self_s": own}
            for label, (c, own) in sorted(zip(labels, by_label), key=lambda t: -t[1][1])
            if c
        }
        index = {key: g for g, key in enumerate(group_names)}
        out = {}
        for metric, unit, source in METRICS:
            kind, key = source[0], source[1]
            if kind == "calls":
                value = calls[index[key]]
            elif kind == "s":
                value = outer[index[key]]
            elif kind == "self":
                value = self_time.get(key, 0.0)
            elif kind == "rate":
                busy = outer[index[source[2]]]
                value = self.counters.get(key, 0) / busy if busy else 0.0
            else:
                value = self.counters.get(key, 0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path) -> int:
        """CSV of every span: index, parent, name, start and end in seconds
        from the first span.  Returns the number of spans."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.labels[self.name[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )
        return len(self.start)


def _box_count(m: int) -> int:
    """Plane partitions in an m x m x m box (MacMahon's product formula)."""
    num = den = 1
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            for k in range(1, m + 1):
                num *= i + j + k - 1
                den *= i + j + k - 2
    return num // den
