"""Reference computations for checking cubeiso's outputs.

This module imports nothing from ``cubeiso``.  Each value it checks against
is computed here by a route of its own: box unions are measured on the grid
of their distinct cuts, the isoperimetric bound is decided by integer power
comparisons, voxel sets are plain sets of cell tuples, and the per-cell-count
minima come from a separate enumeration of monotone shapes.  A fault shared
by the program and its check therefore cannot hide.
"""

from __future__ import annotations

import csv
import io
import itertools
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)
KINDS = ("cube", "tube", "slab")


class CheckError(Exception):
    """An output of the program disagrees with the reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- box unions ---------------------------------------------------------------


def box_union_measures(dim: int, boxes) -> tuple[Fraction, Fraction]:
    """Exact volume and relative perimeter of a union of closed boxes.

    ``boxes`` holds ``(lo, hi)`` pairs of Fraction tuples.  The distinct cuts
    on every axis split the cube into cells; a cell is occupied when some box
    covers it.  Volume sums the occupied cells.  Relative perimeter sums, at
    every internal cut, the area of each cell face that separates an occupied
    cell from an empty one; faces on the cube walls do not count.
    """
    cuts = []
    for axis in range(dim):
        values = {ZERO, ONE}
        for lo, hi in boxes:
            values.add(lo[axis])
            values.add(hi[axis])
        cuts.append(sorted(values))
    index = [{c: k for k, c in enumerate(cs)} for cs in cuts]
    widths = [[cs[k + 1] - cs[k] for k in range(len(cs) - 1)] for cs in cuts]
    occupied = set()
    for lo, hi in boxes:
        spans = [range(index[a][lo[a]], index[a][hi[a]]) for a in range(dim)]
        occupied.update(itertools.product(*spans))
    volume = ZERO
    perimeter = ZERO
    for cell in occupied:
        size = ONE
        for axis in range(dim):
            size *= widths[axis][cell[axis]]
        volume += size
        for axis in range(dim):
            face = size / widths[axis][cell[axis]]
            for step in (-1, 1):
                k = cell[axis] + step
                if 0 <= k < len(widths[axis]):
                    neighbour = cell[:axis] + (k,) + cell[axis + 1:]
                    if neighbour not in occupied:
                        perimeter += face
    return volume, perimeter


def box_complement(dim: int, box) -> list:
    """Closed boxes whose union is the closure of ``[0,1]^dim`` minus ``box``."""
    lo, hi = box
    out = []
    for axis in range(dim):
        inner_lo = tuple(lo[:axis]) + (ZERO,) * (dim - axis)
        inner_hi = tuple(hi[:axis]) + (ONE,) * (dim - axis)
        if lo[axis] > 0:
            out.append((inner_lo, inner_hi[:axis] + (lo[axis],) + inner_hi[axis + 1:]))
        if hi[axis] < 1:
            out.append((inner_lo[:axis] + (hi[axis],) + inner_lo[axis + 1:], inner_hi))
    return out


def signed_permutations(dim: int):
    """The ``2^dim * dim!`` symmetries of the cube as ``(perm, flips)``."""
    for perm in itertools.permutations(range(dim)):
        for flips in itertools.product((False, True), repeat=dim):
            yield perm, flips


def map_box(box, perm, flips):
    """Image of a box under the cube symmetry reading axis ``perm[i]`` into
    axis ``i`` and reflecting it when ``flips[i]``."""
    lo, hi = box
    new_lo, new_hi = [], []
    for i, src in enumerate(perm):
        a, b = lo[src], hi[src]
        if flips[i]:
            a, b = ONE - b, ONE - a
        new_lo.append(a)
        new_hi.append(b)
    return tuple(new_lo), tuple(new_hi)


# -- the isoperimetric profile ------------------------------------------------


def at_least_profile(p: Fraction, v: Fraction) -> bool:
    """``p >= I(v)`` with ``I(v) = min(3 v^(2/3), 2 v^(1/2), 1)``, decided by
    integer power comparisons (``p >= 0``)."""
    return p >= 1 or p * p >= 4 * v or p**3 >= 27 * v * v


def at_most_profile(q: Fraction, v: Fraction) -> bool:
    """``q <= I(v)``, decided by integer power comparisons."""
    if q <= 0:
        return True
    return q <= 1 and q * q <= 4 * v and q**3 <= 27 * v * v


def argmin_kinds(v: Fraction) -> frozenset:
    """Shapes attaining ``I(v)``, from ``729v`` vs 64, ``4v`` vs 1 and
    ``27v^2`` vs 1."""
    kinds = set()
    if 729 * v <= 64 and 27 * v * v <= 1:
        kinds.add("cube")
    if 729 * v >= 64 and 4 * v <= 1:
        kinds.add("tube")
    if 4 * v >= 1 and 27 * v * v >= 1:
        kinds.add("slab")
    return frozenset(kinds)


def planted_verdict(kind: str, a: Fraction) -> str:
    """Verdict due to ``[0,a]^3``, ``[0,a]^2 x [0,1]`` or ``[0,a] x [0,1]^2``
    (``a <= 1/2``), its complement or an isometric image of either."""
    if kind == "cube":
        return "cube" if a <= Fraction(4, 9) else "not_minimizer"
    if kind == "tube":
        return "tube" if Fraction(8, 27) <= a <= HALF else "not_minimizer"
    if kind == "slab":
        return "slab" if Fraction(1, 4) <= a <= HALF else "not_minimizer"
    raise ValueError(f"unknown planted kind {kind!r}")


def _parse_boxes(set_obj) -> tuple[int, list]:
    dim = set_obj["dim"]
    boxes = [
        (
            tuple(Fraction(c) for c in entry["lo"]),
            tuple(Fraction(c) for c in entry["hi"]),
        )
        for entry in set_obj["boxes"]
    ]
    return dim, boxes


def check_classification(volume: Fraction, perimeter: Fraction, out: dict,
                         planted=None) -> None:
    """Check one ``cubeiso classify`` JSON object.

    ``volume`` and ``perimeter`` are the input's, from
    :func:`box_union_measures`; ``planted`` is ``(kind, a)`` for a planted
    cube, tube or slab, else None.
    """
    _require(ZERO < volume < ONE, f"input volume {volume} is not in (0, 1)")
    v = min(volume, ONE - volume)
    _require(Fraction(out["volume"]) == v,
             f"reported volume {out['volume']} != min(V, 1-V) = {v}")
    _require(out["via_complement"] is (volume > HALF),
             f"via_complement {out['via_complement']} but V = {volume}")
    _require(at_least_profile(perimeter, v),
             f"input perimeter {perimeter} is below I({v})")
    kinds = argmin_kinds(v)
    _require(set(out["profile_kinds"]) == kinds,
             f"profile kinds {out['profile_kinds']} != {sorted(kinds)}")
    verdict = out["verdict"]
    _require(verdict in KINDS or verdict == "not_minimizer",
             f"unexpected verdict {verdict!r}")
    if verdict in KINDS:
        _require(verdict in kinds,
                 f"verdict {verdict} is not an argmin kind at V = {v}")
    if planted is not None:
        expected = planted_verdict(*planted)
        _require(verdict == expected,
                 f"planted {planted[0]} a = {planted[1]}: verdict {verdict}, "
                 f"expected {expected}")
    comp = out.get("competitor")
    if verdict == "not_minimizer":
        _require(comp is not None, "not_minimizer verdict without a competitor")
    if comp is not None:
        dim, boxes = _parse_boxes(comp["set"])
        _require(dim == 3, "competitor is not 3-dimensional")
        c_vol, c_per = box_union_measures(dim, boxes)
        _require(c_vol == v, f"competitor volume {c_vol} != {v}")
        _require(c_per < perimeter,
                 f"competitor perimeter {c_per} is not below the input's {perimeter}")
        _require(at_least_profile(c_per, v),
                 f"competitor perimeter {c_per} is below I({v})")


# -- voxel sets ---------------------------------------------------------------


def cells_from_flat(dim: int, res: int, flat) -> frozenset:
    """Cell tuples of C-ordered flat indices."""
    out = []
    for i in flat:
        cell = []
        for _ in range(dim):
            i, r = divmod(i, res)
            cell.append(r)
        out.append(tuple(reversed(cell)))
    return frozenset(out)


def face_count(dim: int, res: int, cells: frozenset) -> int:
    """Interior cell faces between an occupied and an empty cell."""
    faces = 0
    for cell in cells:
        for axis in range(dim):
            for step in (-1, 1):
                k = cell[axis] + step
                if 0 <= k < res and cell[:axis] + (k,) + cell[axis + 1:] not in cells:
                    faces += 1
    return faces


def steiner_cells(dim: int, axis: int, cells: frozenset) -> frozenset:
    """Every line along ``axis`` replaced by a run of equal length from 0."""
    lengths: dict = {}
    for cell in cells:
        base = cell[:axis] + cell[axis + 1:]
        lengths[base] = lengths.get(base, 0) + 1
    return frozenset(
        base[:axis] + (k,) + base[axis:]
        for base, n in lengths.items()
        for k in range(n)
    )


def map_cells(res: int, cells: frozenset, perm, flips) -> frozenset:
    last = res - 1
    return frozenset(
        tuple(last - c[p] if f else c[p] for p, f in zip(perm, flips))
        for c in cells
    )


def isometric(dim: int, res: int, a: frozenset, b: frozenset) -> bool:
    if len(a) != len(b):
        return False
    return any(map_cells(res, a, p, f) == b for p, f in signed_permutations(dim))


def orbit_key(dim: int, res: int, cells: frozenset) -> tuple:
    return min(
        tuple(sorted(map_cells(res, cells, p, f)))
        for p, f in signed_permutations(dim)
    )


def check_voxel_batch(sets, results) -> None:
    """``sets``: ``(dim, res, flat cells)`` per input.  ``results``: per
    input ``(count, faces, [(steiner flat cells, count, faces) per axis])``
    as the program reported them."""
    _require(len(sets) == len(results), "batch lost or gained a set")
    for (dim, res, flat), (count, faces, per_axis) in zip(sets, results):
        cells = cells_from_flat(dim, res, flat)
        ref_faces = face_count(dim, res, cells)
        _require(count == len(cells), f"cell count {count} != {len(cells)}")
        _require(faces == ref_faces, f"face count {faces} != {ref_faces}")
        _require(len(per_axis) == dim, "one Steiner result per axis expected")
        for axis, (s_flat, s_count, s_faces) in enumerate(per_axis):
            s_cells = cells_from_flat(dim, res, s_flat)
            _require(s_count == len(cells) == len(s_cells),
                     f"Steiner along axis {axis} changed the cell count")
            _require(s_faces <= faces,
                     f"Steiner along axis {axis} raised the face count")
            _require(s_faces == face_count(dim, res, s_cells),
                     f"face count after Steiner along axis {axis} is wrong")
            _require(s_cells == steiner_cells(dim, axis, cells),
                     f"Steiner image along axis {axis} differs from the reference")


# -- exhaustive audits ----------------------------------------------------------


def preserving_count(dim: int, res: int) -> int:
    """Pairs (subset, axis) of the ``res^dim`` grid whose face count one
    Steiner step along the axis leaves unchanged.

    Subsets are bit masks with C-ordered cell bits.  Faces along an axis are
    the set bits of ``mask ^ (mask >> stride)`` on cells with a neighbour.
    """
    strides = [res ** (dim - 1 - a) for a in range(dim)]
    cells = list(itertools.product(range(res), repeat=dim))
    flat = {c: sum(x * s for x, s in zip(c, strides)) for c in cells}
    inner = [
        sum(1 << flat[c] for c in cells if c[a] + 1 < res) for a in range(dim)
    ]

    def faces(mask: int) -> int:
        return sum(
            ((mask ^ (mask >> s)) & e).bit_count() for s, e in zip(strides, inner)
        )

    lines = []  # per axis: (line mask, fill masks by run length)
    for axis in range(dim):
        per_axis = []
        for base in (c for c in cells if c[axis] == 0):
            bits = [1 << (flat[base] + k * strides[axis]) for k in range(res)]
            fills = [sum(bits[:k]) for k in range(res + 1)]
            per_axis.append((sum(bits), fills))
        lines.append(per_axis)
    total = 0
    for mask in range(1 << res**dim):
        before = faces(mask)
        for per_axis in lines:
            image = 0
            for line, fills in per_axis:
                image |= fills[(mask & line).bit_count()]
            total += faces(image) == before
    return total


def check_audit(dim: int, res: int, limit: int, stop_after: int, outcome,
                full_scan_count=None) -> None:
    """``outcome``: ``(checked, perimeter_preserving, violations as flat cell
    lists, stopped_early)``.  ``full_scan_count`` is
    :func:`preserving_count` for grids the audit scans in full."""
    checked, preserving, violations, stopped = outcome
    _require(len(violations) <= limit, f"{len(violations)} violations over limit {limit}")
    for flat in violations:
        cells = cells_from_flat(dim, res, flat)
        faces = face_count(dim, res, cells)
        real = False
        for axis in range(dim):
            image = steiner_cells(dim, axis, cells)
            if face_count(dim, res, image) == faces and not isometric(dim, res, cells, image):
                real = True
        _require(real, f"reported violation {list(flat)} is not one on any axis")
    if stopped:
        _require(stop_after and len(violations) >= stop_after,
                 "stopped early before holding stop_after violations")
        _require(checked < 2 ** (res**dim), "stopped early after a full scan")
        return
    _require(checked == dim * 2 ** (res**dim),
             f"full scan checked {checked} of {dim * 2 ** (res**dim)} pairs")
    if full_scan_count is not None:
        _require(preserving == full_scan_count,
                 f"perimeter_preserving {preserving} != {full_scan_count}")


# -- lattice minima ---------------------------------------------------------------


def monotone_minima(res: int) -> dict:
    """``{k: (min faces, argmin orbit count)}`` over the plane partitions in
    the ``res^3`` box, each a monotone set of ``k`` cells; faces are the caps
    plus the height differences between neighbouring columns."""
    rows = [
        r for r in itertools.product(range(res, -1, -1), repeat=res)
        if all(r[j] >= r[j + 1] for j in range(res - 1))
    ]
    own = {
        r: sum(1 for h in r if 0 < h < res)
        + sum(abs(r[j] - r[j + 1]) for j in range(res - 1))
        for r in rows
    }
    # rows that may follow ``r``: pointwise below it, with the faces they add
    steps = {
        r: [
            (s, sum(s), own[s] + sum(x - y for x, y in zip(r, s)))
            for s in rows if all(y <= x for x, y in zip(r, s))
        ]
        for r in rows
    }
    best: dict = {}
    shape: list = []

    def visit(depth: int, prev, cells: int, faces: int) -> None:
        if depth == res:
            cur = best.get(cells)
            if cur is None or faces < cur[0]:
                best[cells] = (faces, [tuple(shape)])
            elif faces == cur[0]:
                cur[1].append(tuple(shape))
            return
        for row, n, add in steps[prev]:
            shape.append(row)
            visit(depth + 1, row, cells + n, faces + add)
            shape.pop()

    for row in rows:
        shape.append(row)
        visit(1, row, sum(row), own[row])
        shape.pop()
    out = {}
    for k, (faces, shapes) in best.items():
        keys = {
            orbit_key(3, res, frozenset(
                (i, j, z) for i, row in enumerate(s) for j, h in enumerate(row)
                for z in range(h)
            ))
            for s in shapes
        }
        out[k] = (faces, len(keys))
    return out


def check_search(dim: int, res: int, text: str, minima: dict) -> None:
    """Check ``cubeiso search --dim 3 --res R --all-k`` CSV output against
    :func:`monotone_minima`."""
    _require(dim == 3, "the reference minima are three-dimensional")
    rows = list(csv.DictReader(io.StringIO(text)))
    expected_k = list(range(res**dim // 2 + 1))
    _require([int(r["k"]) for r in rows] == expected_k,
             f"rows cover k = {[r['k'] for r in rows]}")
    for r in rows:
        k = int(r["k"])
        v = Fraction(k, res**dim)
        _require((int(r["n"]), int(r["m"])) == (dim, res), f"k={k}: wrong n, m")
        _require(Fraction(r["V"]) == v, f"k={k}: V {r['V']} != {v}")
        p = Fraction(r["discrete_min"])
        lo_text, hi_text = r["continuous_bound"].split("..")
        lo, hi = Fraction(lo_text), Fraction(hi_text)
        if k > 0:
            _require(at_least_profile(p, v), f"k={k}: discrete_min {p} is below I({v})")
        faces, orbits = minima[k]
        _require(p == Fraction(faces, res ** (dim - 1)),
                 f"k={k}: discrete_min {p} != {Fraction(faces, res ** (dim - 1))}")
        _require(int(r["n_minimizers"]) == orbits,
                 f"k={k}: {r['n_minimizers']} minimizer orbits, reference {orbits}")
        if k == 0:
            _require(p == 0 and lo == hi == 0 and r["kinds"] == "",
                     "k=0 row must be zero with no kinds")
            continue
        _require(at_most_profile(lo, v) and at_least_profile(hi, v),
                 f"k={k}: bound {r['continuous_bound']} does not enclose I({v})")
        kinds = set(r["kinds"].split("+"))
        _require(kinds == argmin_kinds(v), f"k={k}: kinds {r['kinds']}")
