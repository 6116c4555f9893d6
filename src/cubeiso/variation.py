"""First-variation analysis of symmetrized cubical sets.

A symmetrized set is a monotone staircase: along every axis, each column is
an interval anchored at the zero wall, so the set is the subgraph of a
non-increasing height function over the base grid perpendicular to any axis.
Singular slices are the level sets of that function; translating one trades
volume against relative perimeter at the exact rational rate P/A, where A is
the slice area and P the signed measure of its boundary (wall-growing parts
count +1, wall-shrinking parts -1, parts on the cube boundary 0).

All motions are event-driven: a slice moves exactly to the nearest
structural event (another level of the height function, or a cube wall), so
every volume and perimeter delta is an exact rational.

Every public entry point checks that its set is symmetrized and raises
:class:`NotSymmetrizedError` otherwise; the answer of
:func:`~cubeiso.symmetrize.is_symmetrized` is cached on the set, so each set
is checked once however many steps read it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (
    DomainError,
    EventError,
    InternalCheckError,
    IterationCapError,
    NonSingularError,
    NotSymmetrizedError,
    PreconditionError,
)
from .geometry import ONE, ZERO, CubicalSet, _neighbours, _weigh, as_rat
from .symmetrize import _height_profile, _Profile, is_symmetrized, symmetrize_all

__all__ = [
    "SliceData",
    "VariationEvent",
    "ReductionStep",
    "StationarityReport",
    "singular_points",
    "slice_data",
    "translate_slice",
    "event_horizon",
    "merge_step",
    "improve_step",
    "reduce_to_special",
    "check_stationarity",
    "is_special",
    "monotone_relative_perimeter",
]

HALF = Fraction(1, 2)
_CAP_PER_SLICE = 16  # reduction steps allowed per interior singular point and axis


def monotone_relative_perimeter(x: CubicalSet) -> Fraction:
    """Relative perimeter via one height profile; requires a symmetrized set.

    Independent of the weighted face count in :mod:`cubeiso.geometry`: the
    heights along axis 0 are summed from the canonical boxes, and the two
    routes are cross-checked in the test suite.
    """
    grids = x.grids[1:]
    den = math.lcm(*(c.denominator for c in x.grids[0]))
    heights = np.zeros(tuple(len(g) - 1 for g in grids), dtype=object)
    index = [{c: k for k, c in enumerate(g)} for g in grids]
    for b in x.boxes:
        spans = tuple(slice(ix[a], ix[c]) for ix, a, c in zip(index, b.lo[1:], b.hi[1:]))
        heights[spans] += int((b.hi[0] - b.lo[0]) * den)
    return _Profile(0, grids, heights, den).relative_perimeter()


def _require_symmetrized(x: CubicalSet):
    if not is_symmetrized(x):
        raise NotSymmetrizedError(
            "operation requires a Steiner-symmetrization fixed point"
        )


# -- slice analysis ----------------------------------------------------------


@dataclass(frozen=True)
class SliceData:
    """One singular slice: its region, area, and signed boundary measure.

    ``outer_measure`` is the part of the region's boundary where translating
    the slice outward grows walls (+1), ``inner_measure`` where walls shrink
    (-1), and ``cube_measure`` the part on the cube boundary (0).  The first
    variation ``signed_measure / area`` is the exact rate of perimeter
    change per unit of volume moved.
    """

    axis: int
    position: Fraction
    region: CubicalSet
    area: Fraction
    outer_measure: Fraction
    cube_measure: Fraction
    inner_measure: Fraction

    @property
    def signed_measure(self) -> Fraction:
        return self.outer_measure - self.inner_measure

    @property
    def first_var(self) -> Fraction:
        return self.signed_measure / self.area

    @property
    def total_boundary(self) -> Fraction:
        return self.outer_measure + self.cube_measure + self.inner_measure


@dataclass(frozen=True)
class VariationEvent:
    kind: str  # slice-hits-0 | slice-hits-1 | slices-collide | slice-area-changes
    distance: Fraction


def singular_points(x: CubicalSet, axis: int) -> list[Fraction]:
    """Interior positions whose boundary slice has positive (n-1)-measure.

    These are exactly the interior box coordinates of the canonical form
    (see :mod:`cubeiso.geometry`).  Valid for arbitrary cubical sets.
    """
    return x.internal_coords(axis)


def _slice_from_profile(prof: _Profile, s: Fraction) -> SliceData:
    """The level set of ``prof`` at ``s`` and its boundary, read from
    neighbour masks: across each base axis, a region cell on a cube wall
    adds its face to ``cube_measure``, and a region cell next to a higher
    (lower) column adds it to ``inner_measure`` (``outer_measure``)."""
    region = _level_region(prof, s)
    level = (s * prof.den).numerator
    below, above = prof.heights < level, prof.heights > level
    measures = [0, 0, 0]  # outer, cube, inner over the product of the base denominators
    for j, d in enumerate(prof.dens):
        counts = np.stack([  # per line along base axis j
            _facing(region, below, j),
            np.take(region, [0, -1], axis=j).sum(axis=j),
            _facing(region, above, j),
        ])
        face = prof.widths[:j] + prof.widths[j + 1:]
        for k, total in enumerate(_weigh(counts, face)):
            measures[k] += d * total
    den = math.prod(prof.dens)
    outer, cube, inner = (Fraction(m, den) for m in measures)
    region_set = CubicalSet(prof.grids, region)
    return SliceData(prof.axis, s, region_set, prof.weigh(region), outer, cube, inner)


def _facing(region: np.ndarray, side: np.ndarray, axis: int) -> np.ndarray:
    """Per line along ``axis``, the faces between a ``region`` cell and a
    ``side`` cell next to it."""
    cells, succ = _neighbours(region, axis)
    low, high = _neighbours(side, axis)
    return ((cells & high) | (succ & low)).sum(axis=axis)


def _level_region(prof: _Profile, s: Fraction) -> np.ndarray:
    """Mask of the base cells at height ``s``; raises unless ``s`` is an
    interior singular point, that is, a level strictly between the walls."""
    region = prof.level_cells(s)
    if not (ZERO < s < ONE and region.any()):
        raise NonSingularError(
            f"{s} is not an interior singular point along axis {prof.axis}"
        )
    return region


def slice_data(x: CubicalSet, axis: int, s) -> SliceData:
    """Region, area and signed boundary classification of the singular
    slice of a symmetrized set at position ``s`` along ``axis``; raises
    :class:`NotSymmetrizedError` on any other set."""
    _require_symmetrized(x)
    return _slice_from_profile(_height_profile(x, axis), as_rat(s))


def _horizon(prof: _Profile, s: Fraction, direction: int) -> VariationEvent:
    """The nearest event of the singular slice at ``s`` moving up
    (``direction`` > 0) or down."""
    _level_region(prof, s)
    values = set(prof.levels()) | {ZERO, ONE}
    if direction > 0:
        nxt = min(v for v in values if v > s)
        kind = "slice-hits-1" if nxt == ONE else "slice-area-changes"
        return VariationEvent(kind, nxt - s)
    prev = max(v for v in values if v < s)
    kind = "slice-hits-0" if prev == ZERO else "slice-area-changes"
    return VariationEvent(kind, s - prev)


def event_horizon(x: CubicalSet, axis: int, s, direction: int) -> VariationEvent:
    """Exact supremum of event-free motion of one slice of a symmetrized set.

    ``direction`` is +1 (toward the far wall) or -1 (toward the origin).
    Motion ends when the plane reaches another level of the height function
    (``slice-area-changes``) or a cube wall (``slice-hits-0/1``).  Raises
    :class:`NotSymmetrizedError` on any other set.
    """
    _require_symmetrized(x)
    return _horizon(_height_profile(x, axis), as_rat(s), direction)


def translate_slice(x: CubicalSet, axis: int, s, d) -> CubicalSet:
    """Move the singular slice at ``s`` of a symmetrized set by the signed
    distance ``d``.

    Within the event horizon this changes volume by exactly ``area * d``
    and relative perimeter by exactly ``signed_measure * d``.  Raises
    :class:`NotSymmetrizedError` on any other set.
    """
    _require_symmetrized(x)
    s, d = as_rat(s), as_rat(d)
    if d == 0:
        return x
    horizon = _horizon(_height_profile(x, axis), s, 1 if d > 0 else -1)
    if abs(d) >= horizon.distance:
        raise EventError(horizon, d)
    return _move_cuts(x, axis, {s: s + d})


def _move_cuts(x: CubicalSet, axis: int, moves: dict) -> CubicalSet:
    """``x`` with the cuts of ``axis`` moved (old value -> new value) and
    its occupancy kept.  On a symmetrized set the cut at a level carries
    the columns of that height, so this moves those slices; a cut moved
    onto another cut or a wall drops the cell row between them."""
    grids = list(x.grids)
    grids[axis] = [moves.get(c, c) for c in grids[axis]]
    return CubicalSet(grids, x.occ)


# -- paired motions ----------------------------------------------------------


@dataclass(frozen=True)
class _MotionInfo:
    event: str
    exchanged: Fraction  # volume moved from the shrink side to the grow side
    grow_from: Fraction
    grow_to: Fraction
    shrink_from: Fraction
    shrink_to: Fraction


def _joint_motion(
    x: CubicalSet, axis: int, s_grow: Fraction, s_shrink: Fraction, step: str
) -> tuple[CubicalSet, _MotionInfo]:
    """Raise the ``s_grow`` level and lower the ``s_shrink`` level of a
    symmetrized set at equal volume rates, stopping exactly at the first
    event; ``step`` names the caller in the volume check.

    Only the nearest event of each moving level can come first.  When that
    event is the other moving level, the two collide sooner."""
    prof = _height_profile(x, axis)
    a_g = prof.level_area(s_grow)
    a_s = prof.level_area(s_shrink)
    up = _horizon(prof, s_grow, 1)
    down = _horizon(prof, s_shrink, -1)
    candidates = [(up.distance * a_g, up.kind), (down.distance * a_s, down.kind)]
    if s_grow < s_shrink:
        t = (s_shrink - s_grow) * a_g * a_s / (a_g + a_s)
        candidates.append((t, "slices-collide"))
    # On a tie the wall event wins: a level that reaches 0 or 1 vanishes,
    # so the perimeter change of that step is not linear in ``t``.
    t_star, kind = min(
        candidates, key=lambda c: (c[0], not c[1].startswith("slice-hits"), c[1])
    )
    p_grow = s_grow + t_star / a_g
    p_shrink = s_shrink - t_star / a_s
    y = _move_cuts(x, axis, {s_grow: p_grow, s_shrink: p_shrink})
    if y.volume() != x.volume():
        raise InternalCheckError(f"{step} changed the volume")
    return y, _MotionInfo(kind, t_star, s_grow, p_grow, s_shrink, p_shrink)


def merge_step(x: CubicalSet, axis: int, s1, s2) -> CubicalSet:
    """Move two equal-first-variation slices of one direction of a
    symmetrized set toward each other at matched volume rates until one
    meets another slice or they collide.  Volume and relative perimeter are
    preserved exactly and the interior singular count along ``axis``
    strictly decreases.  Raises :class:`NotSymmetrizedError` on any other set."""
    y, _ = _merge_step_full(x, axis, as_rat(s1), as_rat(s2))
    return y


def _merge_step_full(x, axis, s1, s2):
    _require_symmetrized(x)
    if not s1 < s2:
        raise DomainError("merge_step requires s1 < s2")
    prof = _height_profile(x, axis)
    d1 = _slice_from_profile(prof, s1)
    d2 = _slice_from_profile(prof, s2)
    if d1.first_var != d2.first_var:
        raise PreconditionError(
            f"first variations differ ({d1.first_var} vs {d2.first_var}); "
            "use improve_step"
        )
    y, info = _joint_motion(x, axis, s1, s2, "merge_step")
    after = _height_profile(y, axis)
    if after.relative_perimeter() != prof.relative_perimeter():
        raise InternalCheckError("merge_step changed the relative perimeter")
    if not len(after.interior_levels()) < len(prof.interior_levels()):
        raise InternalCheckError("merge_step did not reduce the slice count")
    return y, info


def improve_step(x: CubicalSet, slice1: tuple, slice2: tuple) -> CubicalSet:
    """Strictly decrease relative perimeter of a symmetrized set at constant
    volume by growing the slice with the smaller first variation while
    shrinking the other.

    ``slice1``/``slice2`` are ``(position, axis)`` pairs.  Same-direction
    pairs move jointly to the first event; cross-direction pairs use an
    exact slab exchange, halving the step until the (at most quadratic)
    interaction term is dominated by the first-order gain.  Raises
    :class:`NotSymmetrizedError` on any other set."""
    _require_symmetrized(x)
    (s1, i1), (s2, i2) = slice1, slice2
    s1, s2 = as_rat(s1), as_rat(s2)
    d1 = _slice_from_profile(_height_profile(x, i1), s1)
    d2 = _slice_from_profile(_height_profile(x, i2), s2)
    if d1.first_var == d2.first_var:
        raise PreconditionError(
            "equal first variations admit no improving trade"
        )
    if d1.first_var > d2.first_var:
        d1, d2 = d2, d1
        (s1, i1), (s2, i2) = (s2, i2), (s1, i1)
    if i1 == i2:
        y, _ = _improve_same_axis_full(x, i1, s1, s2, d1, d2)
        return y
    return _improve_cross_axis(x, (s1, i1, d1), (s2, i2, d2))


def _improve_same_axis_full(x, axis, s_grow, s_shrink, d_grow, d_shrink):
    y, info = _joint_motion(x, axis, s_grow, s_shrink, "improve_step")
    before_per = _height_profile(x, axis).relative_perimeter()
    after_per = _height_profile(y, axis).relative_perimeter()
    predicted = (d_grow.first_var - d_shrink.first_var) * info.exchanged
    if info.event in ("slices-collide", "slice-area-changes"):
        if after_per - before_per != predicted:
            raise InternalCheckError(
                "interior-event motion deviated from the linear law"
            )
    if not after_per < before_per:
        raise InternalCheckError("improve_step failed to decrease perimeter")
    return y, info


def _improve_cross_axis(x, grow, shrink):
    """Two successive exact slice translations: grow the low-variation slice,
    recompute the high-variation slice on the grown set (the two slabs may
    interact), then shrink it by the exactly matching volume.  The step is
    halved until the quadratic interaction term is dominated."""
    (s1, i1, d1), (s2, i2, _) = grow, shrink
    h_g = _horizon(_height_profile(x, i1), s1, 1).distance
    sigma = h_g / 2
    before_vol = x.volume()
    before_per = x.relative_perimeter()
    for _ in range(64):
        # both moves stay inside their horizons, so each keeps the set
        # symmetrized and moves one slice, as translate_slice would
        y1 = _move_cuts(x, i1, {s1: s1 + sigma})
        prof = _height_profile(y1, i2)
        try:
            d2_new = _slice_from_profile(prof, s2)
        except NonSingularError:
            sigma /= 2
            continue
        tau = sigma * d1.area / d2_new.area
        if tau >= _horizon(prof, s2, -1).distance:
            sigma /= 2
            continue
        y = _move_cuts(y1, i2, {s2: s2 - tau})
        if y.volume() != before_vol:
            raise InternalCheckError("slab exchange volume mismatch")
        if y.relative_perimeter() < before_per:
            return y
        sigma /= 2
    raise InternalCheckError("cross-direction improvement failed to converge")


# -- stationarity, specialness, reduction -------------------------------------


@dataclass(frozen=True)
class StationarityReport:
    slices: tuple[SliceData, ...]
    stationary: bool

    def values(self) -> list[Fraction]:
        return sorted({d.first_var for d in self.slices})


def check_stationarity(x: CubicalSet) -> StationarityReport:
    """List every interior singular slice of a symmetrized set with its
    exact first variation.

    A relative-perimeter minimizer must have all first variations equal;
    any strict inequality certifies an improving volume trade.  Raises
    :class:`NotSymmetrizedError` on any other set.
    """
    _require_symmetrized(x)
    slices = []
    for axis in range(x.dim):
        prof = _height_profile(x, axis)
        for v in prof.interior_levels():
            slices.append(_slice_from_profile(prof, v))
    fvs = {d.first_var for d in slices}
    return StationarityReport(tuple(slices), len(fvs) <= 1)


def is_special(x: CubicalSet) -> bool:
    """Symmetrized, volume in (0, 1/2], full near the origin corner, and at
    most one interior singular point per direction.

    Read off the occupancy grid: the interior cuts of an axis are its
    singular points, so the grid has at most two cells per axis, and a
    symmetrized set's occupancy never increases along any axis, which puts
    the origin cell of a nonempty set inside it.
    """
    if not (ZERO < x.volume() <= HALF):
        return False
    return all(len(g) <= 3 for g in x.grids) and is_symmetrized(x)


@dataclass(frozen=True)
class ReductionStep:
    kind: str  # symmetrize | merge | improve
    axis: Optional[int]
    positions: tuple[Fraction, ...]
    new_positions: tuple[Fraction, ...]
    distance: Fraction  # volume exchanged by the motion
    d_perimeter: Fraction
    d_volume: Fraction


def reduce_to_special(x: CubicalSet) -> tuple[CubicalSet, list[ReductionStep]]:
    """Symmetrize, then merge or improve singular slices direction by
    direction until at most one interior singular point per axis remains.

    Volume is preserved exactly and relative perimeter never increases; the
    log records one step per motion with exact deltas.  Every motion lands a
    moving plane on another plane or a wall, so the total interior singular
    count strictly decreases each step; the iteration cap is a safeguard.
    """
    if not (ZERO < x.volume() <= HALF):
        raise DomainError("reduction requires volume in (0, 1/2]")
    y = symmetrize_all(x)
    d_per = y.relative_perimeter() - x.relative_perimeter()
    log = [ReductionStep("symmetrize", None, (), (), ZERO, d_per, ZERO)]

    def interior(i):
        return _height_profile(y, i).interior_levels()

    cap = _CAP_PER_SLICE * (sum(len(interior(i)) for i in range(y.dim)) + y.dim)
    steps = 0
    while True:
        axis = next((i for i in range(y.dim) if len(interior(i)) >= 2), None)
        if axis is None:
            break
        steps += 1
        if steps > cap:
            raise IterationCapError(f"reduction exceeded {cap} steps", log)
        prof = _height_profile(y, axis)
        levels = prof.interior_levels()
        data = {v: _slice_from_profile(prof, v) for v in levels}
        pair = None
        for a, b in itertools.combinations(levels, 2):
            if data[a].first_var == data[b].first_var:
                pair = (a, b)
                break
        if pair is not None:
            z, info = _merge_step_full(y, axis, pair[0], pair[1])
            kind = "merge"
        else:
            lo = min(levels, key=lambda v: (data[v].first_var, v))
            hi = max(levels, key=lambda v: (data[v].first_var, -v))
            z, info = _improve_same_axis_full(y, axis, lo, hi, data[lo], data[hi])
            kind = "improve"
        d_per = _height_profile(z, axis).relative_perimeter() - prof.relative_perimeter()
        if d_per > 0 or z.volume() != y.volume():
            raise InternalCheckError("reduction step violated its contract")
        moved = (info.grow_from, info.shrink_from), (info.grow_to, info.shrink_to)
        log.append(ReductionStep(kind, axis, *moved, info.exchanged, d_per, ZERO))
        y = z
    if not is_special(y):
        raise InternalCheckError("reduction output failed the special-set check")
    return y, log
