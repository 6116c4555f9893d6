"""First-variation analysis of symmetrized cubical sets.

A symmetrized set is a monotone staircase: along every axis, each column is
an interval anchored at the zero wall, so the set is the subgraph of a
non-increasing height function over the base grid perpendicular to any axis.
Singular slices are the level sets of that function; translating one trades
volume against relative perimeter at the exact rational rate P/A, where A is
the slice area and P the signed measure of its boundary (wall-growing parts
count +1, wall-shrinking parts -1, parts on the cube boundary 0).

Everything is read off the set's own canonical grid.  Occupancy changes
across every interior cut, and along an axis where it never increases that
change is a column top: the interior cuts are exactly the interior levels.
The level set at cut ``k`` holds the columns occupied in cell row ``k - 1``
and empty in row ``k``; the columns empty in row ``k - 1`` are lower, and
those occupied in row ``k`` are higher.

All motions are event-driven: a slice moves exactly to the nearest
structural event (another level of the height function, or a cube wall), so
every volume and perimeter delta is an exact rational.

Every public entry point checks that its set is symmetrized and raises
:class:`NotSymmetrizedError` otherwise; the answer of
:func:`~cubeiso.symmetrize.is_symmetrized` is cached on the set, so each set
is checked once however many steps read it.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (
    DomainError,
    EventError,
    InternalCheckError,
    NonSingularError,
    NotSymmetrizedError,
    PreconditionError,
)
from .geometry import ZERO, CubicalSet, _neighbours, _weigh, as_rat
from .symmetrize import is_symmetrized, symmetrize_all

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


def monotone_relative_perimeter(x: CubicalSet) -> Fraction:
    """Relative perimeter via the heights along axis 0; requires a
    symmetrized set.

    Independent of the weighted face count in :mod:`cubeiso.geometry`: the
    heights are summed from the canonical boxes, the perimeter is the caps
    plus the wall differences of their subgraph, and the two routes are
    cross-checked in the test suite.
    """
    grids = x.grids[1:]
    den = math.lcm(*(c.denominator for c in x.grids[0]))
    h = np.zeros(tuple(len(g) - 1 for g in grids), dtype=object)
    index = [{c: k for k, c in enumerate(g)} for g in grids]
    for b in x.boxes:
        spans = tuple(slice(ix[a], ix[c]) for ix, a, c in zip(index, b.lo[1:], b.hi[1:]))
        h[spans] += int((b.hi[0] - b.lo[0]) * den)
    # over den times the base denominators, each column strictly between
    # the walls adds its cell measure, and each pair of adjacent columns
    # adds its height difference times the area of the face between them
    widths, dens = (v[1:] for v in x._widths())
    total = den * _weigh((h > 0) & (h < den), widths)
    for j, d in enumerate(dens):
        lower, upper = _neighbours(h, j)
        rise = abs(upper - lower).sum(axis=j)  # per line along base axis j
        total += d * _weigh(rise, widths[:j] + widths[j + 1:])
    return Fraction(total, den * math.prod(dens))


def _require_symmetrized(x: CubicalSet):
    if not is_symmetrized(x):
        raise NotSymmetrizedError(
            "operation requires a Steiner-symmetrization fixed point"
        )


# -- slice analysis ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SliceData:
    """One singular slice: its area, signed boundary measure and region.

    ``outer_measure`` is the part of the region's boundary where translating
    the slice outward grows walls (+1), ``inner_measure`` where walls shrink
    (-1), and ``cube_measure`` the part on the cube boundary (0).  The first
    variation ``signed_measure / area`` is the exact rate of perimeter
    change per unit of volume moved.  The region, an (n-1)-dimensional
    set, is built from ``base`` (the cuts of the other axes) and ``mask``
    (its cells on them) on first read; equality and hashing compare it.
    """

    axis: int
    position: Fraction
    area: Fraction
    outer_measure: Fraction
    cube_measure: Fraction
    inner_measure: Fraction
    base: tuple = field(repr=False)
    mask: np.ndarray = field(repr=False)

    @functools.cached_property
    def region(self) -> CubicalSet:
        return CubicalSet(self.base, self.mask)

    def _key(self) -> tuple:
        return (self.axis, self.position, self.region, self.area,
                self.outer_measure, self.cube_measure, self.inner_measure)

    def __eq__(self, other) -> bool:
        return isinstance(other, SliceData) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def signed_measure(self) -> Fraction:
        return self.outer_measure - self.inner_measure

    @property
    def first_var(self) -> Fraction:
        return self.signed_measure / self.area


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


def _cut(x: CubicalSet, axis: int, s: Fraction) -> int:
    """The index of ``s`` among the cuts of ``axis``; raises unless ``s``
    is an interior cut, that is, a level strictly between the walls."""
    g = x.grids[axis]
    k = bisect_left(g, s)
    if not (0 < k < len(g) - 1 and g[k] == s):
        raise NonSingularError(
            f"{s} is not an interior singular point along axis {axis}"
        )
    return k


def _slice_from_profile(x: CubicalSet, axis: int, k: int) -> SliceData:
    """The level set of a symmetrized ``x`` at its interior cut ``k`` along
    ``axis`` and its boundary, read from neighbour masks: across each base
    axis, a region cell on a cube wall adds its face to ``cube_measure``,
    and a region cell next to a higher (lower) column adds it to
    ``inner_measure`` (``outer_measure``)."""
    under = np.take(x.occ, k - 1, axis=axis)
    above = np.take(x.occ, k, axis=axis)
    region = under & ~above
    widths, dens = x._widths()
    widths, dens = widths[:axis] + widths[axis + 1:], dens[:axis] + dens[axis + 1:]
    measures = [0, 0, 0]  # outer, cube, inner over the product of the base denominators
    for j, d in enumerate(dens):
        counts = np.stack([  # per line along base axis j
            _facing(region, ~under, j),
            np.take(region, [0, -1], axis=j).sum(axis=j),
            _facing(region, above, j),
        ])
        for m, total in enumerate(_weigh(counts, widths[:j] + widths[j + 1:])):
            measures[m] += d * total
    den = math.prod(dens)
    outer, cube, inner = (Fraction(m, den) for m in measures)
    area = Fraction(_weigh(region, widths), den)
    base = x.grids[:axis] + x.grids[axis + 1:]
    return SliceData(axis, x.grids[axis][k], area, outer, cube, inner, base, region)


def _facing(region: np.ndarray, side: np.ndarray, axis: int) -> np.ndarray:
    """Per line along ``axis``, the faces between a ``region`` cell and a
    ``side`` cell next to it."""
    cells, succ = _neighbours(region, axis)
    low, high = _neighbours(side, axis)
    return ((cells & high) | (succ & low)).sum(axis=axis)


def slice_data(x: CubicalSet, axis: int, s) -> SliceData:
    """Region, area and signed boundary classification of the singular
    slice of a symmetrized set at position ``s`` along ``axis``; raises
    :class:`NotSymmetrizedError` on any other set."""
    _require_symmetrized(x)
    return _slice_from_profile(x, axis, _cut(x, axis, as_rat(s)))


def _horizon(x: CubicalSet, axis: int, k: int, direction: int) -> VariationEvent:
    """The nearest event of the singular slice at cut ``k`` moving up
    (``direction`` > 0) or down: the neighbouring cut."""
    g = x.grids[axis]
    if direction > 0:
        kind = "slice-hits-1" if k + 2 == len(g) else "slice-area-changes"
        return VariationEvent(kind, g[k + 1] - g[k])
    kind = "slice-hits-0" if k == 1 else "slice-area-changes"
    return VariationEvent(kind, g[k] - g[k - 1])


def event_horizon(x: CubicalSet, axis: int, s, direction: int) -> VariationEvent:
    """Exact supremum of event-free motion of one slice of a symmetrized set.

    ``direction`` is +1 (toward the far wall) or -1 (toward the origin).
    Motion ends when the plane reaches another level of the height function
    (``slice-area-changes``) or a cube wall (``slice-hits-0/1``).  Raises
    :class:`NotSymmetrizedError` on any other set.
    """
    _require_symmetrized(x)
    return _horizon(x, axis, _cut(x, axis, as_rat(s)), direction)


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
    horizon = _horizon(x, axis, _cut(x, axis, s), 1 if d > 0 else -1)
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
    x: CubicalSet, grow: SliceData, shrink: SliceData, step: str
) -> tuple[CubicalSet, _MotionInfo]:
    """Raise the ``grow`` level and lower the ``shrink`` level of a
    symmetrized set, two slices of one axis, at equal volume rates,
    stopping exactly at the first event; ``step`` names the caller in the
    volume check.

    Only the nearest event of each moving level can come first.  When that
    event is the other moving level, the two collide sooner."""
    axis, s_grow, s_shrink = grow.axis, grow.position, shrink.position
    a_g, a_s = grow.area, shrink.area
    up = _horizon(x, axis, _cut(x, axis, s_grow), 1)
    down = _horizon(x, axis, _cut(x, axis, s_shrink), -1)
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
    _require_symmetrized(x)
    s1, s2 = as_rat(s1), as_rat(s2)
    if not s1 < s2:
        raise DomainError("merge_step requires s1 < s2")
    d1, d2 = (_slice_from_profile(x, axis, _cut(x, axis, s)) for s in (s1, s2))
    y, _ = _merge_step_full(x, axis, d1, d2)
    return y


def _merge_step_full(x, axis, d1, d2):
    """:func:`merge_step` on the slices ``d1`` below ``d2`` of ``axis``,
    also returning the motion."""
    _require_symmetrized(x)
    if d1.first_var != d2.first_var:
        raise PreconditionError(
            f"first variations differ ({d1.first_var} vs {d2.first_var}); "
            "use improve_step"
        )
    y, info = _joint_motion(x, d1, d2, "merge_step")
    if y.relative_perimeter() != x.relative_perimeter():
        raise InternalCheckError("merge_step changed the relative perimeter")
    if not len(y.grids[axis]) < len(x.grids[axis]):
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
    d1, d2 = (
        _slice_from_profile(x, i, _cut(x, i, as_rat(s))) for s, i in (slice1, slice2)
    )
    if d1.first_var == d2.first_var:
        raise PreconditionError(
            "equal first variations admit no improving trade"
        )
    if d1.first_var > d2.first_var:
        d1, d2 = d2, d1
    if d1.axis == d2.axis:
        y, _ = _improve_same_axis_full(x, d1, d2)
        return y
    return _improve_cross_axis(x, d1, d2)


def _improve_same_axis_full(x, grow, shrink):
    y, info = _joint_motion(x, grow, shrink, "improve_step")
    before_per, after_per = x.relative_perimeter(), y.relative_perimeter()
    predicted = (grow.first_var - shrink.first_var) * info.exchanged
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
    (s1, i1), (s2, i2) = (grow.position, grow.axis), (shrink.position, shrink.axis)
    k2 = _cut(x, i2, s2)
    sigma = _horizon(x, i1, _cut(x, i1, s1), 1).distance / 2
    before_vol = x.volume()
    before_per = x.relative_perimeter()
    # The interaction term is at most sigma*tau times an edge length, and
    # each slice area at least 1/(den_j*den_k), so the winning sigma scales
    # with the common denominators: 64 halvings plus one per bit of each.
    for _ in range(64 + sum(d.bit_length() for d in x._widths()[1])):
        # both moves stay inside their horizons, so each keeps every cut
        # and the set symmetrized, and moves one slice, as translate_slice
        # would; the shrinking slice stays cut k2 of axis i2
        y1 = _move_cuts(x, i1, {s1: s1 + sigma})
        tau = sigma * grow.area / _slice_from_profile(y1, i2, k2).area
        if tau >= _horizon(y1, i2, k2, -1).distance:
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
    for axis, g in enumerate(x.grids):
        for k in range(1, len(g) - 1):
            slices.append(_slice_from_profile(x, axis, k))
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


def _interior_cuts(x: CubicalSet) -> int:
    """The number of interior cuts over all axes: the singular points."""
    return sum(len(g) - 2 for g in x.grids)


def reduce_to_special(x: CubicalSet) -> tuple[CubicalSet, list[ReductionStep]]:
    """Symmetrize, then merge or improve singular slices direction by
    direction until at most one interior singular point per axis remains.

    Volume is preserved exactly and relative perimeter never increases; the
    log records one step per motion with exact deltas.  Every motion lands a
    moving plane on another plane or a wall, so the number of interior cuts
    strictly decreases each step, which bounds the loop by its initial
    value; a step that does not lower it raises :class:`InternalCheckError`.
    """
    if not (ZERO < x.volume() <= HALF):
        raise DomainError("reduction requires volume in (0, 1/2]")
    y = symmetrize_all(x)
    d_per = y.relative_perimeter() - x.relative_perimeter()
    log = [ReductionStep("symmetrize", None, (), (), ZERO, d_per, ZERO)]

    while True:
        axis = next((i for i, g in enumerate(y.grids) if len(g) > 3), None)
        if axis is None:
            break
        data = [_slice_from_profile(y, axis, k) for k in range(1, len(y.grids[axis]) - 1)]
        pair = next(
            (p for p in itertools.combinations(data, 2) if p[0].first_var == p[1].first_var),
            None,
        )
        if pair is not None:
            z, info = _merge_step_full(y, axis, *pair)
            kind = "merge"
        else:
            lo = min(data, key=lambda d: (d.first_var, d.position))
            hi = max(data, key=lambda d: (d.first_var, -d.position))
            z, info = _improve_same_axis_full(y, lo, hi)
            kind = "improve"
        d_per = z.relative_perimeter() - y.relative_perimeter()
        if d_per > 0 or z.volume() != y.volume():
            raise InternalCheckError("reduction step violated its contract")
        if _interior_cuts(z) >= _interior_cuts(y):
            raise InternalCheckError(f"{kind} step did not lower the number of interior cuts")
        moved = (info.grow_from, info.shrink_from), (info.grow_to, info.shrink_to)
        log.append(ReductionStep(kind, axis, *moved, info.exchanged, d_per, ZERO))
        y = z
    if not is_special(y):
        raise InternalCheckError("reduction output failed the special-set check")
    return y, log
