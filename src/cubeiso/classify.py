"""Classification of special sets in the 3-cube.

A special set's faces on the cube walls are empty, a corner rectangle, or an
L-shape, which sorts every special set into seven families: boxes, tubes and
slabs (the minimizer candidates) and four L-faced families, each of which
admits an explicit equal-volume competitor with strictly smaller relative
perimeter.  The isoperimetric profile over cubical sets is
``min(3 V^(2/3), 2 V^(1/2), 1)``; the cube/tube tie sits at V1 = (2/3)^6 and
the tube/slab tie at V2 = 1/4.  All verdict-level comparisons are certified:
integer power comparisons decide them even when the values are irrational.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .enclosure import (
    DEFAULT_BITS,
    Enclosure,
    Scalar,
    nth_root,
    poly_root,
)
from .errors import (
    DomainError,
    InconsistentFamilyError,
    InternalCheckError,
    NoCompetitorError,
    NotSpecialError,
)
from .geometry import (
    ONE,
    ZERO,
    CubeIsometry,
    CubicalSet,
    as_rat,
)
from .variation import (
    StationarityReport,
    check_stationarity,
    improve_step,
    is_special,
)

__all__ = [
    "V1",
    "V2",
    "FaceForm",
    "SpecialFamily",
    "StationaryParameters",
    "Infeasible",
    "CompetitorCertificate",
    "ClassificationResult",
    "ProfileEntry",
    "realize",
    "face_form",
    "special_family",
    "stationary_parameters",
    "competitor",
    "classify_special",
    "classify",
    "profile",
    "profile2d",
    "strip_profile2d",
    "uniqueness_audit",
    "AuditReport",
]

HALF = Fraction(1, 2)
V1 = Fraction(64, 729)  # cube/tube tie volume: (2/3)**6
V2 = Fraction(1, 4)  # tube/slab tie volume

FAMILIES = ("box", "tube", "slab", "tri_slab", "l_prism", "slab_leg", "tripod")


# -- realizations -------------------------------------------------------------


def realize(family: str, params) -> CubicalSet:
    """Canonical-orientation box union of a family member.

    box(a,b,c); tube(a,b) = box with full third axis; slab(a); tri_slab(a,b,c)
    three wall slabs; l_prism(a,b,c) an L cross-section extruded along axis 2;
    slab_leg(a,b,c) a slab plus one protruding leg; tripod(a,b,c) three legs
    meeting at the origin corner.
    """
    p = tuple(as_rat(v) for v in params)
    if family == "box":
        a, b, c = p
        return CubicalSet.from_coords(3, [((0, 0, 0), (a, b, c))])
    if family == "tube":
        a, b = p
        return CubicalSet.from_coords(3, [((0, 0, 0), (a, b, 1))])
    if family == "slab":
        (a,) = p
        return CubicalSet.from_coords(3, [((0, 0, 0), (a, 1, 1))])
    if family == "tri_slab":
        a, b, c = p
        return CubicalSet.from_coords(
            3,
            [((0, 0, 0), (a, 1, 1)), ((0, 0, 0), (1, b, 1)), ((0, 0, 0), (1, 1, c))],
        )
    if family == "l_prism":
        a, b, c = p
        return CubicalSet.from_coords(
            3, [((0, 0, 0), (a, 1, c)), ((0, 0, 0), (1, b, c))]
        )
    if family == "slab_leg":
        a, b, c = p
        return CubicalSet.from_coords(
            3, [((0, 0, 0), (a, 1, 1)), ((0, 0, 0), (1, b, c))]
        )
    if family == "tripod":
        a, b, c = p
        return CubicalSet.from_coords(
            3,
            [
                ((0, 0, 0), (a, 1, c)),
                ((0, 0, 0), (1, b, c)),
                ((0, 0, 0), (a, b, 1)),
            ],
        )
    raise DomainError(f"unknown family {family!r}")


# -- face forms ---------------------------------------------------------------


@dataclass(frozen=True)
class FaceForm:
    """Shape of a wall face: empty, rectangle [0,a]x[0,b], or the L-shape
    ([0,a]x[0,1]) u ([0,1]x[0,b])."""

    tag: str  # empty | rect | l_shape
    a: Optional[Fraction] = None
    b: Optional[Fraction] = None


def _classify_face(face: CubicalSet) -> FaceForm:
    """Read off the face's grid: the rectangle is its origin cell alone,
    the L-shape all cells of a 2 x 2 grid but the far one."""
    (g0, g1), occ = face.grids, face.occ
    if face.is_empty:
        return FaceForm("empty")
    if np.count_nonzero(occ) == 1 and occ[0, 0]:
        return FaceForm("rect", g0[1], g1[1])
    if occ.tolist() == [[True, True], [True, False]]:
        return FaceForm("l_shape", g0[1], g1[1])
    return FaceForm("other")


def face_form(x: CubicalSet, axis: int, xi: int) -> FaceForm:
    """Classified wall face ``x`` meets at ``axis``-coordinate ``xi``.

    Requires a special set; any face outside the three admissible forms
    contradicts specialness and raises.
    """
    if x.dim != 3:
        raise DomainError("face forms are defined for dimension 3")
    if not is_special(x):
        raise NotSpecialError("face_form requires a special set")
    if xi == 0:
        face = x.cross_section(axis, ZERO, "above")
    elif xi == 1:
        face = x.cross_section(axis, ONE, "below")
    else:
        raise DomainError("xi must be 0 or 1")
    form = _classify_face(face)
    if form.tag == "other":
        raise InconsistentFamilyError(
            f"face at axis {axis}, wall {xi} lies outside the admissible forms"
        )
    if form.tag == "empty" and xi == 0:
        raise InconsistentFamilyError("an empty face can only sit at the far wall")
    return form


# -- family detection ---------------------------------------------------------


@dataclass(frozen=True)
class SpecialFamily:
    tag: str
    params: tuple[Fraction, ...]
    witness: CubeIsometry  # witness maps the canonical realization onto x


def _cells(occ: np.ndarray) -> tuple:
    """Grid shape and occupied cells: the key of the family table."""
    return occ.shape, occ.tobytes()


# Each family's occupancy pattern in canonical orientation, read off a
# realization at parameters 1/2 (and the full-height L-prism), with its
# parameter count.
_FAMILY_CELLS = {
    _cells(realize(tag, sample).occ): (tag, len(sample))
    for tag, sample in (
        ("box", (HALF, HALF, HALF)),
        ("tube", (HALF, HALF)),
        ("slab", (HALF,)),
        ("tri_slab", (HALF, HALF, HALF)),
        ("l_prism", (HALF, HALF, HALF)),
        ("l_prism", (HALF, HALF, ONE)),
        ("slab_leg", (HALF, HALF, HALF)),
        ("tripod", (HALF, HALF, HALF)),
    )
}


def special_family(x: CubicalSet) -> SpecialFamily:
    """Identify the family of a special set, with exact parameters and a
    witness isometry mapping the canonical realization onto the input.

    A special set lives on a grid of at most 2 x 2 x 2 cells.  Under each
    axis permutation its occupancy is looked up in the family table; the
    parameters are the cuts, which are 1 on an axis without an interior
    cut.  The least ``(tag, params)`` over the matching permutations wins,
    which orders the parameters: box a <= b <= c, tube a <= b, l_prism
    a <= b, slab_leg b <= c, tri_slab a <= b <= c.
    """
    if x.dim != 3:
        raise DomainError("family classification is 3-dimensional")
    if not is_special(x):
        raise NotSpecialError("special_family requires a special set")
    grids, occ = x.grids, x.occ
    found = []
    for perm in itertools.permutations(range(3)):
        hit = _FAMILY_CELLS.get(_cells(np.transpose(occ, perm)))
        if hit is not None:
            tag, arity = hit
            found.append((tag, tuple(grids[p][1] for p in perm)[:arity], perm))
    if not found:
        raise InconsistentFamilyError(
            "special set matches no family realization"
        )
    tag, params, perm = min(found, key=lambda t: t[:2])
    witness = CubeIsometry(perm, (False, False, False)).inverse()
    if realize(tag, params).apply(witness) != x:
        raise InternalCheckError("family witness failed to reproduce the set")
    return SpecialFamily(tag, params, witness)


# -- stationary parameters ----------------------------------------------------


@dataclass(frozen=True)
class StationaryParameters:
    family: str
    facts: tuple[str, ...]
    values: dict

    def scalar(self, name: str) -> Scalar:
        return self.values[name]


@dataclass(frozen=True)
class Infeasible:
    family: str
    reason: str


def _one_minus(s: Scalar) -> Scalar:
    if isinstance(s, Enclosure):
        return Enclosure(ONE - s.hi, ONE - s.lo)
    return ONE - s


def stationary_parameters(
    family: str, volume, bits: int = DEFAULT_BITS
) -> Union[StationaryParameters, Infeasible]:
    """Parameters equalizing all interior first variations at the given
    volume, or Infeasible when the equations have no solution there.

    Symmetry conclusions are exact; the one remaining scalar is an exact
    rational when possible and otherwise a certified enclosure of width at
    most 2**-bits.
    """
    v = as_rat(volume)
    if not ZERO < v <= HALF:
        raise DomainError("stationary parameters are posed for volume in (0, 1/2]")
    if family == "box":
        return StationaryParameters(
            family, ("a=b=c",), {"a": nth_root(v, 3, bits), "volume": v}
        )
    if family == "tube":
        return StationaryParameters(
            family, ("a=b",), {"a": nth_root(v, 2, bits), "volume": v}
        )
    if family == "slab":
        return StationaryParameters(family, (), {"a": v, "volume": v})
    if family == "tri_slab":
        # volume 1-(1-a)^3 = v, so the wall thickness is 1 - (1-v)^(1/3)
        a = _one_minus(nth_root(ONE - v, 3, bits))
        return StationaryParameters(family, ("a=b=c",), {"a": a, "volume": v})
    if family == "l_prism":
        # equal first variations force a square L and a full-height prism;
        # then a(2-a) = v, i.e. a = 1 - sqrt(1-v)
        a = _one_minus(nth_root(ONE - v, 2, bits))
        return StationaryParameters(
            family, ("a=b", "c=1"), {"a": a, "c": ONE, "volume": v}
        )
    if family == "slab_leg":
        # equal variations force b = c and slab thickness
        # a = 1 - b(1-b^2)/(1+b^2) > 1/2, because (1-b)^2 + 2b^3 > 0;
        # the volume then exceeds a > 1/2, so no solution exists here.
        return Infeasible(
            family,
            "stationarity forces the slab thicker than 1/2, so the volume "
            "would exceed 1/2",
        )
    if family == "tripod":
        # volume 3a^2 - 2a^3 = v with a in (0, 1/2]
        enc = poly_root((-2, 3, 0, -v), ZERO, HALF, bits)
        a = enc.lo if enc.is_exact else enc
        return StationaryParameters(family, ("a=b=c",), {"a": a, "volume": v})
    raise DomainError(f"unknown family {family!r}")


# -- competitors --------------------------------------------------------------


@dataclass(frozen=True)
class CompetitorCertificate:
    """An equal-volume set with strictly smaller relative perimeter; both
    deltas are exact rationals checkable by the geometry layer alone."""

    original: CubicalSet
    competitor: CubicalSet
    d_volume: Fraction
    d_perimeter: Fraction


def _make_certificate(x: CubicalSet, y: CubicalSet) -> CompetitorCertificate:
    dv = y.volume() - x.volume()
    dp = y.relative_perimeter() - x.relative_perimeter()
    if dv != 0 or not dp < 0:
        raise InternalCheckError(
            f"competitor certificate failed: d_vol={dv}, d_per={dp}"
        )
    return CompetitorCertificate(x, y, dv, dp)


def _simplest(s: Scalar) -> Fraction:
    """``s`` when exact, else the positive fraction of least denominator in
    the enclosure, whose upper end must be positive.

    Continued fractions (Graham-Knuth-Patashnik, Concrete Mathematics, 4.5)
    on the reciprocal interval [1/hi, 1/lo], with 1/0 read as infinity: take
    the integer part ``a`` of both ends and invert the rest, until an
    integer ``t`` lies in the interval.  ``h/k`` are the convergents."""
    if isinstance(s, Fraction):
        return s
    ln, ld, hn, hd = s.hi.denominator, s.hi.numerator, s.lo.denominator, s.lo.numerator
    h0, h1, k0, k1 = 1, 0, 0, 1
    while True:
        a, rem = divmod(ln, ld)
        if rem == 0 or (a + 1) * hd <= hn:  # lo, else ceil(lo), lies in it
            t = a + (rem != 0)
            return Fraction(t * h1 + h0, t * k1 + k0)
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        ln, ld, hn, hd = hd, hn - a * hd, ld, ln - a * ld


def _best_2d_replacement(a: Fraction, b: Fraction) -> Optional[CubicalSet]:
    """A 2D set with the area of the L-shape L(a,b) and strictly smaller
    relative perimeter in the unit square, if one exists."""
    w = a + b - a * b
    per_l = 2 - a - b
    # strip of width w
    if ONE < per_l:
        return CubicalSet.from_coords(2, [((0, 0), (w, 1))])
    # near-square rectangle p x (w/p), perimeter p + w/p -> 2 sqrt(w)
    for bits in (16, 32, 64, 128, 256):
        p = _simplest(nth_root(w, 2, bits))
        if ZERO < p < ONE and ZERO < w / p < ONE and p + w / p < per_l:
            return CubicalSet.from_coords(2, [((0, 0), (p, w / p))])
        # symmetric-L replacement: u = v solves 2u - u^2 = w, perimeter
        # 2(1-u) -> 2 sqrt(1-w); rationalize u, solve v exactly from the area
        u = _simplest(_one_minus(nth_root(ONE - w, 2, bits)))
        if ZERO < u < ONE:
            v = (w - u) / (ONE - u)
            if ZERO < v < ONE and (ONE - u) + (ONE - v) < per_l:
                return CubicalSet.from_coords(
                    2, [((0, 0), (u, 1)), ((0, 0), (1, v))]
                )
    return None


def _profile_shape_competitor(x: CubicalSet) -> CubicalSet:
    """A rational cube/tube/slab-like set of equal volume beating ``x``;
    exists whenever ``x`` is not itself profile-optimal."""
    v = x.volume()
    per = x.relative_perimeter()
    candidates = []
    if v < ONE:
        candidates.append(CubicalSet.from_coords(3, [((0, 0, 0), (v, 1, 1))]))
    for bits in (16, 32, 64, 128, 256):
        p = _simplest(nth_root(v, 2, bits))
        if ZERO < p <= ONE and ZERO < v / p <= ONE:
            candidates.append(
                CubicalSet.from_coords(3, [((0, 0, 0), (p, v / p, 1))])
            )
        q = _simplest(nth_root(v, 3, bits))
        if ZERO < q <= ONE and ZERO < v / (q * q) <= ONE:
            candidates.append(
                CubicalSet.from_coords(3, [((0, 0, 0), (q, q, v / (q * q)))])
            )
        for y in candidates:
            if y.relative_perimeter() < per and y.volume() == v:
                return y
    raise InternalCheckError("no profile-shape competitor certified")


def _improvement_competitor(x: CubicalSet) -> CubicalSet:
    """Competitor from a first-variation trade on the extremal slice pair."""
    report = check_stationarity(x)
    if report.stationary:
        raise InternalCheckError("improvement requested for a stationary set")
    lo = min(report.slices, key=lambda d: (d.first_var, d.axis, d.position))
    hi = max(report.slices, key=lambda d: (d.first_var, -d.axis, -d.position))
    return improve_step(x, (lo.position, lo.axis), (hi.position, hi.axis))


def competitor(family: str, params) -> CompetitorCertificate:
    """An exact equal-volume, strictly-better competitor for an L-faced
    family member; the minimizer families have none at stationary
    parameters and raise."""
    p = tuple(as_rat(v) for v in params)
    if family in ("box", "tube", "slab"):
        raise NoCompetitorError(
            f"{family} admits no competitor at stationary parameters"
        )
    x = realize(family, p)
    v = x.volume()
    if not ZERO < v <= HALF:
        raise DomainError("competitor construction assumes volume in (0, 1/2]")
    if family in ("tri_slab", "slab_leg"):
        y = CubicalSet.from_coords(3, [((0, 0, 0), (v, 1, 1))])
        return _make_certificate(x, y)
    if family == "l_prism":
        a, b, c = p
        y2 = _best_2d_replacement(a, b)
        if y2 is not None:
            # the planar set extruded to height c
            y = CubicalSet([*y2.grids, (ZERO, c, ONE)], y2.occ[..., None] & [True, False])
            if y.relative_perimeter() < x.relative_perimeter():
                return _make_certificate(x, y)
        return _make_certificate(x, _profile_shape_competitor(x))
    if family == "tripod":
        a, b, c = p
        if a == b == c:
            # swing the vertical leg above height a onto the floor
            y = CubicalSet.from_coords(
                3,
                [
                    ((0, 0, 0), (a, 1, a)),
                    ((0, 0, 0), (1, a, a)),
                    ((a, a, 0), (2 * a, 1, a)),
                ],
            )
            cert = _make_certificate(x, y)
            # at a = 1/2 the swung leg fuses with the others into a slab and
            # extra walls vanish; the clean -a(1-a) delta needs a < 1/2
            if a < HALF and cert.d_perimeter != -(a * (1 - a)):
                raise InternalCheckError(
                    "leg rotation delta differs from -a(1-a)"
                )
            return cert
        return _make_certificate(x, _improvement_competitor(x))
    raise DomainError(f"unknown family {family!r}")


# -- the isoperimetric profile -------------------------------------------------


@dataclass(frozen=True)
class ProfileEntry:
    volume: Fraction
    kinds: frozenset
    value: Scalar  # exact Fraction when representable, else an enclosure
    at_cube_tube_tie: bool
    at_tube_slab_tie: bool


def _root_term(c: int, v: Fraction, n: int, p: int, bits: int) -> Scalar:
    """``c * (v^(1/n))^p``: exact when the root is rational, otherwise an
    enclosure of width at most 2^-bits.

    The root's enclosure ``[lo, hi]`` lies in [0, 1] and has width at most
    2^-(bits+3), so ``c * (hi^p - lo^p) <= c * p * (hi - lo) <= 2^-bits``
    for every ``c * p <= 8``; the profiles use ``c * p`` of 2 and 6."""
    r = nth_root(v, n, bits + 3)
    if isinstance(r, Fraction):
        return c * r**p
    return Enclosure(c * r.lo**p, c * r.hi**p)


def profile(volume, bits: int = DEFAULT_BITS) -> ProfileEntry:
    """Minimal relative perimeter min(3 V^(2/3), 2 V^(1/2), 1) with a
    certified argmin set; ties are reported, not broken."""
    v = as_rat(volume)
    if not ZERO < v <= HALF:
        raise DomainError("profile is defined for volume in (0, 1/2]")
    cube_le_tube = 729 * v <= 64  # (3 V^(2/3))^6 <= (2 V^(1/2))^6
    tube_le_cube = 729 * v >= 64
    tube_le_slab = 4 * v <= 1
    slab_le_tube = 4 * v >= 1
    cube_le_slab = 27 * v * v <= 1
    slab_le_cube = 27 * v * v >= 1
    kinds = set()
    if cube_le_tube and cube_le_slab:
        kinds.add("cube")
    if tube_le_cube and tube_le_slab:
        kinds.add("tube")
    if slab_le_tube and slab_le_cube:
        kinds.add("slab")
    if "slab" in kinds:
        value: Scalar = ONE
    elif "tube" in kinds:
        value = _root_term(2, v, 2, 1, bits)
    else:
        value = _root_term(3, v, 3, 2, bits)
    return ProfileEntry(v, frozenset(kinds), value, v == V1, v == V2)


def profile2d(volume, bits: int = DEFAULT_BITS) -> ProfileEntry:
    """Planar analogue min(2 V^(1/2), 1) with square/strip kinds."""
    v = as_rat(volume)
    if not ZERO < v <= HALF:
        raise DomainError("profile2d is defined for volume in (0, 1/2]")
    kinds = set()
    if 4 * v <= 1:
        kinds.add("square")
    if 4 * v >= 1:
        kinds.add("strip")
    value: Scalar = ONE if "strip" in kinds else _root_term(2, v, 2, 1, bits)
    return ProfileEntry(v, frozenset(kinds), value, False, 4 * v == 1)


def strip_profile2d(a, volume, bits: int = DEFAULT_BITS) -> tuple:
    """Minimal relative perimeter of planar sets confined to [0,a] x [0,1].

    Returns ``(value, kinds)``.  Candidates: the square [0, sqrt(V)]^2 when
    it fits (V <= a^2, value 2 sqrt(V)), the strip [0,V] x [0,1] (value 1),
    and the full-width rectangle [0,a] x [0, V/a] (value a + V/a, dominated
    by the square whenever both fit).  In the confined regime a <= 1/2 this
    reduces to 2 sqrt(V) below a^2 and min(1, a + V/a) above it.
    """
    a = as_rat(a)
    v = as_rat(volume)
    if not ZERO < a < ONE:
        raise DomainError("strip width must lie in (0, 1)")
    if not ZERO < v <= a:
        raise DomainError("volume must lie in (0, a]")
    rect = a + v / a
    if v <= a * a:
        # square vs strip: 2 sqrt(V) <= 1 iff 4V <= 1; rect >= 2 sqrt(V)
        square_le_strip = 4 * v <= 1
        kinds = set()
        if square_le_strip:
            kinds.add("square")
        if 4 * v >= 1:
            kinds.add("strip")
        if v == a * a and rect <= ONE:
            kinds.add("rect")  # the rectangle IS the square here
        value = _root_term(2, v, 2, 1, bits) if square_le_strip else ONE
        return value, frozenset(kinds)
    kinds = set()
    if rect <= ONE:
        kinds.add("rect")
    if rect >= ONE:
        kinds.add("strip")
    return min(ONE, rect), frozenset(kinds)


# -- uniqueness audits ---------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    kind: str
    parameter: Fraction
    area: Fraction
    perimeter: Fraction
    ratio_bound: Fraction  # 2/a (cube), 1/a (tube)
    strict: bool
    notes: tuple[str, ...]


def uniqueness_audit(kind: str, a, t: CubicalSet) -> AuditReport:
    """Check the ratio inequality that forbids a residual slice piece on a
    minimizer's face.

    For a cube of side ``a``, any proper nonempty planar piece T of the
    [0,a]^2 face satisfies RelPer(T)/area(T) > 2/a; for a tube, pieces of
    the [0,a] x [0,1] face satisfy the same with bound 1/a (via the confined
    strip profile); for a slab, the two portions would need first variations
    of opposite signs.  All comparisons are exact.
    """
    a = as_rat(a)
    if t.dim != 2:
        raise DomainError("audit pieces are planar")
    if kind == "cube":
        face = CubicalSet.from_coords(2, [((0, 0), (a, a))])
    elif kind == "tube":
        face = CubicalSet.from_coords(2, [((0, 0), (a, 1))])
    elif kind == "slab":
        face = CubicalSet.unit(2)
    else:
        raise DomainError(f"unknown minimizer kind {kind!r}")
    if t.is_empty or t == face or not t.difference(face).is_empty:
        raise DomainError("piece must be a proper nonempty subset of the face")
    area = t.volume()
    per = t.relative_perimeter()
    notes = []
    if kind == "cube":
        bound = 2 / a
        strict = per * a > 2 * area  # per/area > 2/a
        if per * per >= 4 * area:
            notes.append("perimeter >= 2 sqrt(area) (planar lower bound)")
        if area < a * a:
            notes.append("area < a^2, so 2/sqrt(area) > 2/a")
        return AuditReport(kind, a, area, per, bound, strict, tuple(notes))
    if kind == "tube":
        bound = 1 / a
        strict = per * a > area
        if area <= a * a:
            notes.append("square branch: perimeter >= 2 sqrt(area) > area/a")
        else:
            rect = a + area / a
            notes.append(
                f"confined branch: perimeter >= min(1, {rect}) forces ratio > 1/a"
            )
        return AuditReport(kind, a, area, per, bound, strict, tuple(notes))
    # slab: sign mismatch between the piece and the remainder
    strict = per > 0  # piece variation per/area > 0 > -per/(1-area)
    notes.append("piece first variation positive, remainder negative")
    return AuditReport(kind, a, area, per, ZERO, strict, tuple(notes))


# -- the classifier ------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationResult:
    verdict: str  # cube | tube | slab | not_minimizer | trivial
    volume: Fraction
    kinds: frozenset
    family: Optional[SpecialFamily]
    stationarity: Optional[StationarityReport]
    competitor: Optional[CompetitorCertificate]
    via_complement: bool = False
    notes: tuple[str, ...] = ()


def classify_special(x: CubicalSet) -> ClassificationResult:
    """Verdict for a special set of volume in (0, 1/2]: one of the three
    minimizer kinds (cross-checked against the profile) or a certified
    equal-volume competitor with strictly smaller relative perimeter."""
    if x.dim != 3:
        raise DomainError("classification is 3-dimensional")
    v = x.volume()
    if not ZERO < v <= HALF:
        raise DomainError("classify_special expects volume in (0, 1/2]")
    if not is_special(x):
        raise NotSpecialError("classify_special requires a special set")
    fam = special_family(x)
    stat = check_stationarity(x)
    entry = profile(v)
    kind = {"box": "cube", "tube": "tube", "slab": "slab"}.get(fam.tag)
    if fam.tag == "tripod" and len(set(fam.params)) == 1:
        y = competitor("tripod", fam.params).competitor.apply(fam.witness)
        notes = ("rotated-leg competitor",)
    elif not stat.stationary:
        y = _improvement_competitor(x)
        notes = ("unequal first variations",)
    elif kind is None:
        y = competitor(fam.tag, fam.params).competitor.apply(fam.witness)
        notes = ()
    elif kind in entry.kinds:
        ties = entry.kinds - {kind}
        notes = (f"ties with {', '.join(sorted(ties))} at this volume",) if ties else ()
        return ClassificationResult(kind, v, entry.kinds, fam, stat, None, notes=notes)
    else:
        y = _profile_shape_competitor(x)
        notes = (f"profile favors {', '.join(sorted(entry.kinds))}",)
    return ClassificationResult(
        "not_minimizer", v, entry.kinds, fam, stat, _make_certificate(x, y), notes=notes
    )


def classify(x: CubicalSet) -> ClassificationResult:
    """Convenience wrapper: handles trivial volumes, complements volumes
    above 1/2, and reduces non-special inputs before classifying."""
    from .variation import reduce_to_special

    if x.dim != 3:
        raise DomainError("classification is 3-dimensional")
    v = x.volume()
    notes = []
    if v == 0 or v == ONE:
        return ClassificationResult(
            "trivial", v, frozenset(), None, None, None,
            notes=("relative perimeter 0",),
        )
    y = x
    via_complement = False
    if v > HALF:
        y = y.complement()
        via_complement = True
        notes.append("classified the complement (volume above 1/2)")
    if not is_special(y):
        y, _ = reduce_to_special(y)
        notes.append("input reduced to a special set first")
    res = classify_special(y)
    return replace(res, via_complement=via_complement, notes=tuple(notes) + res.notes)
