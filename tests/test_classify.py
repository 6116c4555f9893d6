"""Families, stationary parameters, competitors, profile, verdicts, audits."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from strategies import two_cell_sets

from cubeiso.classify import (
    V1,
    V2,
    Infeasible,
    classify,
    classify_special,
    competitor,
    face_form,
    profile,
    profile2d,
    realize,
    _simplest,
    special_family,
    stationary_parameters,
    strip_profile2d,
    uniqueness_audit,
)
from cubeiso.enclosure import Enclosure
from cubeiso.errors import DomainError, NoCompetitorError, NotSpecialError
from cubeiso.geometry import CubeIsometry, CubicalSet, equal_up_to_isometry
from cubeiso.variation import is_special

HALF = F(1, 2)


def cs(dim, pairs):
    return CubicalSet.from_coords(dim, pairs)


class TestFaceForm:
    def test_cube_faces(self):
        x = realize("box", (F(1, 3),) * 3)
        near = face_form(x, 0, 0)
        assert (near.tag, near.a, near.b) == ("rect", F(1, 3), F(1, 3))
        assert face_form(x, 0, 1).tag == "empty"

    def test_tri_slab_far_face_is_l(self):
        x = realize("tri_slab", (F(1, 5), F(1, 4), F(1, 6)))
        form = face_form(x, 0, 1)
        assert form.tag == "l_shape"
        assert (form.a, form.b) == (F(1, 4), F(1, 6))

    def test_requires_special(self):
        shifted = cs(3, [((F(1, 4), 0, 0), (HALF, 1, 1))])
        with pytest.raises(NotSpecialError):
            face_form(shifted, 0, 0)


class TestSpecialFamily:
    CASES = [
        ("box", (F(1, 5), F(1, 4), F(1, 3))),
        ("tube", (F(1, 4), F(1, 3))),
        ("slab", (F(2, 5),)),
        ("tri_slab", (F(1, 6), F(1, 5), F(1, 5))),
        ("l_prism", (F(1, 4), F(1, 3), F(3, 5))),
        ("l_prism", (F(1, 4), F(1, 3), F(1))),  # full-height prism
        ("slab_leg", (F(1, 4), F(1, 3), F(1, 2))),
        ("tripod", (F(1, 5), F(1, 4), F(1, 3))),
        ("box", (F(1, 3), F(1, 3), F(1, 3))),  # ties a = b = c
        ("tube", (F(1, 3), F(1, 3))),  # tie a = b
        ("l_prism", (F(1, 3), F(1, 5), F(1))),  # full height, a > b
    ]

    @pytest.mark.parametrize("tag,params", CASES)
    def test_roundtrip(self, tag, params):
        x = realize(tag, params)
        fam = special_family(x)
        assert fam.tag == tag
        assert realize(fam.tag, fam.params).apply(fam.witness) == x

    @pytest.mark.parametrize("tag,params", CASES)
    def test_detection_is_orientation_free(self, tag, params):
        x = realize(tag, params)
        for perm in itertools.permutations(range(3)):
            g = CubeIsometry(perm, (False, False, False))
            fam = special_family(x.apply(g))
            assert fam.tag == tag
            assert realize(fam.tag, fam.params).apply(fam.witness) == x.apply(g)

    # the order special_family puts each family's parameters in
    ORDER = {
        "box": (0, 1, 2),
        "tube": (0, 1),
        "tri_slab": (0, 1, 2),
        "l_prism": (0, 1),
        "slab_leg": (1, 2),
    }

    @settings(max_examples=80, deadline=None)
    @given(two_cell_sets(3, monotone=True))
    def test_every_special_set_has_a_family(self, x):
        assert is_special(x)
        fam = special_family(x)
        assert realize(fam.tag, fam.params).apply(fam.witness) == x
        order = [fam.params[i] for i in self.ORDER.get(fam.tag, ())]
        assert order == sorted(order)

    def test_tripod_orbit_equivalence(self):
        a = F(3, 10)
        x = realize("tripod", (a, a, a))
        images = [
            x.apply(CubeIsometry(p, (False, False, False)))
            for p in itertools.permutations(range(3))
        ]
        for y in images:
            assert equal_up_to_isometry(x, y) is not None


class TestStationaryParameters:
    def test_box_exact_cube_root(self):
        sp = stationary_parameters("box", F(1, 8))
        assert sp.facts == ("a=b=c",)
        assert sp.values["a"] == HALF

    def test_tri_slab_cubic_root(self):
        sp = stationary_parameters("tri_slab", HALF)
        a = sp.values["a"]
        assert isinstance(a, Enclosure)
        assert 0 < a.lo and a.hi <= F(3, 10)
        assert a.width <= F(1, 2**64)
        # enclosure of the root of 2a^3 - 6a^2 + 6a - 1
        assert 2 * a.lo**3 - 6 * a.lo**2 + 6 * a.lo - 1 <= 0
        assert 2 * a.hi**3 - 6 * a.hi**2 + 6 * a.hi - 1 >= 0

    def test_tube_square_root(self):
        sp = stationary_parameters("tube", F(1, 4))
        assert sp.facts == ("a=b",)
        assert sp.values["a"] == HALF

    def test_slab_leg_infeasible(self):
        for v in (F(1, 10), F(1, 4), HALF):
            assert isinstance(stationary_parameters("slab_leg", v), Infeasible)

    def test_tripod_volume_equation(self):
        sp = stationary_parameters("tripod", HALF)
        a = sp.values["a"]
        got = a if isinstance(a, F) else a.lo
        assert got == HALF  # 3a^2 - 2a^3 = 1/2 at a = 1/2 exactly

    def test_volume_domain(self):
        with pytest.raises(DomainError):
            stationary_parameters("box", F(3, 4))


class TestCompetitors:
    def test_minimizer_families_have_none(self):
        for fam, params in (("box", (HALF,) * 3), ("tube", (HALF, HALF)), ("slab", (HALF,))):
            with pytest.raises(NoCompetitorError):
                competitor(fam, params)

    def test_tri_slab_slab_swap(self):
        a = F(1, 5)
        cert = competitor("tri_slab", (a, a, a))
        assert cert.d_volume == 0
        assert cert.d_perimeter == -F(23, 25)
        assert cert.d_perimeter == 1 - 3 * (1 - a) ** 2

    def test_slab_leg_trim(self):
        a, b = F(1, 4), F(1, 3)
        cert = competitor("slab_leg", (a, b, b))
        assert cert.d_volume == 0
        assert cert.d_perimeter == b * b - 2 * b * (1 - a)

    def test_tripod_rotation(self):
        a = F(3, 10)
        x = realize("tripod", (a, a, a))
        assert x.relative_perimeter() == 6 * a * (1 - a)
        cert = competitor("tripod", (a, a, a))
        assert cert.competitor.relative_perimeter() == 5 * a * (1 - a)
        assert cert.d_perimeter == -a * (1 - a)
        assert cert.d_volume == 0

    def test_tripod_generic_parameters(self):
        cert = competitor("tripod", (F(1, 5), F(1, 4), F(1, 3)))
        assert cert.d_volume == 0 and cert.d_perimeter < 0

    def test_l_prism_2d_replacement(self):
        a, b, c = F(1, 4), F(1, 3), F(3, 5)
        cert = competitor("l_prism", (a, b, c))
        assert cert.d_volume == 0 and cert.d_perimeter < 0

    def test_l_prism_symmetric_l_with_rational_root(self):
        # (1-a)(1-b) = (4/17)^2, so the symmetric L of equal area has the
        # exact wall thickness u = v = 1 - 4/17
        cert = competitor("l_prism", (F(1, 17), F(16, 17), HALF))
        u = F(13, 17)
        ell = cs(3, [((0, 0, 0), (u, 1, HALF)), ((0, 0, 0), (1, u, HALF))])
        assert cert.competitor == ell
        assert cert.d_volume == 0 and cert.d_perimeter < 0

    def test_tiny_tube_takes_the_simplest_cube_side(self):
        # v = 10^-14: at 16 bits the cube root lies in [1/65536, 1/32768],
        # whose simplest fraction 1/32768 lies 32768 mediants deep in the
        # Stern-Brocot tree
        a = F(1, 10**7)
        res = classify(realize("tube", (a, a)))
        q = F(1, 32768)
        assert res.verdict == "not_minimizer"
        assert res.competitor.competitor == cs(3, [((0, 0, 0), (q, q, a * a / (q * q)))])
        assert res.competitor.d_volume == 0 and res.competitor.d_perimeter < 0

    def test_l_prism_when_cross_section_is_planar_optimal(self):
        # a thick symmetric L is itself a planar minimizer at its area, so
        # no 2D replacement helps; the profile-shape fallback must certify
        cert = competitor("l_prism", (F(9, 10), F(9, 10), F(1, 2)))
        assert cert.d_volume == 0 and cert.d_perimeter == -F(9, 100)

    def test_l_prism_decomposition_identity(self):
        a, b = F(1, 4), F(1, 3)
        lshape = cs(2, [((0, 0), (a, 1)), ((0, 0), (1, b))])
        for c in (F(3, 5), F(1)):
            x = realize("l_prism", (a, b, c))
            assert x.volume() == c * lshape.volume()
            expected = c * lshape.relative_perimeter()
            if c < 1:
                expected += lshape.volume()
            assert x.relative_perimeter() == expected


class TestProfile:
    def test_tie_volumes(self):
        e = profile(V1)
        assert e.kinds == frozenset({"cube", "tube"})
        assert e.value == F(16, 27)
        assert e.at_cube_tube_tie
        e = profile(V2)
        assert e.kinds == frozenset({"tube", "slab"})
        assert e.value == 1
        assert e.at_tube_slab_tie

    def test_regimes(self):
        assert profile(F(1, 100)).kinds == frozenset({"cube"})
        assert profile(F(1, 8)).kinds == frozenset({"tube"})
        assert profile(HALF).kinds == frozenset({"slab"})
        assert profile(HALF).value == 1

    def test_exact_when_rational(self):
        v = profile(F(9, 64)).value  # tube regime, sqrt(9/64) = 3/8
        assert v == F(3, 4)
        v = profile(F(1, 27)).value  # cube regime, (1/27)^(1/3) = 1/3
        assert v == F(1, 3)

    def test_volume_below_float_range(self):
        e = profile(F(1, 3 * 10**320))
        assert e.kinds == frozenset({"cube"})
        assert isinstance(e.value, Enclosure)

    def test_2d(self):
        e = profile2d(F(1, 4))
        assert e.kinds == frozenset({"square", "strip"})
        assert e.value == 1
        assert profile2d(F(1, 16)).value == HALF
        assert profile2d(F(3, 10)).value == 1
        assert profile2d(F(3, 10)).kinds == frozenset({"strip"})

    # (volume, kind of the 3-cube profile, kind of the planar profile) on
    # every branch; 1/50 and 1/8 give irrational values in both profiles and
    # 1/27 in the planar one, carried as enclosures
    BRANCHES = (
        (F(1, 50), "cube", "square"),  # 3 V^(2/3) and 2 V^(1/2)
        (F(1, 27), "cube", "square"),  # exact cube root; 2 V^(1/2) irrational
        (F(1, 8), "tube", "square"),  # 2 V^(1/2)
        (F(9, 64), "tube", "square"),  # exact square root
        (F(3, 10), "slab", "strip"),  # the constant 1
    )

    @pytest.mark.parametrize("bits", range(71))
    def test_enclosure_width_is_at_most_2_to_minus_bits(self, bits):
        def check(value, power, target):
            """``value`` encloses ``target^(1/power)``, at most 2^-bits wide."""
            lo, hi = (value.lo, value.hi) if isinstance(value, Enclosure) else (value, value)
            assert 0 <= lo and lo**power <= target <= hi**power
            assert hi - lo <= F(1, 2**bits)

        for v, kind, kind2d in self.BRANCHES:
            e = profile(v, bits=bits)
            assert kind in e.kinds
            if kind == "cube":
                check(e.value, 3, 27 * v * v)  # (3 V^(2/3))^3 = 27 V^2
            elif kind == "tube":
                check(e.value, 2, 4 * v)  # (2 V^(1/2))^2 = 4 V
            else:
                assert e.value == 1
            e = profile2d(v, bits=bits)
            assert kind2d in e.kinds
            if kind2d == "square":
                check(e.value, 2, 4 * v)
            else:
                assert e.value == 1

    def test_strip_branches(self):
        v, kinds = strip_profile2d(HALF, F(1, 8))
        assert kinds == frozenset({"square"})
        assert isinstance(v, Enclosure) and v.lo**2 <= HALF <= v.hi**2
        v, kinds = strip_profile2d(HALF, F(3, 8))
        assert (v, kinds) == (1, frozenset({"strip"}))
        v, kinds = strip_profile2d(F(3, 4), F(5, 8))
        assert v == 1 and "strip" in kinds
        with pytest.raises(DomainError):
            strip_profile2d(HALF, F(3, 5))  # volume exceeds the strip


class TestClassify:
    def test_slab_at_half(self):
        res = classify_special(realize("slab", (HALF,)))
        assert res.verdict == "slab"
        assert res.kinds == frozenset({"slab"})

    def test_tube_at_tie_volume(self):
        a = F(8, 27)  # a^2 = V1
        res = classify_special(realize("tube", (a, a)))
        assert res.verdict == "tube"
        assert res.kinds == frozenset({"cube", "tube"})
        assert any("ties with cube" in n for n in res.notes)

    def test_thin_slab_is_beaten(self):
        # a slab far too thin to minimize, with a 100-digit denominator
        x = cs(3, [((0, 0, 0), (F(1, 3 * 10**105), 1, 1))])
        assert classify(x).verdict == "not_minimizer"

    def test_cube_below_tie(self):
        res = classify_special(realize("box", (F(2, 5),) * 3))
        assert res.verdict == "cube"

    def test_stationary_cube_above_tie_is_beaten(self):
        a = HALF  # volume 1/8 > V1: the tube wins
        res = classify_special(realize("box", (a, a, a)))
        assert res.verdict == "not_minimizer"
        assert res.competitor is not None
        assert res.competitor.d_perimeter < 0
        assert res.competitor.d_volume == 0

    def test_uneven_box_not_stationary(self):
        res = classify_special(realize("box", (F(1, 5), F(1, 4), F(1, 3))))
        assert res.verdict == "not_minimizer"
        assert not res.stationarity.stationary

    def test_tripod_gets_rotation_competitor(self):
        res = classify_special(realize("tripod", (F(3, 10),) * 3))
        assert res.verdict == "not_minimizer"
        assert res.competitor.d_perimeter == -F(21, 100)

    def test_l_faced_families_never_win(self):
        for tag, params in (
            ("tri_slab", (F(1, 5), F(1, 5), F(1, 5))),
            ("l_prism", (F(1, 4), F(1, 3), F(3, 5))),
            ("slab_leg", (F(1, 4), F(1, 3), F(1, 2))),
        ):
            res = classify_special(realize(tag, params))
            assert res.verdict == "not_minimizer"
            cert = res.competitor
            assert cert.d_volume == 0 and cert.d_perimeter < 0
            # certificate is checkable by the geometry layer alone
            assert cert.competitor.volume() == cert.original.volume()
            assert (
                cert.competitor.relative_perimeter()
                < cert.original.relative_perimeter()
            )

    def test_classify_wrapper_complement_and_trivial(self):
        res = classify(realize("slab", (F(2, 3),)))
        assert res.verdict == "slab" and res.via_complement
        res = classify(CubicalSet.unit(3))
        assert res.verdict == "trivial"
        res = classify(CubicalSet.empty(3))
        assert res.verdict == "trivial"

    def test_classify_wrapper_reduces_first(self):
        x = cs(3, [((F(1, 4), 0, 0), (HALF, HALF, HALF))])  # not anchored
        res = classify(x)
        assert res.verdict in ("cube", "tube", "slab", "not_minimizer")
        assert any("reduced" in n for n in res.notes)

    def test_minimizer_verdict_matches_profile_sweep(self):
        for k in range(1, 33):
            v = F(k, 64)
            kinds = profile(v).kinds
            if "slab" in kinds:
                assert classify_special(realize("slab", (v,))).verdict == "slab"


class TestUniquenessAudit:
    def test_cube_example(self):
        t = cs(2, [((0, 0), (F(1, 4), F(1, 4)))])
        rep = uniqueness_audit("cube", HALF, t)
        assert rep.strict
        assert rep.perimeter / rep.area == 8 > rep.ratio_bound == 4

    def test_tube_example(self):
        t = cs(2, [((0, 0), (HALF, F(3, 4)))])
        rep = uniqueness_audit("tube", HALF, t)
        assert rep.strict
        assert rep.perimeter == F(5, 4)

    def test_slab_sign_mismatch(self):
        t = cs(2, [((0, 0), (HALF, F(3, 4)))])
        rep = uniqueness_audit("slab", F(2, 5), t)
        assert rep.strict
        assert "positive" in rep.notes[0]

    def test_rejects_improper_piece(self):
        face = cs(2, [((0, 0), (HALF, HALF))])
        with pytest.raises(DomainError):
            uniqueness_audit("cube", HALF, face)
        with pytest.raises(DomainError):
            uniqueness_audit("cube", HALF, CubicalSet.empty(2))


class TestVerdictSweeps:
    def test_cube_verdict_flips_at_v1(self):
        # V1 = (2/3)^6, so cubes win exactly while a^3 <= V1, i.e. a <= 4/9
        for k in range(1, 16):
            a = F(k, 20)
            res = classify_special(realize("box", (a, a, a)))
            if a**3 <= V1:
                assert res.verdict == "cube", a
            else:
                assert res.verdict == "not_minimizer", a
                assert res.competitor.d_perimeter < 0

    def test_tube_verdict_window(self):
        # tubes win exactly for V1 <= a^2 <= V2, i.e. 8/27 <= a <= 1/2
        for k in range(1, 20):
            a = F(k, 27)
            if a * a > F(1, 2):
                break
            res = classify_special(realize("tube", (a, a)))
            expected = "tube" if F(8, 27) <= a <= F(1, 2) else "not_minimizer"
            assert res.verdict == expected, a


def stern_brocot_reference(lo, hi, steps=10_000):
    """The simplest fraction in [lo, hi] by one mediant per step, or None
    when the walk does not finish in ``steps``."""
    a, b, c, d = 0, 1, 1, 0
    for _ in range(steps):
        mid = F(a + c, b + d)
        if mid < lo:
            a, b = mid.numerator, mid.denominator
        elif mid > hi:
            c, d = mid.numerator, mid.denominator
        else:
            return mid
    return None


def test_simplest_matches_stern_brocot_walk():
    rng = random.Random(7)
    cases = [(F(0), F(1, 3)), (F(0), F(5, 2)), (F(2), F(2)), (F(3, 7), F(3, 7)),
             (F(1), F(3)), (F(5, 2), F(4)), (F(7, 2), F(7, 2) + F(1, 10**9))]
    while len(cases) < 2000:
        d = rng.choice([10, 1000, 2**64, 3 * 2**90])
        lo = F(rng.randrange(0, 3 * d), d) if rng.random() < 0.9 else F(0)
        hi = lo + F(rng.randrange(0, 3 * d), d) / rng.choice([1, 7, 2**20])
        if hi > 0:
            cases.append((lo, hi))
    walked = 0
    for lo, hi in cases:
        ref = stern_brocot_reference(lo, hi)
        if ref is not None:
            walked += 1
            assert _simplest(Enclosure(lo, hi)) == ref, (lo, hi)
    assert walked > 1500
    assert _simplest(F(2, 7)) == F(2, 7)
