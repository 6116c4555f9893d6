"""The acceptance suite: one callable per criterion, exact tolerances.

Every check is exact rational arithmetic or a certified comparison; nothing
is asserted to a floating-point tolerance.  ``run_all`` executes the whole
suite and is what both ``cubeiso verify`` and the pytest acceptance module
drive.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .classify import (
    V1,
    V2,
    Infeasible,
    competitor,
    profile,
    stationary_parameters,
    strip_profile2d,
    uniqueness_audit,
)
from .enclosure import cmp_power, exact_nth_root, poly_root
from .errors import CubeIsoError
from .exhaustive import equality_case_audit
from .geometry import _face_count, _popcount, _steiner, devoxelize, voxelize
from .sampling import random_face_subset, random_monotone_set, random_voxel
from .search import brute_min, brute_min_general, strip_brute_min
from .symmetrize import steiner
from .variation import (
    event_horizon,
    is_special,
    monotone_relative_perimeter,
    reduce_to_special,
    singular_points,
    slice_data,
    translate_slice,
)

DEFAULT_SEED = 20260809
# random inputs drawn by criteria 5, 6, 7 and 10
PROPERTY_SETS = 10_000
VARIATION_SETS = 1000
REDUCTION_SETS = 1000
FACE_PIECES = 1000

F = Fraction
HALF = F(1, 2)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(number, start, failures, detail_ok):
    elapsed = time.perf_counter() - start
    name = next(n for k, n, _ in ALL_CRITERIA if k == number)
    if failures:
        shown = "; ".join(failures[:3])
        more = "" if len(failures) <= 3 else f" (+{len(failures) - 3} more)"
        return CriterionResult(number, name, False, shown + more, elapsed)
    return CriterionResult(number, name, True, detail_ok, elapsed)


# -- 1: exact threshold identities --------------------------------------------


def criterion_1(seed=DEFAULT_SEED) -> CriterionResult:
    start = time.perf_counter()
    failures = []
    r3 = exact_nth_root(V1, 3)
    r2 = exact_nth_root(V1, 2)
    if r3 is None or r2 is None:
        failures.append("threshold roots are not exact rationals")
    else:
        cube_val = 3 * r3 * r3
        tube_val = 2 * r2
        if not (cube_val == tube_val == F(16, 27)):
            failures.append(f"cube/tube tie values {cube_val} vs {tube_val}")
    if 2 * exact_nth_root(V2, 2) != 1:
        failures.append("tube value at the slab tie is not 1")
    e1, e2 = profile(V1), profile(V2)
    if e1.kinds != frozenset({"cube", "tube"}) or e1.value != F(16, 27):
        failures.append(f"profile at the cube/tube tie: {sorted(e1.kinds)}")
    if e2.kinds != frozenset({"tube", "slab"}) or e2.value != 1:
        failures.append(f"profile at the tube/slab tie: {sorted(e2.kinds)}")
    return _result(
        1,
        start,
        failures,
        "3*V1^(2/3) = 2*V1^(1/2) = 16/27 and 2*V2^(1/2) = 1, exactly",
    )


# -- 2: the wall-thickness cubic ----------------------------------------------


def criterion_2(seed=DEFAULT_SEED) -> CriterionResult:
    start = time.perf_counter()
    failures = []
    cubic = [F(2), F(-6), F(6), F(-1)]
    root = poly_root(cubic, F(0), F(3, 10), bits=64)
    if not (0 < root.lo and root.hi <= F(3, 10)):
        failures.append(f"root enclosure [{root.lo},{root.hi}] escapes (0,3/10]")
    if root.width > F(1, 2**64):
        failures.append(f"enclosure width {root.width} exceeds 2^-64")
    for a in (F(0), F(1, 10), F(2, 10), F(3, 10)):
        q = -3 * a * a + 6 * a - 2
        if not q < 0:
            failures.append(f"slab-swap quadratic at {a} is {q}, not negative")
    return _result(
        2,
        start,
        failures,
        f"root in ({float(root.lo):.6f},{float(root.hi):.6f}], width <= 2^-64; "
        "quadratic negative at 0, 1/10, 2/10, 3/10",
    )


# -- 3: competitor certificates -------------------------------------------------


def _sample_tri_slab(rng):
    while True:
        a, b, c = (F(int(rng.integers(1, 11)), 48) for _ in range(3))
        if (1 - a) * (1 - b) * (1 - c) >= HALF:
            return a, b, c


def _sample_slab_leg(rng):
    while True:
        a = F(int(rng.integers(1, 8)), 16)
        b = F(int(rng.integers(1, 15)), 16)
        c = F(int(rng.integers(1, 15)), 16)
        if a + (1 - a) * b * c <= HALF:
            return a, b, c


def criterion_3(seed=DEFAULT_SEED) -> CriterionResult:
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(seed + 3)
    for trial in range(100):
        p = _sample_tri_slab(rng)
        cert = competitor("tri_slab", p)
        if cert.d_volume != 0 or not cert.d_perimeter < 0:
            failures.append(f"tri_slab{p}: dV={cert.d_volume}, dP={cert.d_perimeter}")
    for trial in range(100):
        p = _sample_slab_leg(rng)
        cert = competitor("slab_leg", p)
        if cert.d_volume != 0 or not cert.d_perimeter < 0:
            failures.append(f"slab_leg{p}: dV={cert.d_volume}, dP={cert.d_perimeter}")
    for k in range(1, 101):
        a = F(k, 201)  # a = b = c in (0, 1/2); the delta degenerates at 1/2
        cert = competitor("tripod", (a, a, a))
        if cert.d_volume != 0 or cert.d_perimeter != -(a * (1 - a)):
            failures.append(f"tripod a={a}: dP={cert.d_perimeter} != -a(1-a)")
    return _result(
        3,
        start,
        failures,
        "100 points per L-faced family: dVol = 0 and dRelPer < 0 exactly; "
        "tripod delta is -a(1-a) exactly",
    )


# -- 4: stationarity symmetry ----------------------------------------------------


def criterion_4(seed=DEFAULT_SEED) -> CriterionResult:
    start = time.perf_counter()
    failures = []
    for fam, vols, fact in (
        ("box", (F(1, 8), F(1, 10)), "a=b=c"),
        ("tri_slab", (F(1, 4), F(1, 2)), "a=b=c"),
        ("tripod", (F(1, 8), F(1, 4), F(1, 2)), "a=b=c"),
        ("tube", (F(1, 9), F(1, 4)), "a=b"),
    ):
        for v in vols:
            sp = stationary_parameters(fam, v)
            if isinstance(sp, Infeasible) or fact not in sp.facts:
                failures.append(f"{fam} at V={v}: missing symmetry fact {fact}")
    for v in (F(1, 10), F(1, 4), F(1, 2)):
        sp = stationary_parameters("slab_leg", v)
        if not isinstance(sp, Infeasible):
            failures.append(f"slab_leg at V={v} should be infeasible")
    return _result(
        4,
        start,
        failures,
        "a=b=c for box/tri_slab/tripod, a=b for tube, slab_leg infeasible "
        "at V in {1/10, 1/4, 1/2}",
    )


# -- 5: symmetrization property suite --------------------------------------------


def _steiner_checks(x, dim: int, res: int) -> dict:
    """Criterion 5's checks of one voxel set, by message in message order:
    where each fails, a bool for one mask ``x``, an array for a word array."""
    count, faces = _popcount(x), _face_count(x, dim, res)
    syms = [_steiner(x, dim, res, axis) for axis in range(dim)]
    checks = {}
    for axis, s in enumerate(syms):
        checks[f"volume changed along {axis}"] = _popcount(s) != count
        checks[f"perimeter grew along {axis}"] = _face_count(s, dim, res) > faces
        checks[f"not idempotent along {axis}"] = _steiner(s, dim, res, axis) != s
    for i, j in itertools.permutations(range(dim), 2):
        z = _steiner(syms[i], dim, res, j)
        checks[f"stability broke ({i},{j})"] = _steiner(z, dim, res, i) != z
    return checks


def criterion_5(seed=DEFAULT_SEED) -> CriterionResult:
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(seed + 5)
    drawn, by_shape = [], {}
    for trial in range(PROPERTY_SETS):
        dim = 2 if trial % 2 == 0 else 3
        m = int(rng.integers(2, 9 if dim == 2 else 7))
        drawn.append(random_voxel(rng, dim, m))
        by_shape.setdefault((dim, m), []).append(trial)
    failed: dict[int, list[str]] = {}  # by trial, in message order
    for (dim, m), trials in by_shape.items():
        masks = [drawn[trial].mask for trial in trials]
        if m**dim <= 64:  # one word batch
            checks = _steiner_checks(np.array(masks, dtype=np.uint64), dim, m)
        else:  # the int path, set by set
            per_set = [_steiner_checks(mask, dim, m) for mask in masks]
            checks = {name: np.array([c[name] for c in per_set]) for name in per_set[0]}
        for name, where in checks.items():
            for k in np.flatnonzero(where):
                failed.setdefault(trials[k], []).append(name)
    cross_checked = 0
    for trial, v in enumerate(drawn):
        failures += [f"trial {trial}: {name}" for name in failed.get(trial, ())]
        if trial % (PROPERTY_SETS // 100) == 0 and v.res <= 5:
            x = devoxelize(v)
            for axis in range(v.dim):
                if voxelize(steiner(x, axis), v.res) != v.steiner(axis):
                    failures.append(f"trial {trial}: voxel/exact paths disagree")
            cross_checked += 1
        if len(failures) > 8:
            break
    for dim, m in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        out = equality_case_audit(dim, m, limit=4, stop_after=4)
        if out.violations:
            cells = out.violations[0].flat_indices()
            failures.append(
                f"equality-case audit (n={dim}, m={m}): perimeter preserved "
                f"without an isometry witness, e.g. cells {cells}"
                + (" [stopped early]" if out.stopped_early else "")
            )
    return _result(
        5,
        start,
        failures,
        f"{PROPERTY_SETS} random sets: exact volume, monotone perimeter, idempotence, "
        f"stability; {cross_checked} cross-checked against the exact kernel; "
        "exhaustive equality-case audit clean",
    )


# -- 6: first-variation exactness -------------------------------------------------


def criterion_6(seed=DEFAULT_SEED) -> CriterionResult:
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(seed + 6)
    slices_checked = 0
    for trial in range(VARIATION_SETS):
        dim = 2 if trial % 2 == 0 else 3
        m = int(rng.integers(3, 6))
        x = random_monotone_set(rng, dim, m)
        base_vol = x.volume()
        base_per = monotone_relative_perimeter(x)
        for axis in range(dim):
            for s in singular_points(x, axis):
                d = slice_data(x, axis, s)
                for sign in (1, -1):
                    step = sign * event_horizon(x, axis, s, sign).distance / 2
                    y = translate_slice(x, axis, s, step)
                    if y.volume() - base_vol != d.area * step:
                        failures.append(
                            f"trial {trial}: volume law broke at ({axis},{s})"
                        )
                    if (
                        monotone_relative_perimeter(y) - base_per
                        != d.signed_measure * step
                    ):
                        failures.append(
                            f"trial {trial}: perimeter law broke at ({axis},{s})"
                        )
                    slices_checked += 1
        if len(failures) > 8:
            break
    return _result(
        6,
        start,
        failures,
        f"{VARIATION_SETS} symmetrized sets, {slices_checked} slice translations: "
        "dVol = area*d and dRelPer = signed_measure*d exactly",
    )


# -- 7: reduction soundness ---------------------------------------------------------


def criterion_7(seed=DEFAULT_SEED) -> CriterionResult:
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(seed + 7)
    total_steps = 0
    for trial in range(REDUCTION_SETS):
        m = int(rng.integers(2, 6))
        x = random_monotone_set(rng, 3, m, max_cells=m**3 // 2)
        try:
            y, log = reduce_to_special(x)
        except CubeIsoError as exc:
            failures.append(f"trial {trial}: reduction failed: {exc}")
            continue
        total_steps += len(log) - 1
        if y.volume() != x.volume():
            failures.append(f"trial {trial}: volume drifted")
        if y.relative_perimeter() > x.relative_perimeter():
            failures.append(f"trial {trial}: perimeter increased")
        if not is_special(y):
            failures.append(f"trial {trial}: output not special")
        if len(failures) > 8:
            break
    return _result(
        7,
        start,
        failures,
        f"{REDUCTION_SETS} monotone sets reduced: special outputs, exact volume, "
        f"perimeter never up; {total_steps} merge/improve steps",
    )


# -- 8: oracle agreement ---------------------------------------------------------------


def _representable_shapes(m: int, k: int, kinds):
    """Canonical voxel shapes realizing a profile argmin kind at (m, k)."""
    out = []
    if "cube" in kinds:
        t = round(k ** (1 / 3))
        for tt in (t - 1, t, t + 1):
            if 0 < tt <= m and tt**3 == k:
                occ = np.zeros((m, m, m), dtype=bool)
                occ[:tt, :tt, :tt] = True
                out.append(("cube", occ))
    if "tube" in kinds:
        t = 1
        while t * t * m <= k:
            if t * t * m == k and t <= m:
                occ = np.zeros((m, m, m), dtype=bool)
                occ[:t, :t, :] = True
                out.append(("tube", occ))
            t += 1
    if "slab" in kinds:
        if k % (m * m) == 0 and 0 < k // (m * m) <= m:
            t = k // (m * m)
            occ = np.zeros((m, m, m), dtype=bool)
            occ[:t, :, :] = True
            out.append(("slab", occ))
    return out


def criterion_8(seed=DEFAULT_SEED) -> CriterionResult:
    from .geometry import VoxelSet

    start = time.perf_counter()
    failures = []
    for m in (2, 3, 4):
        for k in range(0, m * m // 2 + 1):
            a = brute_min(2, m, k).min_perimeter
            b = brute_min_general(2, m, k).min_perimeter
            if a != b:
                failures.append(f"2D m={m} k={k}: monotone {a} vs general {b}")
    for k in range(0, 5):
        a = brute_min(3, 2, k).min_perimeter
        b = brute_min_general(3, 2, k).min_perimeter
        if a != b:
            failures.append(f"3D m=2 k={k}: monotone {a} vs general {b}")
    checked_bounds = 0
    checked_shapes = 0
    for m in (2, 3, 4):
        for k in range(0, m**3 // 2 + 1):
            res = brute_min(3, m, k)
            r = res.min_perimeter
            if k == 0:
                if r != 0:
                    failures.append(f"m={m} k=0: nonzero minimum")
                continue
            v = F(k, m**3)
            entry = profile(v)
            ok = True
            if "slab" in entry.kinds:
                ok = r >= 1
            elif "tube" in entry.kinds:
                ok = cmp_power(F(2), v, 1, 2, r) <= 0  # 2 sqrt(v) <= r
            else:
                ok = cmp_power(F(3), v, 2, 3, r) <= 0  # 3 v^(2/3) <= r
            if not ok:
                failures.append(f"m={m} k={k}: discrete {r} below the profile")
            checked_bounds += 1
            keys = {v2.orbit_key() for v2 in res.minimizers}
            for kind, occ in _representable_shapes(m, k, entry.kinds):
                shape = VoxelSet(m, occ)
                if shape.relative_perimeter() != res.min_perimeter:
                    failures.append(
                        f"m={m} k={k}: canonical {kind} misses the minimum"
                    )
                elif shape.orbit_key() not in keys:
                    failures.append(
                        f"m={m} k={k}: canonical {kind} not among minimizers"
                    )
                checked_shapes += 1
    return _result(
        8,
        start,
        failures,
        "general = monotone minima (2D m<=4; 3D m=2); "
        f"{checked_bounds} profile lower bounds certified (3D m<=4); "
        f"{checked_shapes} representable argmin shapes attained",
    )


# -- 9: confined-strip sub-problem ---------------------------------------------------


def criterion_9(seed=DEFAULT_SEED) -> CriterionResult:
    start = time.perf_counter()
    failures = []
    checked = 0
    for m in (4, 6):
        for a_cells in range(1, m):
            a = F(a_cells, m)
            for k in range(1, a_cells * m + 1):
                v = F(k, m * m)
                value, kinds = strip_profile2d(a, v)
                representable = False
                if "square" in kinds:
                    t = int(round(k**0.5))
                    if t * t == k and t <= a_cells:
                        representable = True
                if "strip" in kinds and k % m == 0:
                    representable = True
                if "rect" in kinds and k % a_cells == 0:
                    representable = True
                if not representable:
                    continue
                got = strip_brute_min(m, a_cells, k)
                if isinstance(value, Fraction):
                    expected = value
                else:  # exact square branch values are rational when k = t^2
                    failures.append(f"m={m} a={a} k={k}: value not rational")
                    continue
                if got != expected:
                    failures.append(
                        f"m={m} a={a} k={k}: discrete {got} vs profile {expected}"
                    )
                checked += 1
    return _result(
        9,
        start,
        failures,
        f"{checked} grid-representable strip volumes match the confined "
        "profile exactly (m = 4 and 6)",
    )


# -- 10: uniqueness audits --------------------------------------------------------------


def criterion_10(seed=DEFAULT_SEED) -> CriterionResult:
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(seed + 10)
    for trial in range(FACE_PIECES):
        kind = "cube" if trial % 2 == 0 else "tube"
        a = F(int(rng.integers(1, 33)), 64)  # a in (0, 1/2]
        res = int(rng.integers(2, 5))
        if kind == "cube":
            t = random_face_subset(rng, a, a, res)
        else:
            t = random_face_subset(rng, a, F(1), res)
        rep = uniqueness_audit(kind, a, t)
        if not rep.strict:
            failures.append(
                f"trial {trial}: {kind} ratio {rep.perimeter}/{rep.area} "
                f"not above {rep.ratio_bound}"
            )
        if len(failures) > 8:
            break
    return _result(
        10,
        start,
        failures,
        f"{FACE_PIECES} proper face pieces: cube ratio > 2/a and tube ratio > 1/a, "
        "certified",
    )


ALL_CRITERIA: list[tuple[int, str, Callable]] = [
    (1, "exact threshold identities", criterion_1),
    (2, "wall-thickness cubic and slab-swap quadratic", criterion_2),
    (3, "competitor certificates", criterion_3),
    (4, "stationarity symmetry and infeasibility", criterion_4),
    (5, "symmetrization property suite", criterion_5),
    (6, "first-variation exactness", criterion_6),
    (7, "reduction soundness", criterion_7),
    (8, "oracle agreement", criterion_8),
    (9, "confined-strip sub-problem", criterion_9),
    (10, "uniqueness ratio audits", criterion_10),
]


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [fn(seed) for _, _, fn in ALL_CRITERIA]


def run_one(number: int, seed: int = DEFAULT_SEED) -> CriterionResult:
    for num, _, fn in ALL_CRITERIA:
        if num == number:
            return fn(seed)
    raise KeyError(f"no criterion {number}")
