"""Seeded inputs, operations and output checks of the three workloads.

A workload is a fixed list of operations built from the seed.  The runner
times whole rounds of that list; every output is checked afterwards by
:mod:`checker`, never against a stored copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checker

# Random inputs come from fixed pools: item j of a class is drawn from a
# random generator seeded with the class and j; the seed picks the items and
# shuffles the boxes of each file.  Every pool item was run once through
# ``cubeiso classify`` and none fails, so no operation fails on some seeds
# only.
POOL_SIZE = 40

# classify_grid: random voxel sets at fixed densities per resolution, on
# both sides of V = 1/2, and grid-aligned cubes, tubes and slabs under random
# cube isometries.  Fixed densities keep a round's cost nearly the same for
# every seed; only the cells drawn change.
GRID_RESOLUTIONS = range(3, 9)
GRID_DENSITIES = (0.08, 0.2, 0.32, 0.44, 0.56, 0.68, 0.8, 0.92)
GRID_PLANTED_PER_KIND = 4

# classify_rational: unions of 2-8 boxes cut at three interior positions per
# axis with one prime denominator per axis, and planted shapes with side
# k/(p*q) and their complements.  The primes lie in [2^12, 2^14), so every
# set's common denominator D has D^3 > 2^62, while the integer roots that
# the profile takes of volume numerators and denominators stay below 2^53,
# where the float seed of enclosure.iroot is still close.
RATIONAL_BOX_COUNTS = range(2, 9)
RATIONAL_SETS_PER_SIDE = 10
RATIONAL_CUTS_PER_AXIS = 3
PRIME_RANGE = (1 << 12, 1 << 14)
# Side a of planted shapes: one window where the planted kind minimizes and
# I(V) is rational, one past its threshold where I(V) is irrational.
PLANTED_WINDOWS = {
    "cube": ((Fraction(3, 10), Fraction(4, 9)), (Fraction(4, 9), Fraction(1, 2))),
    "tube": ((Fraction(8, 27), Fraction(1, 2)), (Fraction(1, 5), Fraction(8, 27))),
    "slab": ((Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 20), Fraction(1, 4))),
}

# lattice: the oracle at both exhaustive resolutions, criterion 5's audits,
# and batches of random voxel sets through VoxelSet.steiner / face_count.
SEARCH_RESOLUTIONS = (3, 4)
AUDITS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))
AUDIT_LIMIT = 4
AUDIT_STOP_AFTER = 4
# Every batch holds the same grid shapes, three random sets of each; 25
# operations a round put the 90th percentile on the audit of the 4 x 4 grid.
VOXEL_BATCHES = 18
VOXEL_SHAPES = tuple((2, m) for m in range(2, 9)) + tuple((3, m) for m in range(2, 7))
VOXEL_SETS_PER_SHAPE = 3


class OpFailed(Exception):
    """The program ended an operation with an error."""


@dataclass
class Op:
    """One timed call.  ``run`` returns the raw output, ``freeze`` turns it
    into a hashable value after timing, and ``check`` raises
    :class:`checker.CheckError` on a wrong frozen output."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    freeze: Callable[[object], object] = lambda out: out


@dataclass
class Workload:
    ops: list
    warm_up: Callable[[], None]


def _cli_call(cli, argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"cubeiso {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _write_set(path: Path, boxes) -> None:
    obj = {
        "dim": 3,
        "boxes": [
            {"lo": [str(c) for c in lo], "hi": [str(c) for c in hi]}
            for lo, hi in boxes
        ],
    }
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


def _classify_op(mods, kind: str, path: Path, boxes, planted) -> Op:
    measures = []  # the checker's volume and perimeter, computed once

    def check(text: str) -> None:
        if not measures:
            measures.append(checker.box_union_measures(3, boxes))
        volume, perimeter = measures[0]
        checker.check_classification(volume, perimeter, json.loads(text), planted)

    return Op(kind, lambda: _cli_call(mods.cli, ["classify", str(path)]), check)


def _planted_boxes(rng: random.Random, kind: str, a: Fraction, complement: bool):
    zero, one = Fraction(0), Fraction(1)
    hi = {"cube": (a, a, a), "tube": (a, a, one), "slab": (a, one, one)}[kind]
    perm, flips = rng.choice(list(checker.signed_permutations(3)))
    box = checker.map_box(((zero,) * 3, hi), perm, flips)
    return checker.box_complement(3, box) if complement else [box]


def _classify_workload(mods, workdir: Path, inputs) -> Workload:
    """``inputs``: ``(kind, boxes, planted)`` per operation."""
    ops = []
    for k, (kind, boxes, planted) in enumerate(inputs):
        path = workdir / f"set{k:03d}.json"
        _write_set(path, boxes)
        ops.append(_classify_op(mods, kind, path, boxes, planted))
    warm = workdir / "warm.json"
    third = Fraction(1, 3)
    _write_set(warm, [((0, 0, 0), (third, third, third))])
    return Workload(ops, lambda: _cli_call(mods.cli, ["classify", str(warm)]))


def grid_item(m: int, density: float, item: int) -> list:
    """Pool item: ``round(density * m^3)`` random cells of the m-grid, as
    one box per cell."""
    n = m**3
    boxes = []
    for c in random.Random(f"grid-{m}-{density}-{item}").sample(range(n), round(density * n)):
        lo = (Fraction(c // (m * m), m), Fraction(c // m % m, m), Fraction(c % m, m))
        boxes.append((lo, tuple(x + Fraction(1, m) for x in lo)))
    return boxes


def classify_grid(mods, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    inputs = []
    for m in GRID_RESOLUTIONS:
        for density in GRID_DENSITIES:
            boxes = grid_item(m, density, rng.randrange(POOL_SIZE))
            rng.shuffle(boxes)
            inputs.append(("classify", boxes, None))
    for kind in ("cube", "tube", "slab"):
        for _ in range(GRID_PLANTED_PER_KIND):
            m = rng.choice(GRID_RESOLUTIONS)
            a = Fraction(rng.randint(1, m // 2), m)
            inputs.append(("classify_planted", _planted_boxes(rng, kind, a, False), (kind, a)))
    return _classify_workload(mods, workdir, inputs)


def _primes(lo: int, hi: int) -> list:
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(lo, hi) if sieve[p]]


PRIMES = _primes(*PRIME_RANGE)


def rational_item(n_boxes: int, high: bool, item: int) -> list:
    """Pool item: boxes on three cuts k/p per axis (one prime p per axis),
    drawn until the volume lies on the wanted side of 1/2 and D^3 > 2^62."""
    rng = random.Random(f"rational-{n_boxes}-{high}-{item}")
    zero, one = Fraction(0), Fraction(1)
    while True:
        ps = rng.sample(PRIMES, 3)
        grids = [
            [zero] + [Fraction(k, p) for k in sorted(rng.sample(range(1, p), RATIONAL_CUTS_PER_AXIS))] + [one]
            for p in ps
        ]
        boxes = []
        for _ in range(n_boxes):
            lo, hi = [], []
            for g in grids:
                i, j = sorted(rng.sample(range(len(g)), 2))
                if high:
                    i, j = 0, max(j, len(g) // 2)
                lo.append(g[i])
                hi.append(g[j])
            boxes.append((tuple(lo), tuple(hi)))
        volume, _ = checker.box_union_measures(3, boxes)
        denominator = math.lcm(*(c.denominator for b in boxes for c in b[0] + b[1]))
        if 0 < volume < 1 and (volume > checker.HALF) == high and denominator**3 > 1 << 62:
            return boxes


def classify_rational(mods, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    inputs = []
    for n_boxes in RATIONAL_BOX_COUNTS:
        for high in (False, True):
            for item in rng.sample(range(POOL_SIZE), RATIONAL_SETS_PER_SIDE):
                boxes = rational_item(n_boxes, high, item)
                rng.shuffle(boxes)
                inputs.append(("classify", boxes, None))
    for kind, windows in PLANTED_WINDOWS.items():
        for lo, hi in windows:
            for complement in (False, True):
                p, q = rng.sample(PRIMES, 2)
                d = p * q
                k = d
                while math.gcd(k, d) != 1:
                    k = rng.randint(math.ceil(lo * d), math.floor(hi * d))
                a = Fraction(k, d)
                inputs.append(("classify_planted", _planted_boxes(rng, kind, a, complement), (kind, a)))
    return _classify_workload(mods, workdir, inputs)


def _search_op(mods, res: int, minima: dict) -> Op:
    sweep = mods.search.brute_sweep  # the cache every fresh process starts without

    def run() -> str:
        sweep.cache_clear()
        return _cli_call(mods.cli, ["search", "--dim", "3", "--res", str(res), "--all-k"])

    def check(text: str) -> None:
        if res not in minima:
            minima[res] = checker.monotone_minima(res)
        checker.check_search(3, res, text, minima[res])

    return Op(f"search_r{res}", run, check)


def _audit_op(mods, dim: int, res: int, counts: dict) -> Op:
    def freeze(outcome):
        return (
            outcome.checked,
            outcome.perimeter_preserving,
            tuple(tuple(v.flat_indices()) for v in outcome.violations),
            outcome.stopped_early,
        )

    def check(frozen) -> None:
        full = None  # the 3 x 3 x 3 grid's 2^27 subsets are too many to count here
        if not frozen[3] and (dim, res) != (3, 3):
            if (dim, res) not in counts:
                counts[dim, res] = checker.preserving_count(dim, res)
            full = counts[dim, res]
        checker.check_audit(dim, res, AUDIT_LIMIT, AUDIT_STOP_AFTER, frozen, full)

    return Op(
        f"audit_{dim}d_m{res}",
        lambda: mods.exhaustive.equality_case_audit(
            dim, res, limit=AUDIT_LIMIT, stop_after=AUDIT_STOP_AFTER
        ),
        check,
        freeze,
    )


def _voxel_batch_op(mods, rng: random.Random) -> Op:
    sets, inputs = [], []
    for dim, res in VOXEL_SHAPES * VOXEL_SETS_PER_SHAPE:
        flat = [i for i in range(res**dim) if rng.random() < 0.5]
        occ = np.zeros(res**dim, dtype=bool)
        occ[flat] = True
        sets.append(mods.geometry.VoxelSet(res, occ.reshape((res,) * dim)))
        inputs.append((dim, res, flat))

    def run():
        out = []
        for v in sets:
            images = [v.steiner(axis) for axis in range(v.dim)]
            out.append((v.count(), v.face_count(), [(s, s.count(), s.face_count()) for s in images]))
        return out

    def freeze(out):
        return tuple(
            (count, faces, tuple((tuple(s.flat_indices()), c, f) for s, c, f in per_axis))
            for count, faces, per_axis in out
        )

    return Op("voxel_batch", run, lambda frozen: checker.check_voxel_batch(inputs, frozen), freeze)


def lattice(mods, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    minima, counts = {}, {}
    ops = [_search_op(mods, res, minima) for res in SEARCH_RESOLUTIONS]
    ops += [_audit_op(mods, dim, res, counts) for dim, res in AUDITS]
    ops += [_voxel_batch_op(mods, rng) for _ in range(VOXEL_BATCHES)]
    # Warm up on every kind of operation but the two that take seconds (the
    # m = 4 search and the 3 x 3 x 3 audit), with inputs that do not depend
    # on the seed.
    warm_ops = [_search_op(mods, 3, {})]
    warm_ops += [_audit_op(mods, dim, res, {}) for dim, res in AUDITS if (dim, res) != (3, 3)]
    warm_ops.append(_voxel_batch_op(mods, random.Random(0)))
    return Workload(ops, lambda: [op.run() for op in warm_ops])


BY_NAME = {
    "classify_grid": classify_grid,
    "classify_rational": classify_rational,
    "lattice": lattice,
}
