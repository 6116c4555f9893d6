"""Byte-deterministic serialization: JSON set/voxel formats and OBJ export.

Set format::

    {"dim": n, "boxes": [{"hi": ["p/q", ...], "lo": ["p/q", ...]}, ...]}

Voxel format::

    {"cells": [flat indices, ascending], "dim": n, "res": m}

Keys are sorted, boxes appear in canonical order, rationals are exact
strings, so serializing the same set always yields the same bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from .errors import DomainError, FormatError, RationalParseError
from .geometry import MAX_GRID_CELLS, AxisBox, CubicalSet, VoxelSet, boundary_faces

MAX_DIM = 32  # arrays hold at most 32 axes before NumPy 2.0 (64 from 2.0)
MAX_VOXEL_CELLS = MAX_GRID_CELLS  # res**dim of the largest voxel file read

__all__ = [
    "rat_to_str",
    "parse_rat",
    "set_to_json",
    "set_from_json",
    "voxel_to_json",
    "voxel_from_json",
    "export_obj",
]


def rat_to_str(q: Fraction) -> str:
    return str(q)


def parse_rat(text, where: str = "") -> Fraction:
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise RationalParseError(repr(text), where)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise RationalParseError(str(text), where) from None


def set_to_json(x: CubicalSet) -> str:
    obj = {
        "dim": x.dim,
        "boxes": [
            {
                "lo": [rat_to_str(c) for c in b.lo],
                "hi": [rat_to_str(c) for c in b.hi],
            }
            for b in x.boxes
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ": ")) + "\n"


def _json_object(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except RecursionError:
        raise FormatError(f"a {what} file nests its JSON too deeply to read") from None
    if not isinstance(obj, dict):
        raise FormatError(f"a {what} file holds a JSON object, not {type(obj).__name__}")
    return obj


_KINDS = {int: "a positive integer", list: "a list"}


def _field(obj: dict, key: str, kind: type, where: str = "", most=None):
    """``obj[key]``, which must be present, of the given kind and, for an
    integer, at most ``most`` when given."""
    where = where or key
    if key not in obj:
        raise FormatError(f"missing field {where!r}")
    value = obj[key]
    if type(value) is not kind or (kind is int and not 1 <= value <= (most or value)):
        bound = f" up to {most}" if most else ""
        raise FormatError(f"field {where!r} must be {_KINDS[kind]}{bound}, got {value!r}")
    return value


def _coords(entry: dict, key: str, where: str, parsed: dict) -> tuple:
    """The coordinates ``entry[key]``; ``parsed`` maps each coordinate
    string already read from this file to its value."""
    values = _field(entry, key, list, f"{where}.{key}")
    out = []
    for i, c in enumerate(values):
        if type(c) is not str:  # numbers are not memoized: True == 1
            out.append(parse_rat(c, f"{where}.{key}[{i}]"))
            continue
        if c not in parsed:
            parsed[c] = parse_rat(c, f"{where}.{key}[{i}]")
        out.append(parsed[c])
    return tuple(out)


def set_from_json(text: str) -> CubicalSet:
    obj = _json_object(text, "set")
    dim = _field(obj, "dim", int, most=MAX_DIM)
    boxes = []
    parsed: dict = {}  # a file spells few distinct coordinates
    for k, entry in enumerate(_field(obj, "boxes", list) if "boxes" in obj else []):
        where = f"boxes[{k}]"
        if type(entry) is not dict:
            raise FormatError(f"field {where!r} must be an object, got {entry!r}")
        lo = _coords(entry, "lo", where, parsed)
        boxes.append(AxisBox(lo, _coords(entry, "hi", where, parsed)))
    try:
        return CubicalSet.from_boxes(dim, boxes)
    except DomainError as exc:  # the grid of the boxes is over budget
        raise FormatError(f"field 'boxes': {exc}") from None


def voxel_to_json(v: VoxelSet) -> str:
    obj = {"dim": v.dim, "res": v.res, "cells": v.flat_indices()}
    return json.dumps(obj, sort_keys=True, separators=(",", ": ")) + "\n"


def voxel_from_json(text: str) -> VoxelSet:
    obj = _json_object(text, "voxel")
    dim, res = _field(obj, "dim", int, most=MAX_DIM), _field(obj, "res", int)
    if res**dim > MAX_VOXEL_CELLS:
        raise FormatError(f"field 'res' gives {res}**{dim} cells, above {MAX_VOXEL_CELLS}")
    cells = _field(obj, "cells", list)
    bad = [i for i in cells if type(i) is not int]
    if bad:
        raise FormatError(f"field 'cells' must hold integers, got {bad[0]!r}")
    return VoxelSet.from_indices(dim, res, cells)


def load_set(path: str) -> CubicalSet:
    """Read either a set file or a voxel file, returning a CubicalSet."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from None
    if "res" in _json_object(text, "set or voxel"):
        return voxel_from_json(text).to_cubical()
    try:
        return set_from_json(text)
    except RationalParseError as exc:
        raise FormatError(
            f"field {exc.where!r} must hold a rational p/q, got {exc.text!r}"
        ) from None


# -- OBJ mesh export --------------------------------------------------------


def _vertex_str(c: Fraction) -> str:
    return f"{float(c):.9f}"


def export_obj(x: CubicalSet) -> str:
    """Wavefront OBJ of the interior boundary, plus the cube wireframe.

    Each rectangular boundary face is triangulated along its
    lexicographically smaller diagonal.  Only dimension 3 is supported.
    """
    if x.dim != 3:
        raise DomainError("OBJ export requires a 3-dimensional set")
    vertices: dict[tuple, int] = {}
    lines = ["# cubeiso mesh: interior boundary faces + cube wireframe"]

    def vid(p: tuple) -> int:
        if p not in vertices:
            vertices[p] = len(vertices) + 1
        return vertices[p]

    triangles = []
    for axis, s, region in boundary_faces(x):
        for b in region.boxes:
            (u0, v0), (u1, v1) = b.lo, b.hi
            corners2d = [(u0, v0), (u1, v0), (u1, v1), (u0, v1)]
            quad = []
            for u, v in corners2d:
                p = [None, None, None]
                p[axis] = s
                others = [k for k in range(3) if k != axis]
                p[others[0]], p[others[1]] = u, v
                quad.append(tuple(p))
            # cyclic corners; candidate diagonals (0,2) and (1,3)
            d02 = tuple(sorted((quad[0], quad[2])))
            d13 = tuple(sorted((quad[1], quad[3])))
            if d02 <= d13:
                triangles.append((quad[0], quad[1], quad[2]))
                triangles.append((quad[0], quad[2], quad[3]))
            else:
                triangles.append((quad[1], quad[2], quad[3]))
                triangles.append((quad[1], quad[3], quad[0]))

    tri_ids = [tuple(vid(p) for p in t) for t in triangles]
    corners = [
        (Fraction(a), Fraction(b), Fraction(c))
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
    ]
    corner_ids = [vid(p) for p in corners]
    edges = []
    for i, p in enumerate(corners):
        for j in range(i + 1, 8):
            if sum(a != b for a, b in zip(p, corners[j])) == 1:
                edges.append((corner_ids[i], corner_ids[j]))

    for p in vertices:  # insertion order == id order
        lines.append("v " + " ".join(_vertex_str(c) for c in p))
    for t in tri_ids:
        lines.append(f"f {t[0]} {t[1]} {t[2]}")
    for a, b in edges:
        lines.append(f"l {a} {b}")
    return "\n".join(lines) + "\n"
