"""CLI output pinned byte for byte.

``classify``, ``symmetrize``, ``reduce``, ``firstvar`` and ``export-mesh``
run through ``cli.main`` on fixed set files: voxel sets on both sides of
volume 1/2, planted cubes, tubes and slabs under cube isometries, a tripod,
and unions of boxes with prime denominators, one of them past 2^63 in its
denominator product.  ``firstvar`` also runs on the outputs of ``symmetrize`` and
``reduce``.  Every command also runs on malformed set texts, which must end
with a clean message naming what is wrong.  The exit code, standard output
and standard error of every run must equal ``cli_golden.json``.

To rewrite the expected file after a deliberate change of output, run
``PYTHONPATH=src python tests/test_cli_golden.py``, and record the change.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from cubeiso import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
COMMANDS = ("classify", "symmetrize", "reduce", "firstvar", "export-mesh")


def _voxel(res: int, count: int, seed: int) -> dict:
    cells = sorted(random.Random(seed).sample(range(res**3), count))
    return {"dim": 3, "res": res, "cells": cells}


def _cell_boxes(res: int, count: int, seed: int) -> dict:
    """One box per cell of a random voxel set, as a set file."""
    boxes = []
    for c in random.Random(seed).sample(range(res**3), count):
        lo = (c // (res * res), c // res % res, c % res)
        boxes.append({
            "lo": [f"{a}/{res}" for a in lo],
            "hi": [f"{a + 1}/{res}" for a in lo],
        })
    return {"dim": 3, "boxes": boxes}


def _boxes(*pairs) -> dict:
    return {"dim": 3, "boxes": [{"lo": list(lo), "hi": list(hi)} for lo, hi in pairs]}


# per-axis denominators: primes, and products of a prime below 2^14 and one near 2^14
PRIMES = (8191, 4099, 101)
PRODUCTS = (8191 * 16381, 4099 * 16369, 2053 * 16361)


def _cut(den: int, num: int, by: int) -> str:
    """``floor(den * num / by) / den`` as a string."""
    return f"{den * num // by}/{den}"


def _union(dens) -> dict:
    """Three overlapping boxes cut at fractions of each axis's denominator."""
    a, b, c = dens
    return _boxes(
        (("0", "0", "0"), (_cut(a, 1, 2), _cut(b, 3, 4), _cut(c, 1, 3))),
        ((_cut(a, 1, 5), "0", "0"), (_cut(a, 2, 3), _cut(b, 1, 3), _cut(c, 3, 5))),
        (("0", _cut(b, 1, 7), _cut(c, 1, 2)), (_cut(a, 1, 4), _cut(b, 1, 2), _cut(c, 4, 5))),
    )


SETS = {
    "voxel_m4": _voxel(4, 20, 1),
    "voxel_m5_above_half": _cell_boxes(5, 80, 2),
    "voxel_m6": _cell_boxes(6, 70, 3),
    "cube_flipped": _boxes((("3/5", "0", "3/5"), ("1", "2/5", "1"))),
    "tube_turned": _boxes((("0", "0", "2/3"), ("1/3", "1", "1"))),
    "slab_complement": _boxes((("0", "0", "0"), ("1", "1", "5/8"))),
    "tripod": _boxes(
        (("0", "0", "0"), ("3/10", "3/10", "1")),
        (("0", "0", "0"), ("3/10", "1", "3/10")),
        (("0", "0", "0"), ("1", "3/10", "3/10")),
    ),
    "prime_union": _union(PRIMES),
    "prime_union_past_2_63": _union(PRODUCTS),
}


def _box_texts(*boxes) -> str:
    return json.dumps({"dim": 3, "boxes": list(boxes)})


# over MAX_GRID_CELLS: 300 boxes with distinct cuts span 301^3 cells
_FINE = [{"lo": [f"{k}/1000"] * 3, "hi": [f"{k + 1}/1000"] * 3} for k in range(300)]

MALFORMED = {
    "degenerate_before_unparsable": _box_texts(
        {"lo": ["1/2", 0, 0], "hi": ["2/4", 1, 1]},
        {"lo": ["1/x", 0, 0], "hi": [1, 1, 1]},
    ),
    "outside_unit_cube": _box_texts({"lo": ["-1/3", 0, 0], "hi": ["1/2", 1, 1]}),
    "lo_hi_lengths_differ": _box_texts({"lo": [0, 0], "hi": [1, 1, 1]}),
    "box_of_wrong_dim": _box_texts(
        {"lo": [0, 0, 0], "hi": ["1/2", 1, 1]}, {"lo": [0, 0], "hi": [1, "1/2"]}
    ),
    "grid_over_budget": _box_texts(*_FINE),
    "entry_not_an_object": _box_texts({"lo": [0, 0, 0], "hi": [1, 1, "1/2"]}, ["0", "1"]),
}


def _run(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_all(workdir: Path) -> dict:
    """Every command on every set and malformed text, and ``firstvar`` on
    the outputs of ``symmetrize`` and ``reduce``."""
    results = {}
    for name, obj in SETS.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        runs = {command: _run([command, str(path)]) for command in COMMANDS}
        for command in ("symmetrize", "reduce"):
            if runs[command]["exit"] == 0:
                made = workdir / f"{name}.{command}.json"
                made.write_text(runs[command]["stdout"], encoding="utf-8")
                runs[f"firstvar_after_{command}"] = _run(["firstvar", str(made)])
        results[name] = runs
    for name, text in MALFORMED.items():
        path = workdir / f"{name}.json"
        path.write_text(text + "\n", encoding="utf-8")
        results[name] = {command: _run([command, str(path)]) for command in COMMANDS}
    return results


def test_cli_output_is_pinned(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = run_all(tmp_path)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert sorted(actual[name]) == sorted(expected[name]), name
        for run, want in expected[name].items():
            assert actual[name][run] == want, (name, run)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        text = json.dumps(run_all(Path(tmp)), indent=1, sort_keys=True) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN} ({len(text)} bytes)\n")
