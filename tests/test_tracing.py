"""The benchmark's tracer still finds the functions it hooks.

``perfbench/tracing.py`` wraps private functions of the program by name and
reads their arguments (``_canonicalize``'s boxes).  A traced ``classify`` on
a voxel file and on a file with large prime denominators, each of whose
reductions merges two slices, and on a planted cube, whose profile brackets a
square root, must fire those hooks and yield metrics.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

LAYERS = (
    "geometry", "symmetrize", "variation", "classify", "enclosure",
    "search", "exhaustive", "formats", "cli",
)
HOOKED = (
    "geometry._canonicalize", "variation._slice_from_profile", "variation._merge_step_full",
    "enclosure.nth_root", "enclosure.bisect_enclosure",
)


def _is_cubeiso(name: str) -> bool:
    return name == "cubeiso" or name.startswith("cubeiso.")


def test_tracer_hooks_fire_on_classify(tmp_path):
    # pool items whose reductions each take one merge step, and a planted
    # cube, whose profile brackets a square root
    inputs = {
        "grid": workloads.grid_item(3, 0.32, 2),
        "rational": workloads.rational_item(4, False, 8),
        "planted": [((Fraction(0),) * 3, (Fraction(2, 7),) * 3)],
    }
    saved = {n: m for n, m in sys.modules.items() if _is_cubeiso(n)}
    for name in saved:
        del sys.modules[name]
    try:
        mods = {layer: importlib.import_module(f"cubeiso.{layer}") for layer in LAYERS}
        tracer = tracing.Tracer()
        tracer.install(mods)
        try:
            for name, boxes in inputs.items():
                path = tmp_path / f"{name}.json"
                workloads._write_set(path, boxes)
                tracer.op(name, lambda: workloads._cli_call(mods["cli"], ["classify", str(path)]))
        finally:
            tracer.uninstall()
    finally:
        for name in [n for n in sys.modules if _is_cubeiso(n)]:
            del sys.modules[name]
        sys.modules.update(saved)
    metrics = tracer.metrics()
    for label in HOOKED:
        assert tracer.by_function[label]["calls"] > 0, label
    assert metrics["variation.merge_steps"]["value"] == 2
    assert metrics["geometry.max_boxes"]["value"] > 0
    assert metrics["geometry.max_grid_cells"]["value"] >= 8
    assert metrics["geometry.max_denominator_bits"]["value"] >= 12
