"""Serialization round trips, OBJ export, and the CLI surface."""

import itertools
import json
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

from cubeiso import cli
from cubeiso.classify import realize
from cubeiso.errors import DomainError, FormatError, RationalParseError
from cubeiso.formats import (
    MAX_VOXEL_CELLS,
    export_obj,
    load_set,
    parse_rat,
    set_from_json,
    set_to_json,
    voxel_from_json,
    voxel_to_json,
)
from cubeiso.geometry import CubicalSet, VoxelSet, voxelize

HALF = F(1, 2)


def cs(dim, pairs):
    return CubicalSet.from_coords(dim, pairs)


class TestJson:
    def test_set_roundtrip_is_byte_stable(self):
        x = cs(2, [((0, 0), (HALF, 1)), ((0, 0), (1, F(1, 3)))])
        text = set_to_json(x)
        assert set_from_json(text) == x
        assert set_to_json(set_from_json(text)) == text

    def test_rationals_as_strings(self):
        x = cs(1, [((F(1, 3),), (F(2, 3),))])
        obj = json.loads(set_to_json(x))
        assert obj["boxes"][0]["lo"] == ["1/3"]

    def test_voxel_roundtrip(self):
        v = voxelize(cs(2, [((0, 0), (HALF, HALF))]), 4)
        text = voxel_to_json(v)
        assert voxel_from_json(text) == v
        assert json.loads(text)["cells"] == sorted(json.loads(text)["cells"])

    def test_parse_errors_carry_position(self):
        with pytest.raises(RationalParseError) as exc:
            set_from_json('{"dim": 1, "boxes": [{"lo": ["1/0"], "hi": ["1"]}]}')
        assert "boxes[0].lo[0]" in str(exc.value)
        with pytest.raises(RationalParseError):
            parse_rat("x/y")

    def test_malformed_structure_names_the_field(self):
        for text, field in (
            ('{"dim": 2, "boxes": [[0, 1]]}', "'boxes[0]'"),
            ('{"dim": 2, "boxes": [{"lo": "0", "hi": ["1", "1"]}]}', "'boxes[0].lo'"),
            ('{"dim": 0, "boxes": []}', "'dim'"),
        ):
            with pytest.raises(FormatError, match=re.escape(field)):
                set_from_json(text)
        for text, field in (
            ('{"dim": 2, "cells": []}', "'res'"),
            ('{"dim": 2, "res": 2, "cells": [0, "1"]}', "'cells'"),
            ('{"dim": 2, "res": 2, "cells": [true]}', "'cells'"),
        ):
            with pytest.raises(FormatError, match=re.escape(field)):
                voxel_from_json(text)

    def test_voxel_budget_checked_before_allocation(self, monkeypatch):
        def allocate(*args):
            raise AssertionError("allocated an oversized voxel grid")

        monkeypatch.setattr(VoxelSet, "from_indices", allocate)
        with pytest.raises(FormatError, match="'res'"):
            voxel_from_json('{"dim": 3, "res": 1000000000, "cells": [0]}')
        with pytest.raises(FormatError, match=str(MAX_VOXEL_CELLS)):
            voxel_from_json(f'{{"dim": 1, "res": {MAX_VOXEL_CELLS + 1}, "cells": []}}')


class TestObj:
    def test_half_cube_mesh(self):
        x = realize("box", (HALF, HALF, HALF))
        text = export_obj(x)
        lines = text.splitlines()
        faces = [l for l in lines if l.startswith("f ")]
        wires = [l for l in lines if l.startswith("l ")]
        assert len(faces) == 6  # three interior quads, two triangles each
        assert len(wires) == 12  # cube wireframe

    def test_deterministic(self):
        x = realize("tripod", (F(3, 10),) * 3)
        assert export_obj(x) == export_obj(x)

    def test_rejects_2d(self):
        with pytest.raises(DomainError):
            export_obj(cs(2, [((0, 0), (HALF, HALF))]))


def run_cli(*args, data=None):
    return subprocess.run(
        [sys.executable, "-m", "cubeiso.cli", *args],
        capture_output=True,
        text=True,
        input=data,
    )


class TestCli:
    def test_profile_single_volume(self):
        out = run_cli("profile", "--volume", "64/729")
        assert out.returncode == 0
        assert "cube+tube" in out.stdout
        assert "V1" in out.stdout

    def test_profile_range_row_count(self):
        out = run_cli("profile", "--range", "1/100", "1/2", "--step", "1/100")
        assert out.returncode == 0
        rows = out.stdout.strip().splitlines()
        assert len(rows) == 51  # header + 50 volumes

    def test_profile_rejects_bad_volume(self):
        assert run_cli("profile", "--volume", "3/4").returncode == 2
        assert run_cli("profile", "--volume", "x/y").returncode == 1
        assert run_cli("profile", "--volume", "1/0").returncode == 1

    def test_usage_error(self):
        assert run_cli("frobnicate").returncode == 1

    def test_pipeline_roundtrip(self, tmp_path):
        x = realize("tripod", (F(3, 10),) * 3)
        inp = tmp_path / "tripod.json"
        inp.write_text(set_to_json(x))
        out = run_cli("classify", str(inp))
        assert out.returncode == 0
        obj = json.loads(out.stdout)
        assert obj["verdict"] == "not_minimizer"
        assert obj["competitor"]["d_rel_per"] == "-21/100"
        emitted = json.dumps(obj["competitor"]["set"], sort_keys=True)
        y = set_from_json(emitted)
        assert y.volume() == x.volume()

    def test_firstvar_cube(self, tmp_path):
        inp = tmp_path / "cube.json"
        inp.write_text(set_to_json(realize("box", (HALF, HALF, HALF))))
        out = run_cli("firstvar", str(inp))
        obj = json.loads(out.stdout)
        assert obj["stationary"]
        assert [s["first_var"] for s in obj["slices"]] == ["4", "4", "4"]

    def test_reduce_emits_log(self, tmp_path):
        x = cs(3, [((0, 0, 0), (F(1, 4), F(3, 4), F(1, 2))),
                   ((0, 0, 0), (F(1, 2), F(1, 4), F(1, 4)))])
        inp = tmp_path / "stair.json"
        inp.write_text(set_to_json(x))
        outp = tmp_path / "special.json"
        logp = tmp_path / "steps.jsonl"
        res = run_cli("reduce", str(inp), "--out", str(outp), "--log", str(logp))
        assert res.returncode == 0
        y = set_from_json(outp.read_text())
        assert y.volume() == x.volume()
        records = [json.loads(l) for l in logp.read_text().splitlines()]
        assert records[0]["kind"] == "symmetrize"
        assert all("d_rel_per" in r for r in records)

    def test_search_csv(self):
        out = run_cli("search", "--dim", "3", "--res", "2", "--all-k")
        assert out.returncode == 0
        rows = out.stdout.strip().splitlines()
        assert rows[0].startswith("n,m,k,V,discrete_min")
        assert len(rows) == 6  # header + k = 0..4

    def test_search_deterministic(self):
        a = run_cli("search", "--dim", "2", "--res", "4", "--all-k")
        b = run_cli("search", "--dim", "2", "--res", "4", "--all-k")
        assert a.stdout == b.stdout

    def test_search_2d_uses_planar_bound(self):
        out = run_cli("search", "--dim", "2", "--res", "4", "--cells", "1")
        assert out.returncode == 0
        row = out.stdout.strip().splitlines()[1]
        assert row == "2,4,1,1/16,1/2,0.500000000000..0.500000000000,1,square"

    def test_options_only_where_used(self, tmp_path):
        inp = tmp_path / "cube.json"
        inp.write_text(set_to_json(realize("box", (HALF, HALF, HALF))))
        for argv in (
            ("classify", str(inp), "--seed", "1"),
            ("symmetrize", str(inp), "--precision-bits", "8"),
            ("profile", "--volume", "1/8", "--jobs", "2"),
            ("verify", "--only", "1", "--precision-bits", "8"),
            ("search", "--dim", "2", "--res", "2", "--all-k", "--jobs", "2"),
        ):
            out = run_cli(*argv)
            assert out.returncode == 1, argv
            assert "unrecognized arguments" in out.stderr
        assert run_cli("profile", "--volume", "1/8", "--precision-bits", "8").returncode == 0

    def test_verify_rejects_unknown_criterion(self):
        out = run_cli("verify", "--only", "11")
        assert out.returncode == 1
        assert "invalid choice: 11" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "text,field",
        [
            ('{"boxes": []}', "'dim'"),
            ("[1, 2]", "JSON object"),
            ('{"dim": "x", "boxes": []}', "'dim'"),
            ('{"dim": 3, "boxes": [{"lo": ["0", "0", "0"]}]}', "'boxes[0].hi'"),
            ('{"dim": 1, "boxes": [{"lo": ["1/0"], "hi": ["1"]}]}', "'boxes[0].lo[0]'"),
            ('{"dim": 70, "boxes": []}', "'dim'"),
            ('{"dim": 40, "res": 1, "cells": []}', "'dim'"),
            ('{"dim": 3, "res": 1000000, "cells": []}', "'res'"),
            (json.dumps({"dim": 32, "boxes": [{"lo": ["1/3"] * 32, "hi": ["2/3"] * 32}]}),
             "'boxes'"),  # 3^32 grid cells
            pytest.param(None, "Is a directory", id="directory"),
            pytest.param(b'{"dim": 1, "boxes": ["\xff"]}', "not UTF-8", id="latin-1"),
            pytest.param("[" * 200_000, "too deeply", id="deep-list"),
            pytest.param('{"dim": 1, "boxes": ' + "[" * 200_000, "too deeply", id="deep-field"),
            pytest.param('{"dim": 3, "boxes": [], "pad": ' + "7" * 5000 + "}", "too long",
                         id="long-integer"),
            pytest.param('{"dim": 1, "boxes": [{"lo": ["0"], "hi": ["1/' + "7" * 5000 + '"]}]}',
                         "'boxes[0].hi[0]'", id="long-coordinate"),
        ],
    )
    def test_malformed_set_file(self, tmp_path, text, field):
        inp = tmp_path / "bad.json"
        if text is None:
            inp.mkdir()
        elif isinstance(text, bytes):
            inp.write_bytes(text)
        else:
            inp.write_text(text)
        out = run_cli("classify", str(inp))
        assert out.returncode == 2
        assert field in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("option", ["--out", "--log"])
    def test_directory_as_output_path(self, tmp_path, option):
        inp = tmp_path / "cube.json"
        inp.write_text(set_to_json(realize("box", (HALF, HALF, HALF))))
        out = run_cli("reduce", str(inp), option, str(tmp_path))
        assert out.returncode == 2
        assert "Is a directory" in out.stderr
        assert "Traceback" not in out.stderr

    def test_equal_spellings_of_a_coordinate_load_equal(self, tmp_path):
        halves = ("1/2", "2/4", "3/6")
        boxes = [
            {"lo": [a, "0", b], "hi": ["1", c, "1"]}
            for a, b, c in itertools.permutations(halves)
        ]
        spelled = tmp_path / "spelled.json"
        spelled.write_text(json.dumps({"dim": 3, "boxes": boxes}))
        x = cs(3, [((HALF, 0, HALF), (1, HALF, 1))])
        assert load_set(str(spelled)) == x
        plain = tmp_path / "plain.json"
        plain.write_text(set_to_json(x))
        out = run_cli("classify", str(spelled))
        assert out.returncode == 0
        assert out.stdout == run_cli("classify", str(plain)).stdout

    def test_first_bad_coordinate_after_repeats_is_named(self, tmp_path):
        good = {"lo": ["0", "1/3", "0"], "hi": ["1/3", "2/3", "1/3"]}
        boxes = [good] * 300 + [
            {"lo": ["0", "1/3", "1/x"], "hi": ["1/3", "2/3", "1/3"]},
            {"lo": ["1/x", "1/3", "0"], "hi": ["1/3", "2/3", "1/3"]},
        ]
        inp = tmp_path / "bad.json"
        inp.write_text(json.dumps({"dim": 3, "boxes": boxes}))
        out = run_cli("classify", str(inp))
        assert out.returncode == 2
        assert "'boxes[300].lo[2]'" in out.stderr
        assert "boxes[301]" not in out.stderr
        assert "Traceback" not in out.stderr

    def test_usage_mistakes_exit_1(self):
        for argv in (
            ("profile", "--range", "1/4", "1/2"),
            ("search", "--dim", "3", "--res", "2"),
            ("search", "--dim", "3", "--res", "0"),
            ("search", "--dim", "2", "--res", "0", "--cells", "0"),
            ("search", "--dim", "3", "--res", "-1", "--all-k"),
            ("search", "--dim", "3", "--res", "2", "--all-k", "--precision-bits", "-1"),
            ("profile", "--volume", "1/5", "--precision-bits", "-1"),
            ("verify", "--only", "3", "--seed", "-10"),
            ("profile",),
            ("profile", "--volume", "1/5", "--range", "1/4", "1/2", "--step", "1/8"),
            ("search", "--dim", "2", "--res", "2", "--cells", "1", "--all-k"),
        ):
            out = run_cli(*argv)
            assert out.returncode == 1, argv
            assert "Traceback" not in out.stderr
            assert out.stdout == ""

    def test_profile_rejects_reversed_range(self):
        out = run_cli("profile", "--range", "1/2", "1/4", "--step", "1/8")
        assert out.returncode == 1
        assert "LO <= HI" in out.stderr
        assert out.stdout == ""

    def test_export_mesh_requires_3d(self, tmp_path):
        inp = tmp_path / "flat.json"
        inp.write_text(set_to_json(cs(2, [((0, 0), (HALF, HALF))])))
        assert run_cli("export-mesh", str(inp)).returncode == 2

    def test_verify_single_criterion(self):
        out = run_cli("verify", "--only", "1")
        assert out.returncode == 0
        assert "[PASS]  1." in out.stdout

    def test_results_past_the_int_digit_limit_print_in_full(self, tmp_path, capsys):
        # a box with 3001-digit denominators has a 9001-digit volume, past
        # the 4300 digits Python 3.11+ converts to text by default
        dens = [10**3000 + c for c in (3, 7, 9)]
        inp = tmp_path / "big.json"
        inp.write_text(json.dumps({"dim": 3, "boxes": [{"lo": ["0"] * 3, "hi": [f"1/{d}" for d in dens]}]}))
        digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = digit_limit()
        assert cli.main(["symmetrize", str(inp)]) == 0
        sym = capsys.readouterr()
        assert cli.main(["firstvar", str(inp)]) == 0
        first = capsys.readouterr()
        assert digit_limit() == limit  # lifted for the command only
        assert set_from_json(sym.out) == set_from_json(inp.read_text())
        with cli._all_digits():
            volume = f"volume 1/{dens[0] * dens[1] * dens[2]} (unchanged)"
            areas = [str(F(1, dens[1] * dens[2])), str(F(1, dens[0] * dens[2])), str(F(1, dens[0] * dens[1]))]
        assert sym.err.startswith(volume)
        slices = json.loads(first.out)["slices"]
        assert [(d["position"], d["area"]) for d in slices] == list(zip((f"1/{d}" for d in dens), areas))

    def test_closed_stdout_exits_1_without_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "cubeiso.cli", "verify", "--only", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        proc.stdout.close()  # before the interpreter has started
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err, err


def test_cli_accepts_voxel_files(tmp_path):
    from cubeiso.formats import voxel_to_json
    from cubeiso.geometry import VoxelSet

    v = VoxelSet.from_indices(3, 2, [0, 1, 2, 3])  # the bottom slab
    inp = tmp_path / "slab.voxel.json"
    inp.write_text(voxel_to_json(v))
    out = run_cli("classify", str(inp))
    assert out.returncode == 0
    assert json.loads(out.stdout)["verdict"] == "slab"
