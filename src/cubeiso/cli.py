"""Command-line surface.

Subcommands: profile, symmetrize, reduce, classify, firstvar, search,
export-mesh, verify.  Machine-readable output carries exact "p/q" strings;
human-readable reports add 12-digit decimal enclosures.  Exit codes:
0 success, 1 usage, 2 domain error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import acceptance
from .classify import ClassificationResult, classify, profile, profile2d
from .enclosure import Enclosure, format_decimal
from .errors import CubeIsoError, RationalParseError
from .formats import (
    export_obj,
    load_set,
    parse_rat,
    rat_to_str,
    set_to_json,
)
from .search import brute_min
from .symmetrize import symmetrize_all
from .variation import check_stationarity, reduce_to_special

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


class _UsageError(CubeIsoError):
    """A command-line value outside the range its command accepts."""


def _at_least(value: int, least: int, option: str) -> None:
    if value < least:
        raise _UsageError(f"{option} must be at least {least}, got {value}")


def _write_out(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_profile(args) -> int:
    _at_least(args.precision_bits, 0, "--precision-bits")
    step = parse_rat(args.step, "--step") if args.step else None
    if args.volume:
        vols = [parse_rat(args.volume, "--volume")]
    else:
        lo = parse_rat(args.range[0], "--range")
        hi = parse_rat(args.range[1], "--range")
        if step is None or step <= 0:
            raise _UsageError("a positive --step is required with --range")
        if lo > hi:
            raise _UsageError(f"--range needs LO <= HI, got {lo} > {hi}")
        vols = []
        v = lo
        while v <= hi:
            vols.append(v)
            v += step
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["V", "value_lo", "value_hi", "value_decimal", "kinds", "threshold"])
    for v in vols:
        entry = profile(v, bits=args.precision_bits)
        val = entry.value
        lo_s, hi_s = (
            (rat_to_str(val.lo), rat_to_str(val.hi))
            if isinstance(val, Enclosure)
            else (rat_to_str(val), rat_to_str(val))
        )
        dec = format_decimal(
            val.midpoint() if isinstance(val, Enclosure) else val
        )
        flag = "V1" if entry.at_cube_tube_tie else "V2" if entry.at_tube_slab_tie else ""
        writer.writerow(
            [rat_to_str(v), lo_s, hi_s, dec, "+".join(sorted(entry.kinds)), flag]
        )
    _write_out(buf.getvalue(), args.out)
    return EXIT_OK


def _cmd_symmetrize(args) -> int:
    x = load_set(args.input)
    y = symmetrize_all(x)
    _write_out(set_to_json(y), args.out)
    sys.stderr.write(
        f"volume {rat_to_str(y.volume())} (unchanged); relative perimeter "
        f"{rat_to_str(x.relative_perimeter())} -> {rat_to_str(y.relative_perimeter())}\n"
    )
    return EXIT_OK


def _cmd_reduce(args) -> int:
    x = load_set(args.input)
    y, log = reduce_to_special(x)
    _write_out(set_to_json(y), args.out)
    records = []
    for step in log:
        records.append(
            json.dumps(
                {
                    "kind": step.kind,
                    "axis": step.axis,
                    "positions": [rat_to_str(p) for p in step.positions],
                    "new_positions": [rat_to_str(p) for p in step.new_positions],
                    "distance": rat_to_str(step.distance),
                    "d_rel_per": rat_to_str(step.d_perimeter),
                    "d_vol": rat_to_str(step.d_volume),
                },
                sort_keys=True,
            )
        )
    log_text = "\n".join(records) + "\n"
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write(log_text)
    else:
        sys.stderr.write(log_text)
    return EXIT_OK


def _classification_json(res: ClassificationResult) -> str:
    obj = {
        "verdict": res.verdict,
        "volume": rat_to_str(res.volume),
        "profile_kinds": sorted(res.kinds),
        "via_complement": res.via_complement,
        "notes": list(res.notes),
    }
    if res.family is not None:
        obj["family"] = {
            "tag": res.family.tag,
            "params": [rat_to_str(p) for p in res.family.params],
        }
    if res.stationarity is not None:
        obj["first_variations"] = [
            {
                "axis": d.axis,
                "position": rat_to_str(d.position),
                "area": rat_to_str(d.area),
                "signed_measure": rat_to_str(d.signed_measure),
                "first_var": rat_to_str(d.first_var),
            }
            for d in res.stationarity.slices
        ]
        obj["stationary"] = res.stationarity.stationary
    if res.competitor is not None:
        obj["competitor"] = {
            "set": json.loads(set_to_json(res.competitor.competitor)),
            "d_volume": rat_to_str(res.competitor.d_volume),
            "d_rel_per": rat_to_str(res.competitor.d_perimeter),
            "d_rel_per_decimal": format_decimal(res.competitor.d_perimeter),
        }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _cmd_classify(args) -> int:
    x = load_set(args.input)
    if x.dim != 3:
        raise CubeIsoError("classification requires a 3-dimensional set")
    res = classify(x)
    for note in res.notes:
        sys.stderr.write(f"note: {note}\n")
    _write_out(_classification_json(res), args.out)
    return EXIT_OK


def _cmd_firstvar(args) -> int:
    x = load_set(args.input)
    report = check_stationarity(x)
    obj = {
        "stationary": report.stationary,
        "slices": [
            {
                "axis": d.axis,
                "position": rat_to_str(d.position),
                "area": rat_to_str(d.area),
                "outer_measure": rat_to_str(d.outer_measure),
                "cube_measure": rat_to_str(d.cube_measure),
                "inner_measure": rat_to_str(d.inner_measure),
                "first_var": rat_to_str(d.first_var),
                "first_var_decimal": format_decimal(d.first_var),
            }
            for d in report.slices
        ],
    }
    _write_out(json.dumps(obj, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _search_rows(dim, res, cells_list, bits):
    rows = []
    for k in cells_list:
        r = brute_min(dim, res, k)
        v = Fraction(k, res**dim)
        if k == 0:
            bound_lo = bound_hi = Fraction(0)
            kinds = ""
        else:
            entry = (profile2d if dim == 2 else profile)(v, bits=bits)
            val = entry.value
            bound_lo, bound_hi = (
                (val.lo, val.hi) if isinstance(val, Enclosure) else (val, val)
            )
            kinds = "+".join(sorted(entry.kinds))
        rows.append(
            [
                dim,
                res,
                k,
                rat_to_str(v),
                rat_to_str(r.min_perimeter),
                f"{format_decimal(bound_lo, rounding='floor')}.."
                f"{format_decimal(bound_hi, rounding='ceil')}",
                len(r.minimizers),
                kinds,
            ]
        )
    return rows


def _cmd_search(args) -> int:
    _at_least(args.res, 1, "--res")
    _at_least(args.precision_bits, 0, "--precision-bits")
    cells = list(range(0, args.res**args.dim // 2 + 1)) if args.all_k else [args.cells]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["n", "m", "k", "V", "discrete_min", "continuous_bound", "n_minimizers", "kinds"]
    )
    for row in _search_rows(args.dim, args.res, cells, args.precision_bits):
        writer.writerow(row)
    _write_out(buf.getvalue(), args.out)
    return EXIT_OK


def _cmd_export_mesh(args) -> int:
    x = load_set(args.input)
    if x.dim != 3:
        raise CubeIsoError("mesh export requires a 3-dimensional set")
    _write_out(export_obj(x), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    _at_least(args.seed, 0, "--seed")
    results = (
        [acceptance.run_one(args.only, seed=args.seed)]
        if args.only
        else acceptance.run_all(seed=args.seed)
    )
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.number:2d}. {r.name} ({r.elapsed:.1f}s)")
        print(f"       {r.detail}")
        if not r.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="cubeiso", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, inp=True):
        if inp:
            sp.add_argument("input", help="set or voxel JSON file")
        sp.add_argument("--out", help="output path (default stdout)")

    def precision(sp):
        sp.add_argument(
            "--precision-bits", type=int, default=64, help="enclosure width 2^-bits"
        )

    sp = sub.add_parser("profile", help="isoperimetric profile table")
    volumes = sp.add_mutually_exclusive_group(required=True)
    volumes.add_argument("--volume", help="single volume p/q")
    volumes.add_argument("--range", nargs=2, metavar=("LO", "HI"), help="volume range")
    sp.add_argument("--step", help="range step p/q")
    common(sp, inp=False)
    precision(sp)
    sp.set_defaults(fn=_cmd_profile)

    sp = sub.add_parser("symmetrize", help="symmetrize a set along every axis")
    common(sp)
    sp.set_defaults(fn=_cmd_symmetrize)

    sp = sub.add_parser("reduce", help="reduce a set to a special set")
    common(sp)
    sp.add_argument("--log", help="write the JSONL step log here")
    sp.set_defaults(fn=_cmd_reduce)

    sp = sub.add_parser("classify", help="minimizer classification (dim 3)")
    common(sp)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("firstvar", help="first variations of all slices")
    common(sp)
    sp.set_defaults(fn=_cmd_firstvar)

    sp = sub.add_parser("search", help="brute-force discrete minima")
    sp.add_argument("--dim", type=int, choices=(2, 3), required=True)
    sp.add_argument("--res", type=int, required=True)
    cells = sp.add_mutually_exclusive_group(required=True)
    cells.add_argument("--cells", type=int)
    cells.add_argument("--all-k", action="store_true")
    common(sp, inp=False)
    precision(sp)
    sp.set_defaults(fn=_cmd_search)

    sp = sub.add_parser("export-mesh", help="OBJ mesh of the interior boundary")
    common(sp)
    sp.set_defaults(fn=_cmd_export_mesh)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    numbers = [num for num, _, _ in acceptance.ALL_CRITERIA]
    sp.add_argument(
        "--only",
        type=int,
        choices=numbers,
        metavar=f"{numbers[0]}..{numbers[-1]}",
        help="run a single criterion",
    )
    sp.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    sp.set_defaults(fn=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so the flush at
        # exit raises nothing; a StringIO stdout has no descriptor.
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except (RationalParseError, _UsageError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (CubeIsoError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
