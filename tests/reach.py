"""Which code of ``src/cubeiso`` the entry points and the tests reach.

Two runs in this process, each under ``sys.settrace`` (the standard library
only; ``coverage`` is not needed):

- the entry points through ``cubeiso.cli.main``: ``classify``, ``reduce``,
  ``firstvar`` and ``symmetrize`` on the seed-1 inputs of both classify
  workloads, built by ``perfbench/workloads.py``; ``search --dim 3 --res 3``
  and ``--res 4`` and ``search --dim 2 --res 6``, each with ``--all-k``;
  ``profile --range``, ``verify``, ``verify --only 5`` and ``export-mesh``;
  and the seven demos;
- Tier-1, through ``pytest.main`` in this process.  It does not see the
  children of the tests that run the command line or a demo in a
  subprocess.

It prints three lists:

- the code objects that neither run reaches;
- the code objects that only the tests reach;
- the lines of reached code objects that neither run reaches, leaving out
  ``raise`` statements.

A code object is a function, method, lambda or comprehension; module and
class bodies run at import and are left out, so a class without methods of
its own (a plain dataclass) shows only through the code that builds it.
Run from the repository root::

    python tests/reach.py    # both runs, about two and a half minutes
"""

from __future__ import annotations

import ast
import contextlib
import dis
import inspect
import io
import os
import runpy
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cubeiso"


def _qualname(code: types.CodeType) -> str:
    # ``co_qualname`` is new in Python 3.11
    return getattr(code, "co_qualname", code.co_name)


def _key(code: types.CodeType) -> tuple:
    return (os.path.realpath(code.co_filename), code.co_firstlineno, _qualname(code))


class Collector:
    """Records the code objects and lines under ``root`` that run while it
    is active; ``calls`` holds ``_key`` tuples, ``lines`` ``(file, line)``."""

    def __init__(self, root: Path):
        self.root = os.path.realpath(root) + os.sep
        self.calls: set = set()
        self.lines: set = set()
        self._inside: dict = {}  # co_filename -> realpath under root, or None

    def _file(self, name: str):
        if name not in self._inside:
            path = os.path.realpath(name)
            self._inside[name] = path if path.startswith(self.root) else None
        return self._inside[name]

    def _call(self, frame, event, arg):
        code = frame.f_code
        path = self._file(code.co_filename)
        if path is None:
            return None
        self.calls.add((path, code.co_firstlineno, _qualname(code)))
        lines = self.lines

        def line(frame, event, arg):
            if event == "line":
                lines.add((path, frame.f_lineno))
            return line

        return line

    def __enter__(self) -> "Collector":
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)


_COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def code_objects(root: Path) -> dict:
    """Every function, method, lambda and comprehension of the ``.py`` files
    under ``root``, by ``_key``, but for the comprehensions that module and
    class bodies run at import."""
    out = {}
    for path in sorted(Path(root).rglob("*.py")):
        name = os.path.realpath(path)
        stack = [compile(path.read_text(encoding="utf-8"), name, "exec")]
        while stack:
            code = stack.pop()
            inner = [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if not code.co_flags & inspect.CO_OPTIMIZED:
                inner = [c for c in inner if c.co_name not in _COMPREHENSIONS]
            out.update((_key(c), c) for c in inner if c.co_flags & inspect.CO_OPTIMIZED)
            stack += inner
    return out


def _statements(path: str) -> dict:
    """First line of each statement of a file, but ``raise`` and
    definitions, mapped to its text."""
    source = Path(path).read_text(encoding="utf-8")
    lines = source.splitlines()
    skip = (ast.Raise, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.lineno: lines[node.lineno - 1].strip()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.stmt) and not isinstance(node, skip)
    }


def unreached_lines(codes: dict, calls: set, lines: set) -> list:
    """``(file, line, text)`` of the statements of reached code objects that
    never ran, leaving out ``raise`` statements."""
    out = []
    statements: dict = {}
    for key in sorted(calls & codes.keys()):
        path = key[0]
        if path not in statements:
            statements[path] = _statements(path)
        for n in sorted({n for _, n in dis.findlinestarts(codes[key])}):
            if n in statements[path] and (path, n) not in lines:
                out.append((path, n, statements[path][n]))
    return out


def _name(key: tuple) -> str:
    path, line, qualname = key
    return f"{os.path.relpath(path, ROOT)}:{line} {qualname}"


def _cli(argv: list) -> None:
    from cubeiso import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)


def _workload_inputs(workdir: Path) -> list:
    """The seed-1 set files of both classify workloads."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    mods = types.SimpleNamespace(cli=None)  # no operation runs here
    paths = []
    for name in ("classify_grid", "classify_rational"):
        sub = workdir / name
        sub.mkdir()
        workloads.BY_NAME[name](mods, 1, sub)
        paths += sorted(sub.glob("set*.json"))
    return paths


def run_entry_points(workdir: Path) -> Collector:
    inputs = _workload_inputs(workdir)
    with Collector(PACKAGE) as run:
        for path in inputs:
            for command in ("classify", "reduce", "firstvar", "symmetrize"):
                _cli([command, str(path)])
        for dim, res in ((3, 3), (3, 4), (2, 6)):
            _cli(["search", "--dim", str(dim), "--res", str(res), "--all-k"])
        _cli(["profile", "--range", "1/100", "1/2", "--step", "1/100"])
        _cli(["verify"])
        _cli(["verify", "--only", "5"])
        _cli(["export-mesh", str(inputs[0]), "--out", str(workdir / "mesh.obj")])
        argv, cwd = sys.argv, os.getcwd()
        os.chdir(workdir)  # the mesh demo writes its OBJ files here
        try:
            for demo in sorted((ROOT / "demos").glob("*.py")):
                sys.argv = [str(demo)]
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_path(str(demo), run_name="__main__")
        finally:
            sys.argv = argv
            os.chdir(cwd)
    return run


def run_tests() -> Collector:
    import pytest
    from hypothesis import settings

    settings.register_profile("reach", deadline=None)  # tracing slows every example
    settings.load_profile("reach")
    # the tests that run the command line in a child find the package here
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    )
    with Collector(PACKAGE) as run:
        pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                     str(ROOT / "tests"), str(ROOT / "perfbench")])
    return run


def report(codes: dict, entry: Collector, tests: Collector) -> str:
    lines = entry.lines | tests.lines
    reached = entry.calls | tests.calls
    out = [f"{len(codes)} code objects under {os.path.relpath(PACKAGE, ROOT)}"]
    out.append("\nreached by neither run:")
    out += [f"  {_name(k)}" for k in sorted(codes.keys() - reached)]
    out.append("\nreached only by the tests:")
    out += [f"  {_name(k)}" for k in sorted((tests.calls - entry.calls) & codes.keys())]
    out.append("\nlines of reached code that neither run reaches:")
    for path, n, text in unreached_lines(codes, reached, lines):
        out.append(f"  {os.path.relpath(path, ROOT)}:{n} {text}")
    return "\n".join(out) + "\n"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import cubeiso.cli  # noqa: F401  (imported before the runs: import work is not reach)

    codes = code_objects(PACKAGE)
    with tempfile.TemporaryDirectory() as tmp:
        entry = run_entry_points(Path(tmp))
    sys.stdout.write(report(codes, entry, run_tests()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
