"""The collector of ``tests/reach.py`` on a module of two functions."""

import importlib.util

from reach import Collector, code_objects, unreached_lines

MODULE = '''\
def used(x):
    if x:
        return 1
    if x is None:
        raise ValueError(x)
    return 0


def unused():
    return 2
'''


def test_collector_sees_what_runs(tmp_path):
    path = tmp_path / "two.py"
    path.write_text(MODULE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("two", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with Collector(tmp_path) as run:
        assert module.used(True) == 1
    codes = code_objects(tmp_path)
    assert sorted(key[2] for key in codes) == ["unused", "used"]
    assert sorted(key[2] for key in codes.keys() - run.calls) == ["unused"]
    # the second if and the last return never ran; the raise is left out
    lines = [(n, text) for _, n, text in unreached_lines(codes, run.calls, run.lines)]
    assert lines == [(4, "if x is None:"), (6, "return 0")]
