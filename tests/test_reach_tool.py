"""``tools/reach.py`` over a toy package: what counts as reached, and the exit code."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reach_tool", ROOT / "tools" / "reach.py")
reach = sys.modules.setdefault("reach_tool", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(reach)

TOY = '''
import functools


def deco(f):
    @functools.wraps(f)
    def wrapper(*args):
        return f(*args)
    return wrapper


@deco
def decorated():
    return 1


class Box:
    @property
    def size(self):
        return 2


def outer(flag):
    def inner():
        return 3
    return inner() if flag else 0


def in_child():
    return 4


def unreached():
    return 5
'''

DRIVER = '''
import os

from toy import mod

mod.decorated()
mod.Box().size
mod.outer(False)
pid = os.fork()
if pid == 0:
    mod.in_child()
    os._exit(0)
os.waitpid(pid, 0)
'''


@pytest.fixture
def toy(tmp_path, monkeypatch):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY)
    driver = tmp_path / "driver.py"
    driver.write_text(textwrap.dedent(DRIVER))
    monkeypatch.setattr(reach, "SOURCE", package)
    monkeypatch.setattr(reach, "RUNS", (("toy driver", f"python {driver}"),))
    records, workdir = tmp_path / "records", tmp_path / "work"
    records.mkdir()
    workdir.mkdir()
    reach.record(records, workdir)
    return package, records


def reached_names(package, records):
    hits = reach.reached(records, package)
    return {f.qualname for f in reach.functions(package) if (f.path, f.line) in hits}


def test_decorated_functions_and_properties_count_as_reached(toy):
    names = reached_names(*toy)
    assert {"decorated", "deco", "deco.<locals>.wrapper", "Box.size"} <= names


def test_a_nested_function_is_listed_on_its_own(toy):
    package, records = toy
    listed = {f.qualname for f in reach.functions(package)}
    assert {"outer", "outer.<locals>.inner"} <= listed
    names = reached_names(package, records)
    assert "outer" in names and "outer.<locals>.inner" not in names


def test_a_forked_child_leaving_by_os_exit_reports_what_it_reached(toy):
    assert "in_child" in reached_names(*toy)


def test_only_unreached_functions_without_a_reason_fail_the_audit(toy, capsys):
    package, records = toy
    capsys.readouterr()
    assert reach.audit(package, records, {}) == 1
    out = capsys.readouterr().out
    assert "mod.py:33 unreached" in out and "mod.py:24 outer.<locals>.inner" in out
    kept = {
        "mod.py:unreached": reach._FAILURE,
        "mod.py:outer.<locals>.inner": reach._FAILURE,
    }
    assert reach.audit(package, records, kept) == 0
    assert reach.audit(package, records, {**kept, "mod.py:gone": reach._FAILURE}) == 1
    assert reach.audit(package, records, {**kept, "mod.py:in_child": "no reason"}) == 1


def test_the_tool_exits_1_on_an_unreached_function(toy, monkeypatch):
    monkeypatch.setattr(reach, "KEPT", {})
    assert reach.main() == 1
