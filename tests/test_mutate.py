"""``tools/mutate.py`` reports the one mutant that a module's tests miss."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"

MODULE = """
def double(x):
    return x * 2


def less(a, b):
    return a < b


def both(a, b):
    return a and b
"""

TESTS = """
from mod import both, double, less


def test_double():
    assert double(3) == 6


def test_less():
    assert less(1, 2) and not less(2, 1)


def test_both():
    assert both(True, False) is False
"""


def _tool():
    spec = importlib.util.spec_from_file_location("mutate", TOOL)
    tool = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tool  # its dataclass looks its module up
    spec.loader.exec_module(tool)
    return tool


def test_mutants_change_one_operator_or_literal_each():
    tool = _tool()
    changed = [
        (m.line, m.old, m.new, m.apply(MODULE).splitlines()[m.line - 1].strip())
        for m in tool.mutants(MODULE)
    ]
    assert changed == [
        (3, "*", "/", "return x / 2"),
        (3, "2", "3", "return x * 3"),
        (7, "<", "<=", "return a <= b"),
        (11, "and", "or", "return a or b"),
    ]


def test_reports_only_the_survivors(tmp_path, monkeypatch, capsys):
    tool = _tool()
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(TESTS, encoding="utf-8")
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    assert tool.main([str(tmp_path / "src" / "mod.py")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "src/mod.py:7: < -> <=: return a < b",
        "src/mod.py: 3 of 4 mutants killed",
    ]
    assert (tmp_path / "src" / "mod.py").read_text(encoding="utf-8") == MODULE
