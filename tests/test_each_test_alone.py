"""``tools/each_test_alone.py`` finds a test that passes in its file but fails alone."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "each_test_alone.py"

ORDER_DEPENDENT = """
seen = []


def test_first():
    seen.append(1)


def test_second():
    assert seen == [1]
"""


def test_reports_only_the_test_that_fails_alone(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("each_test_alone", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    (tmp_path / "test_order.py").write_text(ORDER_DEPENDENT, encoding="utf-8")
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    assert tool.main([]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "test_order.py::test_second",
        "1 of 2 tests fail when run alone",
    ]
