"""Mutation testing: change one thing in a module at a time, run the tests that
should notice, and print each change they miss.

Each mutant makes one change to the source text: it flips one comparison
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``,
``in`` and ``not in``), swaps one arithmetic operator (``+`` and ``-``, ``*``
and ``/``), swaps ``and`` and ``or``, or adds 1 to one numeric literal.
Code inside f-strings is left alone.  The mutants run on a copy of ``src/``
and ``tests/`` under ``.bench_build/mutate/``; the working tree is never
changed.  Each runs the module's focused test files (``test_<module>.py``,
and those listed in ``FOCUSED``) plus ``test_golden.py`` and
``test_acceptance.py``, with ``-x``.  A mutant that fails a test, fails to
import or outlasts the timeout is killed.  A full module takes minutes, so
this is not part of the suite.  Run it from anywhere:

    python tools/mutate.py src/potselect/interpreter.py

It prints each survivor as ``file:line``, the mutation and the source line,
then the score, and exits 1 when a mutant survived (2 when the tests fail
on the unmutated copy, since then every mutant would count as killed).
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import subprocess
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60.0  # one mutant's test run; a mutant that loops forever is killed by it
ALWAYS = ("test_golden.py", "test_acceptance.py")
FOCUSED = {"selection": ("test_selection.py", "test_evalharness.py")}

_COMPARE = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"),
    ast.IsNot: ("is not", "is"), ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
}
_ARITHMETIC = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}
_BOOL = {ast.And: ("and", "or"), ast.Or: ("or", "and")}


@dataclass(frozen=True)
class Mutant:
    line: int
    spans: tuple[tuple[int, int], ...]  # character offsets into the source, replaced in turn
    old: str
    new: str

    def apply(self, source: str) -> str:
        for start, end in reversed(self.spans):
            source = source[:start] + self.new + source[end:]
        return source


def _char_offsets(source: str):
    """Map an ``ast`` (line, UTF-8 byte column) or a ``tokenize`` (line, character
    column) position to an offset into ``source``."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def from_ast(line: int, byte_col: int) -> int:
        return starts[line - 1] + len(lines[line - 1].encode("utf-8")[:byte_col].decode("utf-8"))

    def from_token(position: tuple[int, int]) -> int:
        return starts[position[0] - 1] + position[1]

    return from_ast, from_token


def mutants(source: str) -> list[Mutant]:
    """Every one-change mutant of ``source``, in source order."""
    tree = ast.parse(source)
    from_ast, from_token = _char_offsets(source)
    tokens = [
        (from_token(t.start), from_token(t.end), t.string)
        for t in tokenize.generate_tokens(io.StringIO(source).readline)
        if t.type in (tokenize.OP, tokenize.NAME)
    ]
    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}

    def start(node: ast.AST) -> int:
        return from_ast(node.lineno, node.col_offset)

    def end(node: ast.AST) -> int:
        return from_ast(node.end_lineno, node.end_col_offset)

    def operator(line: int, after: int, before: int, text: str, new: str) -> Mutant | None:
        """The mutant that rewrites the tokens spelling ``text`` between two offsets."""
        words = text.split()
        between = [t for t in tokens if after <= t[0] and t[1] <= before]
        for i in range(len(between) - len(words) + 1):
            if [t[2] for t in between[i : i + len(words)]] == words:
                return Mutant(line, ((between[i][0], between[i + len(words) - 1][1]),), text, new)
        return None

    found: list[Mutant | None] = []
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                old, new = _COMPARE[type(op)]
                found.append(operator(node.lineno, end(left), start(right), old, new))
                left = right
        elif isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
            old, new = _ARITHMETIC[type(node.op)]
            found.append(operator(node.lineno, end(node.left), start(node.right), old, new))
        elif isinstance(node, ast.BoolOp):
            old, new = _BOOL[type(node.op)]
            ops = [
                operator(node.lineno, end(a), start(b), old, new)
                for a, b in zip(node.values, node.values[1:])
            ]
            if all(ops):
                found.append(Mutant(node.lineno, tuple(m.spans[0] for m in ops), old, new))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            text = source[start(node) : end(node)]
            found.append(Mutant(node.lineno, ((start(node), end(node)),), text, repr(node.value + 1)))
    return sorted((m for m in found if m is not None), key=lambda m: m.spans)


def focused_tests(module: Path, tests: Path) -> list[str]:
    """The focused test files of ``module`` that exist, then ``ALWAYS``'s."""
    names = [f"test_{module.stem}.py", *FOCUSED.get(module.stem, ()), *ALWAYS]
    return [f"tests/{name}" for name in dict.fromkeys(names) if (tests / name).is_file()]


def _pytest(copy: Path, files: list[str], timeout: float = TIMEOUT_S) -> bool:
    """Whether ``files`` pass in ``copy``; a run that times out fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "--tb=no", "-p", "no:cacheprovider"]
    try:
        result = subprocess.run(
            [*command, *files], cwd=copy, env=env, capture_output=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def run(module: Path) -> int:
    """Mutate ``module`` (a path under ``ROOT``) in a fresh copy; print each
    survivor as it is found, then the score; return the survivor count."""
    relative = module.resolve().relative_to(ROOT)
    copy = ROOT / ".bench_build" / "mutate"
    shutil.rmtree(copy, ignore_errors=True)
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "pyproject.toml").is_file():
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
    target = copy / relative
    source = target.read_text(encoding="utf-8")
    files = focused_tests(relative, copy / "tests")
    if not _pytest(copy, files, TIMEOUT_S * 5):
        raise RuntimeError(f"{relative}: {' '.join(files)} fail on the unmutated copy")
    found, survivors, lines = mutants(source), 0, source.splitlines()
    for mutant in found:
        target.write_text(mutant.apply(source), encoding="utf-8")
        if _pytest(copy, files):
            survivors += 1
            print(f"{relative}:{mutant.line}: {mutant.old} -> {mutant.new}: "
                  f"{lines[mutant.line - 1].strip()}", flush=True)
    print(f"{relative}: {len(found) - survivors} of {len(found)} mutants killed", flush=True)
    return survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", type=Path)
    args = parser.parse_args(argv)
    try:
        survivors = sum(run(module) for module in args.modules)
    except RuntimeError as exc:
        print(exc)
        return 2
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
