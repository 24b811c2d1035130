"""Restricted straight-line arithmetic dialect: parse, render, execute.

Answer programs are sequences of assignments over ``+ - * /``, unary minus,
parentheses, numeric literals and previously assigned identifiers.  Comment
lines start with ``#``; the value of a program is the last binding of ``ans``.
The grammar is a strict subset of Python, so parsing delegates tokenisation
and precedence to :mod:`ast` and this module only validates and converts.
"""

from __future__ import annotations

import ast
import functools
import math
import re
import sys
from dataclasses import dataclass


class InterpreterError(Exception):
    """Base class for parse and execution failures of answer programs."""


class ProgramSyntaxError(InterpreterError):
    def __init__(self, line_no: int, line: str):
        super().__init__(f"line {line_no}: unparseable line: {line.strip()!r}")
        self.line_no = line_no


class ForwardReferenceError(InterpreterError):
    def __init__(self, name: str, line_no: int):
        super().__init__(f"line {line_no}: identifier {name!r} used before assignment")
        self.name = name
        self.line_no = line_no


class UnsupportedConstructError(InterpreterError):
    def __init__(self, line_no: int, what: str):
        super().__init__(f"line {line_no}: unsupported construct: {what}")
        self.line_no = line_no


class NoAnswerError(InterpreterError):
    def __init__(self) -> None:
        super().__init__("program never assigns 'ans'")


class DivisionByZeroError(InterpreterError):
    def __init__(self, target: str):
        super().__init__(f"division by zero while computing {target!r}")
        self.target = target


class NonFiniteResultError(InterpreterError):
    def __init__(self, target: str, value: float):
        super().__init__(f"non-finite value {value!r} assigned to {target!r}")
        self.target = target


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of "+-*/"
    left: "Expr"
    right: "Expr"


Expr = Num | Var | Neg | BinOp


@dataclass(frozen=True)
class Assignment:
    target: str
    expression: Expr


@dataclass(frozen=True)
class Program:
    statements: tuple[Assignment, ...]
    source_text: str

    @functools.cached_property
    def value(self) -> float:
        """``execute(self)``, run on first use only; a failure raises each time."""
        return execute(self)


@dataclass(frozen=True)
class ModificationChain:
    """Nonempty sequence of (operator, operand) steps folded over a program's answer."""

    steps: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("chain must have at least one step")
        for op, operand in self.steps:
            if op not in "+-*/":
                raise ValueError(f"unknown chain operator {op!r}")
            if not math.isfinite(operand):
                raise ValueError(f"chain operand must be finite, got {operand!r}")
            if op == "/" and operand == 0:
                raise ValueError("chain must not divide by zero")


_ALLOWED_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


class _Unsupported(Exception):
    """A construct outside the dialect; ``parse_line`` adds the line number."""


# deepest operator nesting an expression may have: it keeps the recursive walkers
# (convert, references, render, execute) well inside Python's recursion limit, and
# is fixed rather than read off the stack because _parse_statement memoizes outcomes
MAX_NESTING = 200
_NESTED_TOO_DEEP = f"expression nested deeper than {MAX_NESTING}"


def _convert(node: ast.expr, depth: int = 0) -> Expr:
    if depth > MAX_NESTING:
        raise _Unsupported(_NESTED_TOO_DEEP)
    if isinstance(node, ast.Constant):
        # bool is an int subclass; reject it along with strings etc.
        if type(node.value) not in (int, float):
            raise _Unsupported(f"literal {node.value!r}")
        if abs(node.value) > sys.float_info.max:  # 1e999 parses as inf, and an int can be larger
            raise _Unsupported("literal beyond float range")
        return Num(float(node.value))
    if isinstance(node, ast.Name):
        return Var(node.id)
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return Neg(_convert(node.operand, depth + 1))
        raise _Unsupported("unary operator other than '-'")
    if isinstance(node, ast.BinOp):
        op = _ALLOWED_BINOPS.get(type(node.op))
        if op is None:
            raise _Unsupported(f"operator {type(node.op).__name__}")
        return BinOp(op, _convert(node.left, depth + 1), _convert(node.right, depth + 1))
    raise _Unsupported(type(node).__name__)


def references(expr: Expr) -> frozenset[str]:
    """Identifiers read by an expression."""
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Neg):
        return references(expr.operand)
    if isinstance(expr, BinOp):
        return references(expr.left) | references(expr.right)
    return frozenset()


PARSE_MEMO_SIZE = 4096  # distinct lines whose parse outcome is kept


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def _parse_statement(line: str) -> Assignment | str | None:
    """What a non-blank, non-comment line holds, memoized by its text: the
    assignment, the unsupported construct it uses, or None when it is not
    Python.  Results are frozen, so callers share them.  A ``RecursionError``
    propagates, so the memo keeps no outcome that depends on the call depth.
    """
    try:
        tree = ast.parse(line, mode="exec")
    except (SyntaxError, ValueError):  # ValueError: text UTF-8 cannot encode, a lone surrogate
        return None
    if len(tree.body) != 1:
        return "multiple statements on one line"
    stmt = tree.body[0]
    if not isinstance(stmt, ast.Assign):
        return type(stmt).__name__
    if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
        return "assignment target"
    try:
        return Assignment(stmt.targets[0].id, _convert(stmt.value))
    except _Unsupported as exc:
        return str(exc)


def parse_line(line: str, line_no: int = 1) -> Assignment | None:
    """Parse one line; None for blank/comment lines.

    No forward-reference checking here — callers own the running scope.
    Each distinct line goes through :mod:`ast` once while it stays among the
    last ``PARSE_MEMO_SIZE`` distinct lines; an error names ``line_no``.
    A line too deep for ``ast.parse``, whose limit shrinks as the caller's
    stack grows, is nested deeper than ``MAX_NESTING`` like one ``_convert``
    rejects; that outcome is not memoized, since it depends on the caller.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    try:
        outcome = _parse_statement(line)
    except RecursionError:
        outcome = _NESTED_TOO_DEEP
    if outcome is None:
        raise ProgramSyntaxError(line_no, line)
    if isinstance(outcome, str):
        raise UnsupportedConstructError(line_no, outcome)
    return outcome


def parse(source: str) -> Program:
    """Parse program text into :class:`Program`.

    Lines are blank, ``#`` comments, or single assignments.  Raises
    :class:`ProgramSyntaxError`, :class:`UnsupportedConstructError` or
    :class:`ForwardReferenceError`; ``source`` is preserved verbatim.
    """
    statements: list[Assignment] = []
    defined: set[str] = set()
    for line_no, line in enumerate(source.replace("\r", "").split("\n"), start=1):
        assignment = parse_line(line, line_no)
        if assignment is None:
            continue
        for name in sorted(references(assignment.expression)):
            if name not in defined:
                raise ForwardReferenceError(name, line_no)
        statements.append(assignment)
        defined.add(assignment.target)
    return Program(tuple(statements), source)


# precedence: atoms 4, unary minus 3, * / 2, + - 1
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _expr_precedence(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return _PRECEDENCE[expr.op]
    if isinstance(expr, Neg):
        return 3
    return 4


def _render_expr(expr: Expr, min_precedence: int = 0) -> str:
    if isinstance(expr, Num):
        v = expr.value
        text = str(int(v)) if v == int(v) else repr(v)
    elif isinstance(expr, Var):
        text = expr.name
    elif isinstance(expr, Neg):
        text = "-" + _render_expr(expr.operand, 3)
    else:
        prec = _PRECEDENCE[expr.op]
        # left-associative: the right child needs strictly higher precedence
        left = _render_expr(expr.left, prec)
        right = _render_expr(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
    if _expr_precedence(expr) < min_precedence:
        return f"({text})"
    return text


def render(program: Program) -> str:
    """Render statements back to canonical source (one assignment per line)."""
    return "\n".join(f"{s.target} = {_render_expr(s.expression)}" for s in program.statements)


def _apply(op: str, a: float, b: float) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b


def _evaluate(expr: Expr, env: dict[str, float], target: str) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Neg):
        return -_evaluate(expr.operand, env, target)
    left = _evaluate(expr.left, env, target)
    right = _evaluate(expr.right, env, target)
    try:
        return _apply(expr.op, left, right)
    except ZeroDivisionError:
        raise DivisionByZeroError(target) from None


def execute(program: Program) -> float:
    """Run the program and return the final value bound to ``ans``.

    Double-precision semantics, sequential evaluation, reassignment allowed.
    Raises :class:`NoAnswerError`, :class:`DivisionByZeroError` or
    :class:`NonFiniteResultError`.
    """
    env: dict[str, float] = {}
    for statement in program.statements:
        value = _evaluate(statement.expression, env, statement.target)
        if not math.isfinite(value):
            raise NonFiniteResultError(statement.target, value)
        env[statement.target] = value
    if "ans" not in env:
        raise NoAnswerError()
    return env["ans"]


def complexity(answer_text: str) -> int:
    """Count line-break characters in raw answer text (comments included)."""
    return answer_text.count("\n")


_TEMP_NAME = re.compile(r"^temp(\d+)$")


def _literal(value: float) -> Expr:
    # parse() never yields negative Num nodes (a leading '-' is unary
    # minus), so constructed programs mirror that for render/parse stability
    if value < 0:
        return Neg(Num(-value))
    return Num(value)


def modify_answer(program: Program, chain: ModificationChain) -> Program:
    """Append a modification chain to a program via ``tempN`` rebinding.

    The last ``ans`` assignment is renamed ``temp<k>``, intermediate chain
    steps become ``temp<k+i> = temp<k+i-1> <op> <operand>`` and the final
    step is written directly into ``ans``.  The input program is never
    mutated.
    """
    statements = list(program.statements)
    ans_index = None
    max_temp = -1
    for i, statement in enumerate(statements):
        if statement.target == "ans":
            ans_index = i
        m = _TEMP_NAME.match(statement.target)
        if m:
            max_temp = max(max_temp, int(m.group(1)))
    if ans_index is None:
        raise NoAnswerError()
    for statement in statements[ans_index + 1 :]:
        if "ans" in references(statement.expression):
            raise UnsupportedConstructError(0, "'ans' referenced after its final assignment")

    k = max_temp + 1
    statements[ans_index] = Assignment(f"temp{k}", statements[ans_index].expression)
    current = f"temp{k}"
    for op, operand in chain.steps[:-1]:
        k += 1
        statements.append(Assignment(f"temp{k}", BinOp(op, Var(current), _literal(float(operand)))))
        current = f"temp{k}"
    last_op, last_operand = chain.steps[-1]
    statements.append(Assignment("ans", BinOp(last_op, Var(current), _literal(float(last_operand)))))

    modified = Program(tuple(statements), "")
    modified = Program(tuple(statements), render(modified))
    modified.value  # surface non-finite chained values to the caller now
    return modified
