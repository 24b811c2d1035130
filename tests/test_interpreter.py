"""Interpreter golden traces, error surfaces and algebraic properties."""

from __future__ import annotations

import contextlib
import operator
import sys
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potselect import interpreter
from potselect.interpreter import (
    Assignment,
    DivisionByZeroError,
    ForwardReferenceError,
    InterpreterError,
    ModificationChain,
    NoAnswerError,
    NonFiniteResultError,
    ProgramSyntaxError,
    UnsupportedConstructError,
    complexity,
    execute,
    modify_answer,
    parse,
    render,
)
from conftest import BOLTS_A, BOLTS_VARIANT_A, DUCK_A, DUCK_MODIFIED_A, HOUSE_A


class TestParse:
    def test_bolts_program_has_three_assignments(self):
        program = parse(BOLTS_A)
        assert len(program.statements) == 3
        assert [s.target for s in program.statements] == [
            "bolts_of_blue_fiber",
            "bolts_of_white_fiber",
            "ans",
        ]

    def test_source_text_preserved_verbatim(self):
        text = "# leading comment\nans = 1\n"
        assert parse(text).source_text == text

    def test_empty_text_gives_empty_program(self):
        assert parse("").statements == ()

    def test_comments_and_blank_lines_dropped(self):
        program = parse("# comment\n\nans = 1\n# trailing")
        assert len(program.statements) == 1

    def test_forward_reference_reports_name_and_line(self):
        with pytest.raises(ForwardReferenceError) as info:
            parse("x = y + 1")
        assert info.value.name == "y"
        assert info.value.line_no == 1

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ProgramSyntaxError) as info:
            parse("a = 1\nb = = 2")
        assert info.value.line_no == 2

    @pytest.mark.parametrize(
        "line",
        [
            "ans = foo(1)",
            "ans = 'text'",
            "ans = 2 ** 3",
            "ans = 7 % 2",
            "ans = True",
            "ans = +5",
            "ans = 1 if 1 else 2",
            "ans, x = 1, 2",
            "ans = 1; x = 2",
            "ans = [1]",
        ],
    )
    def test_constructs_beyond_the_grammar_rejected(self, line):
        with pytest.raises(UnsupportedConstructError):
            parse(line)

    @pytest.mark.parametrize(
        "literal", ["9" * 400, "0x" + "f" * 300, "1e999"], ids=["int", "hex", "float"]
    )
    def test_a_literal_beyond_float_range_is_unsupported(self, literal):
        with pytest.raises(UnsupportedConstructError, match="^line 4: .*literal beyond float range"):
            interpreter.parse_line(f"x = 1 / {literal}", 4)
        with pytest.raises(UnsupportedConstructError) as info:
            parse(f"a = 1\nx = a / {literal}\nans = a")
        assert info.value.line_no == 2

    def test_the_largest_float_is_a_literal(self):
        largest = sys.float_info.max
        for literal in (repr(largest), str(int(largest))):
            program = parse(f"ans = {literal}")
            assert execute(program) == largest
            assert render(program) == f"ans = {int(largest)}"

    def test_aug_assign_rejected(self):
        with pytest.raises((UnsupportedConstructError, ProgramSyntaxError)):
            parse("a = 1\na += 2\nans = a")

    def test_carriage_returns_stripped_on_ingest(self):
        program = parse("a = 1\r\nans = a\r\n")
        assert execute(program) == 1.0


class TestParseMemo:
    """Each distinct line reaches ``ast`` once; errors still name the caller's line."""

    @pytest.mark.parametrize(
        "line, error",
        [
            ("b = = 2", ProgramSyntaxError),
            ("b = 2 ** 3", UnsupportedConstructError),
            # ast.parse raises UnicodeEncodeError, a ValueError, on it: not Python either
            pytest.param("b = 1\ud800", ProgramSyntaxError, id="lone-surrogate"),
        ],
    )
    def test_a_repeated_failing_line_reports_its_own_line_number(self, line, error):
        with pytest.raises(error) as first:
            parse(line)
        with pytest.raises(error) as again:
            parse(f"a = 1\n\n{line}")
        assert (first.value.line_no, again.value.line_no) == (1, 3)
        assert str(again.value).startswith("line 3: ")
        with pytest.raises(error) as direct:
            interpreter.parse_line(line, 7)
        assert direct.value.line_no == 7

    def test_a_memoized_line_after_an_undefined_name_is_a_forward_reference(self):
        assert execute(parse("y = 1\nans = y + 1")) == 2.0
        with pytest.raises(ForwardReferenceError) as info:
            parse("a = 1\n# comment\nans = y + 1")
        assert (info.value.name, info.value.line_no) == ("y", 3)

    def test_memo_stays_bounded_and_equals_an_uncached_parse(self):
        uncached = interpreter._parse_statement.__wrapped__
        lines = [f"v{i} = {i} * 2 - -w" for i in range(interpreter.PARSE_MEMO_SIZE + 50)]
        for line in lines + lines[:50]:  # the first 50 were evicted, so parse again
            assert interpreter.parse_line(line) == uncached(line)
            assert interpreter._parse_statement.cache_info().currsize <= interpreter.PARSE_MEMO_SIZE
        assert interpreter.parse_line(lines[0]) is interpreter.parse_line(lines[0])


class TestExecute:
    def test_bolts_trace(self):
        assert execute(parse(BOLTS_A)) == 3.0

    def test_house_trace(self):
        assert execute(parse(HOUSE_A)) == 70000.0

    def test_duck_traces(self):
        assert execute(parse(DUCK_A)) == 18.0
        assert execute(parse(DUCK_MODIFIED_A)) == 75.0

    def test_bolts_variant_trace(self):
        assert execute(parse(BOLTS_VARIANT_A)) == 6.0

    def test_no_answer(self):
        with pytest.raises(NoAnswerError):
            execute(parse("a = 1"))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            execute(parse("a = 0\nans = 1 / a"))

    def test_overflow_is_non_finite(self):
        with pytest.raises(NonFiniteResultError):
            execute(parse("a = 1e308\nans = a * a"))

    def test_nan_within_one_expression_is_caught(self):
        with pytest.raises(NonFiniteResultError):
            execute(parse("a = 1e308\nans = a * 10 - a * 10"))

    def test_reassignment_allowed_last_binding_wins(self):
        assert execute(parse("ans = 1\nans = 2")) == 2.0

    def test_unary_minus(self):
        assert execute(parse("a = -3\nans = -a * 2")) == 6.0

    def test_determinism_bit_identical(self):
        text = "a = 0.1\nb = 0.2\nans = (a + b) / 3"
        assert execute(parse(text)) == execute(parse(text))

    def test_program_value_executes_once_and_failures_raise_each_time(self, monkeypatch):
        calls = []
        real_execute = interpreter.execute
        monkeypatch.setattr(interpreter, "execute", lambda p: calls.append(p) or real_execute(p))
        program = parse("a = 2\nans = a * 3")
        assert (program.value, program.value) == (6.0, 6.0)
        assert calls == [program]
        failing = parse("a = 0\nans = 1 / a")
        for _ in range(2):
            with pytest.raises(DivisionByZeroError):
                failing.value
        assert len(calls) == 3


class TestComplexity:
    def test_one_break(self):
        assert complexity("a = 1\nans = a") == 1

    def test_trailing_break_counts(self):
        assert complexity("a = 1\nb = 2\nans = a + b\n") == 3

    def test_empty(self):
        assert complexity("") == 0

    def test_comment_lines_count(self):
        assert complexity("# note\nans = 1") == 1

    @settings(max_examples=500, deadline=None)
    @given(st.text(max_size=80), st.text(max_size=80))
    def test_additive_under_joining_break(self, a, b):
        assert complexity(a + "\n" + b) == complexity(a) + complexity(b) + 1


class TestModifyAnswer:
    def test_bolts_times_two_matches_golden_variant(self):
        modified = modify_answer(parse(BOLTS_A), ModificationChain((("*", 2.0),)))
        assert modified.source_text == BOLTS_VARIANT_A
        assert execute(modified) == 6.0

    def test_duck_five_step_chain(self):
        chain = ModificationChain(
            (("*", 3.0), ("+", 8.0), ("+", 5.0), ("+", 9.0), ("-", 1.0))
        )
        modified = modify_answer(parse(DUCK_A), chain)
        assert execute(modified) == 75.0
        assert "temp0 = sold_eggs * dollars_per_egg" in modified.source_text
        assert "temp4 = temp3 + 9" in modified.source_text

    def test_chain_validation_rejects_an_empty_chain(self):
        with pytest.raises(ValueError, match="at least one step"):
            ModificationChain(())

    def test_input_program_unchanged(self):
        program = parse(BOLTS_A)
        before = program.statements
        modify_answer(program, ModificationChain((("+", 1.0),)))
        assert program.statements == before

    def test_temp_numbering_continues_on_remodification(self):
        once = modify_answer(parse(BOLTS_A), ModificationChain((("*", 2.0),)))
        twice = modify_answer(parse(once.source_text), ModificationChain((("+", 3.0),)))
        assert "temp1 = temp0 * 2" in twice.source_text
        assert twice.source_text.endswith("ans = temp1 + 3")
        assert execute(twice) == 9.0

    def test_chain_validation_rejects_divide_by_zero(self):
        with pytest.raises(ValueError):
            ModificationChain((("/", 0.0),))

    def test_chain_validation_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            ModificationChain((("^", 2.0),))

    def test_no_answer_to_modify(self):
        with pytest.raises(NoAnswerError):
            modify_answer(parse("a = 1"), ModificationChain((("+", 1.0),)))

    def test_a_statement_after_the_final_ans_may_follow_it_but_not_read_it(self):
        chain = ModificationChain((("+", 1.0),))
        assert execute(modify_answer(parse("ans = 2\nx = 3"), chain)) == 3.0
        with pytest.raises(
            UnsupportedConstructError, match="'ans' referenced after its final assignment"
        ):
            modify_answer(parse("ans = 2\nx = ans * 3"), chain)

    def test_non_finite_chained_value_propagates(self):
        program = parse("a = 1e308\nans = a")
        with pytest.raises(NonFiniteResultError):
            modify_answer(program, ModificationChain((("*", 9.0),)))

    def test_negative_operands_render_and_reparse_stably(self):
        modified = modify_answer(parse(BOLTS_A), ModificationChain((("+", -2.0), ("*", -1.0))))
        assert execute(modified) == -1.0
        assert parse(modified.source_text).statements == modified.statements


def _safe_integer_program(rng: np.random.Generator, n_statements: int) -> str:
    """Programs whose values stay integral and far below 2**53."""
    lines = []
    names = []
    for i in range(n_statements):
        name = f"v{i}"
        if names and rng.random() < 0.6:
            left = str(rng.choice(names))
            op = str(rng.choice(["+", "-", "*"]))
            right = str(rng.integers(1, 9)) if op == "*" else str(rng.choice(names))
            lines.append(f"{name} = {left} {op} {right}")
        else:
            lines.append(f"{name} = {rng.integers(-100, 101)}")
        names.append(name)
    lines.append(f"ans = {rng.choice(names)}")
    return "\n".join(lines)


def random_program(rng: np.random.Generator, n_statements: int) -> str:
    """General random programs over the full operator set (may divide)."""
    lines = []
    names = []
    for i in range(n_statements):
        name = f"v{i}"
        if names and rng.random() < 0.7:
            left = str(rng.choice(names))
            op = str(rng.choice(["+", "-", "*", "/"]))
            right = str(rng.choice(names)) if rng.random() < 0.5 else str(rng.integers(1, 20))
            lines.append(f"{name} = {left} {op} {right}")
        else:
            lines.append(f"{name} = {rng.integers(-50, 51)}")
        names.append(name)
    lines.append(f"ans = {rng.choice(names)}")
    return "\n".join(lines)


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class TestProperties:
    def test_addition_only_chains_shift_by_operand_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            text = _safe_integer_program(rng, int(rng.integers(1, 7)))
            program = parse(text)
            base = execute(program)
            n_steps = int(rng.integers(1, 5))
            steps = tuple(("+", float(rng.integers(1, 10))) for _ in range(n_steps))
            chain = ModificationChain(steps)
            assert execute(modify_answer(program, chain)) == base + sum(
                operand for _, operand in steps
            )

    def test_chain_fold_matches_modified_execution_bitwise(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(200):
            text = random_program(rng, int(rng.integers(1, 7)))
            program = parse(text)
            try:
                base = execute(program)
            except interpreter.InterpreterError:
                continue
            ops = "+-*/"
            steps = tuple(
                (ops[int(rng.integers(0, 4))], float(rng.integers(1, 10)))
                for _ in range(int(rng.integers(1, 4)))
            )
            chain = ModificationChain(steps)
            try:
                got = execute(modify_answer(program, chain))
            except NonFiniteResultError:
                continue
            folded = base
            for op, operand in steps:
                folded = _OPERATORS[op](folded, operand)
            assert got == folded
            checked += 1
        assert checked > 100

    def test_round_trip_stability_on_random_programs(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            text = random_program(rng, int(rng.integers(1, 8)))
            first = parse(text)
            again = parse(render(first))
            assert again.statements == first.statements

    @pytest.mark.parametrize(
        "text",
        [
            "x = (1 + 2) * 3\nans = x",
            "x = 1 - (2 - 3)\nans = x",
            "x = -(4 + 1)\nans = x / (2 + 3)",
            "x = 2\ny = -x * -x\nans = y - -1",
            "x = 1 / 2 / 4\nans = x",
            "x = 10 - 3 - 2\nans = x",
            "x = 0.5\nans = x * (x + (x * x))",
        ],
    )
    def test_round_trip_stability_on_tricky_sources(self, text):
        first = parse(text)
        assert parse(render(first)).statements == first.statements
        assert execute(parse(render(first))) == execute(first)


@st.composite
def _rendered_programs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    names = []
    lines = []
    for i in range(n):
        name = f"n{i}"
        expr = draw(_expressions(names, depth=2))
        lines.append(f"{name} = {render_expr_text(expr)}")
        names.append(name)
    lines.append(f"ans = {names[-1]}")
    return "\n".join(lines)


def render_expr_text(expr) -> str:
    return interpreter._render_expr(expr)


def _plus_chain(terms: int, term: str = "1") -> str:
    return "ans = " + "+".join([term] * terms)


def _minus_chain(minuses: int, operand: str = "1") -> str:
    return "ans = " + "-" * minuses + operand


class TestNesting:
    """Operator nesting is bounded by ``MAX_NESTING``, not by the call stack."""

    deepest = interpreter.MAX_NESTING

    @pytest.mark.parametrize(
        "line, value",
        [(_plus_chain(deepest + 1, "x"), 2.0 * (deepest + 1)), (_minus_chain(deepest, "x"), 2.0)],
        ids=["plus", "minus"],
    )
    def test_deepest_accepted_line_executes_renders_and_references(self, line, value):
        program = parse("x = 2\n" + line)
        assert execute(program) == value
        assert interpreter.references(program.statements[-1].expression) == {"x"}
        assert parse(render(program)).statements == program.statements

    @pytest.mark.parametrize(
        "line", [_plus_chain(deepest + 2), _minus_chain(deepest + 1), _plus_chain(1200)]
    )
    def test_one_level_deeper_is_unsupported(self, line):
        with pytest.raises(UnsupportedConstructError, match="nested deeper than 200"):
            interpreter.parse_line(line, 4)

    @pytest.mark.parametrize("line", [_plus_chain(5000), _minus_chain(5000)], ids=["plus", "minus"])
    def test_a_line_too_deep_for_ast_is_nested_too_deep(self, line):
        with pytest.raises(UnsupportedConstructError, match="nested deeper than 200") as info:
            interpreter.parse_line(line, 4)
        assert info.value.line_no == 4

    def test_the_bound_holds_at_any_call_depth(self):
        uncached = interpreter._parse_statement.__wrapped__
        line = _plus_chain(self.deepest + 2)

        def nested(frames, parse, line):
            return nested(frames - 1, parse, line) if frames else parse(line)

        assert nested(500, uncached, line) == uncached(line) == "expression nested deeper than 200"
        # ast.parse takes this line at the top of the stack but not 500 frames
        # down; the memo keeps the deep call's outcome for the shallow one
        deep = _plus_chain(2000)
        interpreter._parse_statement.cache_clear()
        for frames in (500, 0):
            with pytest.raises(UnsupportedConstructError, match="nested deeper than 200"):
                nested(frames, interpreter.parse_line, deep)

    def test_a_parse_near_the_stack_limit_leaves_no_outcome_behind(self):
        # a fresh line per depth, down to the bottom of the stack: the parse may
        # fail there, but not as RecursionError, and the top-level parse that
        # follows does not see that failure
        def nested(frames, line):
            if frames:
                return nested(frames - 1, line)
            with contextlib.suppress(InterpreterError):
                interpreter.parse_line(line)

        for frames in range(sys.getrecursionlimit()):
            line = f"v{frames} = 1 + 2"
            try:
                nested(frames, line)
            except RecursionError as exc:
                # only a call parse_line itself makes may find no frame left
                names = {frame.name for frame in traceback.extract_tb(exc.__traceback__)}
                assert "_parse_statement" not in names, frames
            assert interpreter.parse_line(line).target == f"v{frames}"


@st.composite
def _expressions(draw, names, depth):
    choices = ["num"]
    if names:
        choices.append("var")
    if depth > 0:
        choices.extend(["bin", "neg"])
    kind = draw(st.sampled_from(choices))
    if kind == "num":
        return interpreter.Num(float(draw(st.integers(min_value=0, max_value=50))))
    if kind == "var":
        return interpreter.Var(draw(st.sampled_from(names)))
    if kind == "neg":
        return interpreter.Neg(draw(_expressions(names, depth - 1)))
    return interpreter.BinOp(
        draw(st.sampled_from(["+", "-", "*", "/"])),
        draw(_expressions(names, depth - 1)),
        draw(_expressions(names, depth - 1)),
    )


@settings(max_examples=500, deadline=None)
@given(_rendered_programs())
def test_round_trip_property(text):
    program = parse(text)
    assert parse(render(program)).statements == program.statements


def test_render_assignment_helper():
    program = parse("abc = 1 + 2 * 3")
    assert render(program) == "abc = 1 + 2 * 3"
    assert program.statements[0] == Assignment(
        "abc",
        interpreter.BinOp(
            "+", interpreter.Num(1.0), interpreter.BinOp("*", interpreter.Num(2.0), interpreter.Num(3.0))
        ),
    )


# the kinds of line a completion holds: assignments, some reading a name that is
# assigned later or never ("late"), blanks, comments, prose, lines outside the
# dialect, code fences, a stray carriage return and a lone surrogate
_TARGETS = st.sampled_from(("a", "b", "ans", "late"))
_OPERANDS = st.sampled_from(("a", "b", "ans", "late", "2", "3"))
_assignments = st.one_of(
    st.builds("{} = {}".format, _TARGETS, st.integers(0, 9)),
    st.builds("{} = {} {} {}".format, _TARGETS, _OPERANDS, st.sampled_from("+-*/"), _OPERANDS),
)
_completion_lines = st.one_of(
    _assignments,
    _assignments,
    st.sampled_from(
        [
            "", "   ", "# a comment", "  # steps", "The answer is below.", "ans",
            "ans = (1", "print(ans)", "a, b = 1, 2", "x = 'text'", "ans = 2 ** 3",
            "```", "```python", "  ```", "ans = 1\r", "ans = 1\ud800",
        ]
    ),
    st.text(st.characters(blacklist_characters="\r\n"), max_size=12),
)


def _longest_parseable_span(completion: str):
    """``extract_answer_block`` by exhaustion: of the fence-stripped lines, the
    longest span that ``parse`` accepts with an assignment, the earliest of equal
    length, as (statements, the span trimmed of blank lines); None if none."""
    lines = [l for l in completion.replace("\r", "").split("\n") if not l.strip().startswith("```")]
    for length in range(len(lines), 0, -1):
        for start in range(len(lines) - length + 1):
            span = lines[start : start + length]
            try:
                statements = parse("\n".join(span)).statements
            except InterpreterError:
                continue
            if statements:
                while not span[0].strip():
                    span = span[1:]
                while not span[-1].strip():
                    span = span[:-1]
                return statements, "\n".join(span)
    return None


@settings(max_examples=400, deadline=None)
@given(st.lists(_completion_lines, max_size=15), st.sampled_from(["\n", "\r\n"]))
def test_extract_answer_block_takes_the_longest_parseable_span(lines, newline):
    completion = newline.join(lines)
    expected = _longest_parseable_span(completion)
    program = interpreter.extract_answer_block(completion)
    if expected is None:
        assert program is None
    else:
        assert (program.statements, program.source_text) == expected
