"""``graphs._FastLexer`` against pycparser's ``CLexer``, token for token.

The fast lexer must hand the parser exactly ``CLexer``'s tokens (type, value,
line and column) and call the brace and error callbacks at the same points
of the stream; otherwise a ``TYPEID`` or a scope would change under it.
"""

from __future__ import annotations

import functools
from dataclasses import fields

import pycparser
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pycparser import c_lexer
from pycparser.c_lexer import CLexer

from fixtures import CONTROL_PLUMBING, GOTO_TANGLES, TYPE_PLUMBING, c_functions, corpus_functions, nested_ifs
from test_hostile_inputs import LONG_EXPRESSIONS, SHAPES, _long_expression

from vulncontext import graphs
from vulncontext.errors import SourceTooDeepError
from vulncontext.graphs import _HEADER_TYPEDEFS, _FastLexer, _HeaderTypedefParser, parse

# Typedef names the recorded lookups answer True for: the header names, the
# one ``TYPE_PLUMBING`` declares, a ``c_functions`` variable and a literal
# prefix, so ``TYPEID`` shows up next to every other token kind.
_TYPE_NAMES = {*_HEADER_TYPEDEFS, "word", "b", "L"}


def _lex(lexer_class, code: str) -> list[tuple]:
    """Every token and callback ``lexer_class`` produces on ``code``, in order."""
    events: list[tuple] = []
    lexer = lexer_class(
        error_func=lambda msg, line, column: events.append(("error", msg, line, column)),
        on_lbrace_func=lambda: events.append(("on_lbrace",)),
        on_rbrace_func=lambda: events.append(("on_rbrace",)),
        type_lookup_func=_TYPE_NAMES.__contains__,
    )
    lexer.input(code, "input.c")
    while (tok := lexer.token()) is not None:
        events.append((tok.type, tok.value, tok.lineno, tok.column))
    events.append(("filename", lexer.filename))
    return events


def _assert_same_tokens(code: str) -> None:
    assert _lex(_FastLexer, code) == _lex(CLexer, code), code


@functools.cache
def _generated_sample() -> tuple[str, ...]:
    """The sources of 200 derandomized ``c_functions`` draws."""
    sample: list[str] = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(fn=c_functions())
    def collect(fn):
        sample.append(fn.code)

    collect()
    return tuple(sample)


FIXED_INPUTS = [
    *[pytest.param(fn.code, id=f"corpus-{fn.id}") for fn in corpus_functions()],
    pytest.param(TYPE_PLUMBING, id="type-plumbing"),
    pytest.param(CONTROL_PLUMBING, id="control-plumbing"),
    *[pytest.param(code, id=f"goto-tangle-{i}") for i, code in enumerate(GOTO_TANGLES)],
    *[pytest.param(shape.values[0].code, id=f"hostile-{shape.id}") for shape in SHAPES],
    *[
        pytest.param(_long_expression(*shape.values).code, id=f"hostile-{shape.id}")
        for shape in LONG_EXPRESSIONS
        if shape.values[2] == 248
    ],
]


@pytest.mark.parametrize("code", FIXED_INPUTS)
def test_fixed_inputs_lex_to_clexers_tokens(code):
    _assert_same_tokens(code)


def test_generated_functions_lex_to_clexers_tokens():
    sample = _generated_sample()
    assert len(sample) == 200
    for code in sample:
        _assert_same_tokens(code)


# Pieces that sit at the edges of the fast path: prefixed literals that start
# like identifiers, numbers that start like plain integers, punctuators that
# start like comments, floats or ellipses, directives, and characters C does
# not allow.
TOKEN_SOUP = (
    'u8"x"', "L'a'", 'U"s"', "u'c'", 'L"w"', "u8'c'", '"s"', "'c'", "'ab'", "'", '"', "\\",
    "u", "u8", "L", "U", "a", "b", "_x1", "$", "size_t", "word", "int", "if", "_Bool", "sizeof",
    ".5", "3.f", "3.", "1e5", "1.5e-3", "0x1f", "0x1.8p3", "0b101", "077", "08", "0", "7", "12", "12u", "12ll",
    "/=", "/* */", "//", "/", "...", ".", "->", "-", "<<=", "<<", "<", ">>=", "++", "+=", "&&", "||",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", "?", "~", "!=", "==", "=", "%", "^", "|", "*",
    "#pragma x\n", "#pragma\n", "#line 5\n", '# 9 "f.h" 1\n', "#line x\n", "#",
    " ", "\t", "\n", "\r", "\f", "@", "`", "é", "aé",
)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(code=st.lists(st.sampled_from(TOKEN_SOUP), max_size=24).map("".join))
def test_token_soup_lexes_to_clexers_tokens(code):
    _assert_same_tokens(code)


def test_most_tokens_take_the_fast_path(monkeypatch):
    # A fast regex that silently stopped matching would only make lexing
    # slower; this fails it by name instead.  ``CLexer`` makes each of its
    # tokens with ``_make_token``; the fast path never calls it.
    fallbacks = 0
    make_token = CLexer._make_token

    def counting_make_token(self, *args):
        nonlocal fallbacks
        fallbacks += 1
        return make_token(self, *args)

    monkeypatch.setattr(CLexer, "_make_token", counting_make_token)
    codes = [fn.code for fn in corpus_functions()] + list(_generated_sample())
    tokens = sum(sum(len(event) == 4 and event[0] != "error" for event in _lex(_FastLexer, code)) for code in codes)
    assert tokens > 10_000
    assert 1 - fallbacks / tokens >= 0.9, f"{fallbacks} of {tokens} tokens fell back to CLexer"
    # A keyword, an identifier, a decimal integer and punctuators, each fast.
    fallbacks = 0
    _lex(_FastLexer, "{ int x = 12 + y; }")
    assert fallbacks == 0


def test_pycparser_still_has_the_internals_the_fast_lexer_reads():
    lexer = CLexer(lambda *args: None, lambda: None, lambda: None, lambda name: False)
    lexer.input("x", "input.c")
    missing = [name for name in ("_lexdata", "_pos", "_lineno", "_line_start", "_pending_tok") if name not in vars(lexer)]
    missing += [name for name in ("_Token", "_keyword_map", "_fixed_tokens") if not hasattr(c_lexer, name)]
    assert not missing, f"pycparser {pycparser.__version__} lacks {missing}"
    assert [f.name for f in fields(c_lexer._Token)] == ["type", "value", "lineno", "column"], pycparser.__version__
    assert c_lexer._keyword_map["while"] == "WHILE", pycparser.__version__
    assert {(t.tok_type, t.literal) for t in c_lexer._fixed_tokens} >= {("LBRACE", "{"), ("ARROW", "->")}, (
        pycparser.__version__
    )


def _first_refused(make_fn) -> int:
    """The smallest size whose function ``parse`` refuses as too deep."""
    lo, hi = 1, 1000
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            parse(make_fn(mid))
        except SourceTooDeepError:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _at_depth(frames: int, call):
    return call() if frames == 0 else _at_depth(frames - 1, call)


def test_the_fast_lexer_never_lowers_a_depth_limit(monkeypatch):
    # Outside directives, every token lexes at most as deep as under
    # ``CLexer``: a fast token up to two frames shallower, any other from
    # ``_match_token`` called as ``CLexer.token`` calls it.  A nested ``if``
    # costs seven frames, so over seven caller depths the fast lexer may take
    # one more ``if`` at some, and never one fewer; the expression limit is
    # the lowering's, not the parser's.
    shapes = {"nested ifs": nested_ifs, "+ terms": lambda terms: _long_expression("+", "return", terms)}
    limits = {}
    for lexer_class in (_FastLexer, CLexer):
        monkeypatch.setattr(graphs, "_HeaderTypedefParser", functools.partial(_HeaderTypedefParser, lexer=lexer_class))
        limits[lexer_class] = [
            {name: _at_depth(frames, lambda: _first_refused(make_fn)) for name, make_fn in shapes.items()}
            for frames in range(7)
        ]
    for fast, clexer in zip(limits[_FastLexer], limits[CLexer]):
        assert 1 < clexer["nested ifs"] <= fast["nested ifs"] <= clexer["nested ifs"] + 1, limits
        assert 1 < clexer["+ terms"] == fast["+ terms"] < 1000, limits
