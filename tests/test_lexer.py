"""Lexer tests: tokens, literals, comments, and the layout algorithm."""

import pathlib
import random
import re

import pytest

from repro.errors import LexError
from repro.lang import lexer
from repro.lang.lexer import lex, scan
from repro.lang.tokens import TokenType
from repro.prelude.source import PRELUDE_SOURCE
from tests import reference_lexer
from tests.fuzz.corpus import ADVERSARIAL_CORPUS, XMODULE_CORPUS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def kinds(tokens):
    return [t.type for t in tokens]


def values(tokens):
    return [t.value for t in tokens]


class TestScanner:
    def test_simple_identifiers(self):
        toks = scan("foo bar baz'")
        assert values(toks) == ["foo", "bar", "baz'"]
        assert all(t.type is TokenType.VARID for t in toks)

    def test_constructor_names(self):
        toks = scan("Foo Bar123 B'")
        assert all(t.type is TokenType.CONID for t in toks)

    def test_keywords_are_not_identifiers(self):
        toks = scan("let in where case of class instance data")
        assert all(t.type is TokenType.KEYWORD for t in toks)

    def test_integer_literal(self):
        (tok,) = scan("42")
        assert tok.type is TokenType.INT and tok.value == "42"

    def test_float_literal(self):
        (tok,) = scan("3.25")
        assert tok.type is TokenType.FLOAT and tok.value == "3.25"

    def test_float_with_exponent(self):
        (tok,) = scan("1.5e3")
        assert tok.type is TokenType.FLOAT and tok.value == "1.5e3"

    def test_int_then_dot_is_not_float(self):
        toks = scan("1 . 2")
        assert kinds(toks) == [TokenType.INT, TokenType.VARSYM, TokenType.INT]

    def test_char_literal(self):
        (tok,) = scan("'a'")
        assert tok.type is TokenType.CHAR and tok.value == "a"

    def test_char_escapes(self):
        assert scan(r"'\n'")[0].value == "\n"
        assert scan(r"'\t'")[0].value == "\t"
        assert scan(r"'\''")[0].value == "'"
        assert scan(r"'\\'")[0].value == "\\"

    def test_string_literal(self):
        (tok,) = scan('"hello world"')
        assert tok.type is TokenType.STRING and tok.value == "hello world"

    def test_string_escapes(self):
        (tok,) = scan(r'"a\nb\"c"')
        assert tok.value == 'a\nb"c'

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            scan('"abc')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            scan('"abc\ndef"')

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            scan("'a")

    def test_line_comment(self):
        toks = scan("a -- comment here\nb")
        assert values(toks) == ["a", "b"]

    def test_dashes_operator_not_comment(self):
        toks = scan("a --> b")
        assert values(toks) == ["a", "-->", "b"]

    def test_block_comment(self):
        toks = scan("a {- hidden -} b")
        assert values(toks) == ["a", "b"]

    def test_nested_block_comment(self):
        toks = scan("a {- x {- y -} z -} b")
        assert values(toks) == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            scan("a {- x")

    def test_operators(self):
        toks = scan("== /= <= >= ++ && || . $")
        assert all(t.type is TokenType.VARSYM for t in toks)

    def test_reserved_operators(self):
        toks = scan(":: => -> = \\ |")
        assert all(t.type is TokenType.RESERVED_OP for t in toks)

    def test_colon_is_a_plain_operator(self):
        (tok,) = scan(":")
        assert tok.type is TokenType.VARSYM

    def test_specials(self):
        toks = scan("( ) [ ] , ; _ `")
        assert all(t.type is TokenType.SPECIAL for t in toks)

    def test_positions(self):
        toks = scan("ab cd\nef")
        assert (toks[0].pos.line, toks[0].pos.column) == (1, 1)
        assert (toks[1].pos.line, toks[1].pos.column) == (1, 4)
        assert (toks[2].pos.line, toks[2].pos.column) == (2, 1)

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            scan("«")

    def test_cased_symbol_is_unexpected(self):
        # Upper/lower case but not alphanumeric: starts no identifier.
        for ch in "Ⓐⓐ":
            with pytest.raises(LexError) as info:
                scan(f"x = {ch}")
            assert info.value.message == f"unexpected character {ch!r}"
            assert (info.value.pos.line, info.value.pos.column) == (1, 5)

    def test_tab_is_one_column(self):
        toks = scan("\ty\n        z")
        assert (toks[0].pos.line, toks[0].pos.column) == (1, 2)
        assert (toks[1].pos.line, toks[1].pos.column) == (2, 9)

    def test_trailing_blanks(self):
        assert values(scan("x" + " \t\r" * 20000)) == ["x"]


class TestLayout:
    def render(self, source):
        """Token values after layout, with virtual tokens marked."""
        out = []
        for t in lex(source):
            if t.type is TokenType.EOF:
                break
            out.append(("~" + t.value) if t.virtual else t.value)
        return out

    def test_module_opens_implicit_block(self):
        assert self.render("x = 1") == ["~{", "x", "=", "1", "~}"]

    def test_same_column_inserts_semicolons(self):
        out = self.render("x = 1\ny = 2")
        assert out == ["~{", "x", "=", "1", "~;", "y", "=", "2", "~}"]

    def test_continuation_lines_do_not_split(self):
        out = self.render("x = 1 +\n      2")
        assert "~;" not in out

    def test_where_block(self):
        out = self.render("f x = y\n  where y = x")
        assert out == ["~{", "f", "x", "=", "y", "where", "~{", "y", "=",
                       "x", "~}", "~}"]

    def test_let_in_single_line(self):
        out = self.render("v = let x = 1 in x")
        assert out == ["~{", "v", "=", "let", "~{", "x", "=", "1", "~}",
                       "in", "x", "~}"]

    def test_let_block_closed_by_offside_in(self):
        out = self.render("v = let x = 1\n        y = 2\n    in x")
        # both bindings in one block; the in arrives after the implicit
        # close caused by its smaller indentation
        i = out.index("in")
        assert out[i - 1] == "~}"
        assert out.count("~;") == 1

    def test_nested_lets(self):
        source = "v = let a = let b = 1\n            in b\n    in a"
        out = self.render(source)
        assert out.count("in") == 2
        assert out.count("~{") == 3  # module + two let blocks

    def test_case_of_inline_alternatives(self):
        out = self.render("v = case x of\n      A -> 1\n      B -> 2")
        assert out.count("~;") == 1  # between the alternatives

    def test_case_inside_parens_closed_by_bracket(self):
        out = self.render("v = f (case x of A -> 1) y")
        closing = out.index(")")
        assert out[closing - 1] == "~}"

    def test_explicit_braces_respected(self):
        out = self.render("v = let { x = 1; y = 2 } in x")
        assert "~{" not in out[2:]  # only the module block is implicit

    def test_explicit_let_braces_with_in(self):
        out = self.render("v = let { x = 1 } in x")
        assert out.count("~}") == 1  # only the module close

    def test_empty_block_for_offside_keyword(self):
        # 'where' whose body is offside opens and closes immediately
        out = self.render("f = 1 where\ng = 2")
        i = out.index("where")
        assert out[i + 1 : i + 3] == ["~{", "~}"]

    def test_unmatched_explicit_brace(self):
        with pytest.raises(LexError):
            lex("v = let { x = 1 in x")

    def test_stray_closing_brace(self):
        with pytest.raises(LexError):
            lex("v = }")

    def test_deeper_indentation_continues_declaration(self):
        out = self.render("f x =\n    x")
        assert "~;" not in out

    def test_eof_closes_all_blocks(self):
        out = self.render("f x = y\n  where y = case x of\n          A -> 1")
        assert out[-3:] == ["~}", "~}", "~}"]


# --------------------------------------------------------------------------
# Differential: the compiled-pattern lexer against the character scanner
# --------------------------------------------------------------------------

#: Pieces random texts are drawn from: every lexeme class, the non-ASCII
#: letters and digits whose ``str`` predicates decide a token (``ǅ`` is
#: titlecase, ``²`` a digit that is not decimal, ``Ⅻ`` an upper-case
#: number, ``Ⓐ`` a cased non-alphanumeric), a blank the scanner does not
#: skip (``\x0b``), comment and float corner cases, literals and their
#: escapes (a raw newline in quotes too), and the layout keywords.
PIECES = [
    "é", "ǅ", "٣", "²", "Ⅻ", "Ⓐ", "ⓐ", "«", "\t", "\r", "\x0b", "\n",
    " ", "    ", "{-", "-}", "--", "-->", "---", "--|", "1.5e", "1.5e+",
    "1.5E-3", "1.5", "1.", "42", "0", "e", "E", "x", "y'", "Foo", "_",
    "_a", "'a'", r"'\n'", "'\n'", r"'\q'", "'\\", "'", "'''", '"',
    r'"a\tb\"c"', '"\\', r'"\0"', '"ab\n"', "\\", "let", "in", "where",
    "of", "case", "module", "import", "(", ")", "[", "]", "{", "}", ",",
    ";", "`", "=", "::", "=>", "->", "+", ".", ":", "|", "@", "~", "..",
]


#: Layout corners no corpus program reaches: a ')' inside explicit
#: braces takes no bracket depth below zero, and an 'in' whose let-block
#: a bracket already closed is absorbed even while another let is open.
LAYOUT_CORNERS = [
    "f = x where\n y = let { ) } in (z)",
    "f = x where\n y = let { ) } ( ) z",
    "v = (let a = 1) + let b = a in b",
    "v = [let a = 1] ++ let b = a in b",
]


def _corpus():
    texts = [PRELUDE_SOURCE] + LAYOUT_CORNERS
    texts += [src for _name, src in ADVERSARIAL_CORPUS]
    texts += [src for _name, specs in XMODULE_CORPUS for _m, src in specs]
    for path in sorted((ROOT / "examples").rglob("*")):
        if path.suffix in (".mhs", ".py"):
            texts.append(path.read_text(encoding="utf-8"))
    return texts


def _random_texts(rng, count):
    for _ in range(count):
        yield "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 14)))


def _mutated_texts(rng, corpus, count):
    """Windows of the corpus with pieces inserted, spans deleted and
    characters replaced."""
    for _ in range(count):
        src = rng.choice(corpus)
        start = rng.randint(0, len(src))
        text = src[start:start + rng.randint(1, 120)]
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, len(text))
            op = rng.randrange(3)
            if op == 0:
                text = text[:i] + rng.choice(PIECES) + text[i:]
            elif op == 1:
                text = text[:i] + text[i + rng.randint(1, 4):]
            else:
                text = text[:i] + rng.choice(PIECES)[0] + text[i + 1:]
        yield text


def _assert_same(text):
    for ours, ref in ((lexer.scan, reference_lexer.scan),
                      (lexer.lex, reference_lexer.lex)):
        got = reference_lexer.outcome(ours, text, "T.mhs")
        want = reference_lexer.outcome(ref, text, "T.mhs")
        assert got == want, (ours.__name__, text)


class TestDifferential:
    def test_corpus_lexes_like_the_reference(self):
        for text in _corpus():
            _assert_same(text)

    def test_random_and_mutated_texts_lex_like_the_reference(self):
        rng = random.Random(20)
        corpus = _corpus()
        texts = list(_random_texts(rng, 14000))
        texts += _mutated_texts(rng, corpus, 7000)
        errors = 0
        for text in texts:
            _assert_same(text)
            errors += isinstance(reference_lexer.outcome(lex, text), tuple)
        # Both outcomes are exercised in bulk.
        assert 2000 < errors < len(texts) - 2000

    def test_digit_class_is_str_isdigit(self):
        every = "".join(map(chr, range(0x110000)))
        digits = set(re.findall(lexer._DIGIT, every))
        assert digits == {ch for ch in every if ch.isdigit()}
        # ``\w`` continues an identifier exactly where the reference's
        # ``isalnum() or in "_'"`` does.
        word = set(re.findall(r"\w", every))
        assert word == {ch for ch in every if ch.isalnum()} | {"_"}
