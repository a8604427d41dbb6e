"""The Mini-Haskell lexer, including the layout (offside) algorithm.

Lexing happens in two passes:

1. :func:`scan` turns source text into a list of raw tokens, skipping
   whitespace and both comment forms (``-- line`` and nested
   ``{- block -}``).  One compiled pattern, :data:`_TOKEN`, matches a
   whole lexeme at a time; a token's line and column come from the
   offsets of the newlines passed so far.
2. :func:`apply_layout` implements the layout rule: after ``let``,
   ``where`` and ``of`` (when not followed by an explicit ``{``) an
   implicit block opens at the column of the next token; subsequent
   lines at that column receive an implicit ``;`` and lines to the left
   close the block with an implicit ``}``.  The classic "parse-error"
   clause of the Haskell report is approximated by closing implicit
   blocks before ``in`` and before unbalanced closing brackets, which
   covers all idiomatic programs in this subset.

:func:`lex` composes the two.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexError, SourcePos
from repro.lang.tokens import (
    KEYWORDS,
    LAYOUT_KEYWORDS,
    RESERVED_OPS,
    SYMBOL_CHARS,
    Token,
    TokenType,
)

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "0": "\0",
}

#: One character that ``str.isdigit`` accepts.  ``re``'s ``\d`` is only
#: the decimal digits (Unicode Nd), so the other digits (``²``, ``①``,
#: Ethiopic ``፩`` ...) are listed; tests/test_lexer.py checks the class
#: against ``str.isdigit`` for every code point.
_DIGIT = ("[\\d\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079"
          "\u2080-\u2089\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea"
          "\u24f5-\u24fd\u24ff\u2776-\u277e\u2780-\u2788\u278a-\u2792"
          "\U00010a40-\U00010a43\U00010e60-\U00010e68"
          "\U00011052-\U0001105a\U0001f100-\U0001f10a]")


def _char_class(chars) -> str:
    return "[" + re.escape("".join(sorted(chars))) + "]"


_SYMBOL = _char_class(SYMBOL_CHARS)
_ESCAPE = "\\\\[" + re.escape("".join(_ESCAPES)) + "]"

#: Every lexeme with the blanks before it, tried in this order at each
#: offset.  ``\w`` is ``str.isalnum`` or ``_``, the identifier
#: characters.  ``--`` opens a line comment unless a symbol character
#: other than ``-`` follows (``-->`` is an operator).  A float needs a
#: digit after the dot (``1.`` is ``1`` then ``.``, composition after a
#: literal), and an ``e`` after its fraction must be followed by digits:
#: :func:`scan` rejects a ``float`` match ending in ``e``, ``+`` or
#: ``-``.  A non-ASCII lexeme that is not a number (``unicode``) is told
#: apart by ``str.islower``/``isupper`` on its first character, and
#: ``bad`` takes one character that starts no lexeme, including a quote
#: that opens no well-formed literal.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<newline>\n(?:[ \t\r]*\n)*)"
    r"|(?P<varid>[a-z_][\w']*)"
    r"|(?P<block>\{-)"
    r"|(?P<special>[()\[\]{},;`])"
    rf"|(?P<comment>--(?!{_char_class(SYMBOL_CHARS - {'-'})})[^\n]*)"
    rf"|(?P<varsym>{_SYMBOL}+)"
    r"|(?P<conid>[A-Z][\w']*)"
    rf"|(?P<float>{_DIGIT}+\.{_DIGIT}+(?:[eE][+-]?{_DIGIT}*)?)"
    rf"|(?P<int>{_DIGIT}+)"
    rf"|(?P<string>\"(?:[^\"\\\n]|{_ESCAPE})*\")"
    rf"|(?P<char>'(?:[^\\]|{_ESCAPE})')"
    r"|(?P<unicode>[^\x00-\x7f][\w']*)"
    r"|(?P<bad>[\s\S]))"
)

_STRING_BODY = re.compile(rf"(?:[^\"\\\n]|{_ESCAPE})*")
_UNESCAPE = re.compile(r"\\(.)")
_NESTING = re.compile(r"\{-|-\}")


def scan(text: str, filename: str = "<input>") -> List[Token]:
    """Scan *text* into raw tokens (no layout processing, no EOF token)."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the current line's first character
    # Every offset before *stop* starts a match, so the matches tile the
    # text; the blanks after it would match nothing.
    stop = len(text.rstrip(" \t\r"))
    resume = 0
    while resume >= 0:
        # A block comment restarts the match after its close: inside it
        # a quote or ``--`` must not start a lexeme.
        matches = _TOKEN.finditer(text, resume, stop)
        resume = -1
        for m in matches:
            kind = m.lastgroup
            value = m.group(kind)
            if kind == "newline":
                line += value.count("\n")
                line_start = m.end()
                continue
            start = m.start(kind)
            pos = SourcePos(line, start - line_start + 1, filename)
            if kind == "varid":
                if value in KEYWORDS:
                    append(Token(TokenType.KEYWORD, value, pos))
                elif value == "_":
                    append(Token(TokenType.SPECIAL, value, pos))
                else:
                    append(Token(TokenType.VARID, value, pos))
            elif kind == "special":
                append(Token(TokenType.SPECIAL, value, pos))
            elif kind == "varsym":
                append(Token(TokenType.RESERVED_OP if value in RESERVED_OPS
                             else TokenType.VARSYM, value, pos))
            elif kind == "conid":
                append(Token(TokenType.CONID, value, pos))
            elif kind == "comment":
                continue
            elif kind == "int":
                append(Token(TokenType.INT, value, pos))
            elif kind == "float":
                if value[-1] in "eE+-":
                    raise LexError(
                        "malformed exponent in float literal",
                        SourcePos(line, pos.column + len(value), filename))
                append(Token(TokenType.FLOAT, value, pos))
            elif kind == "string":
                body = value[1:-1]
                if "\\" in body:
                    body = _UNESCAPE.sub(lambda e: _ESCAPES[e.group(1)], body)
                append(Token(TokenType.STRING, body, pos))
            elif kind == "char":
                ch = value[1:-1]
                if ch == "\n":
                    line += 1
                    line_start = start + 2
                append(Token(TokenType.CHAR, _ESCAPES[ch[1]]
                             if len(ch) == 2 else ch, pos))
            elif kind == "block":
                resume = _block_comment_end(text, start, pos)
                newlines = text.count("\n", start, resume)
                if newlines:
                    line += newlines
                    line_start = text.rindex("\n", start, resume) + 1
                break
            elif kind == "unicode":
                ch = value[0]
                if ch.isalnum() and ch.islower():
                    append(Token(TokenType.VARID, value, pos))
                elif ch.isalnum() and ch.isupper():
                    append(Token(TokenType.CONID, value, pos))
                else:
                    raise LexError(f"unexpected character {ch!r}", pos)
            elif value == "'":
                raise LexError(_char_error(text, start), pos)
            elif value == '"':
                raise LexError(_string_error(text, start), pos)
            else:
                raise LexError(f"unexpected character {value!r}", pos)
    return tokens


def _block_comment_end(text: str, start: int, pos: SourcePos) -> int:
    """Offset just past the ``-}`` closing the comment opened at
    *start*; comments nest."""
    depth = 1
    for m in _NESTING.finditer(text, start + 2):
        depth += 1 if m.group() == "{-" else -1
        if not depth:
            return m.end()
    raise LexError("unterminated block comment", pos)


def _char_error(text: str, start: int) -> str:
    """Why the ``'`` at *start* opens no well-formed character literal."""
    if text.startswith("\\", start + 1):
        if start + 2 == len(text):
            return "unterminated escape in character literal"
        if text[start + 2] not in _ESCAPES:
            return f"unknown escape '\\{text[start + 2]}'"
    return "unterminated character literal"


def _string_error(text: str, start: int) -> str:
    """Why the ``"`` at *start* opens no well-formed string literal: the
    first character its body cannot take is the end of the input, a
    newline, or a backslash that starts no escape."""
    bad = _STRING_BODY.match(text, start + 1).end()
    if bad == len(text):
        return "unterminated string literal"
    if text[bad] == "\n":
        return "newline in string literal"
    if bad + 1 == len(text):
        return "unterminated escape in string literal"
    return f"unknown escape '\\{text[bad + 1]}'"




# --------------------------------------------------------------------------
# Layout
# --------------------------------------------------------------------------

_EXPLICIT = -1  # column marker for an explicit '{' context on the layout stack


class _Ctx:
    """One entry of the layout stack.

    ``column`` is the indentation of the implicit block (or ``_EXPLICIT``
    for user-written braces, below every token's column, so the offside
    comparisons never close one); ``depth`` records the bracket nesting
    depth at which the block was opened, so that an unbalanced ``)`` or
    ``]`` can close every implicit block opened inside the brackets — the
    specialisation of the report's parse-error rule that covers
    expressions like ``f (case x of True -> 1)``.  ``is_let`` marks
    blocks opened by the ``let`` keyword: those must eventually be
    matched by ``in``, and the bookkeeping around them approximates the
    report's parse-error rule for ``let ... in``.
    """

    __slots__ = ("column", "depth", "is_let")

    def __init__(self, column: int, depth: int, is_let: bool) -> None:
        self.column = column
        self.depth = depth
        self.is_let = is_let


def apply_layout(tokens: List[Token], filename: str = "<input>") -> List[Token]:
    """Insert implicit braces and semicolons per the offside rule."""
    SPECIAL = TokenType.SPECIAL
    out: List[Token] = []
    append = out.append
    stack: List[_Ctx] = []
    depth = 0  # current ( [ nesting depth
    # Module start opens an implicit block — unless the file begins with
    # a ``module M where`` header, whose ``where`` (a layout keyword)
    # opens the top-level block itself (the report's special case for
    # the module header).
    expecting_block = bool(tokens) and not tokens[0].is_keyword("module")
    block_is_let = False
    # Number of let-blocks already closed (by the offside rule, an
    # explicit '}', or a bracket) whose 'in' has not arrived yet.  When
    # 'in' arrives and this is positive, the block is already closed and
    # no extra '}' must be emitted.
    lets_awaiting_in = 0
    last_line = 0

    for tok in tokens:
        value = tok.value
        pos = tok.pos
        special = tok.type is SPECIAL
        if expecting_block:
            expecting_block = False
            is_let = block_is_let
            block_is_let = False
            if special and value == "{":
                stack.append(_Ctx(_EXPLICIT, depth, is_let))
                append(tok)
                last_line = pos.line
                continue
            if stack and pos.column <= stack[-1].column:
                # The block would be empty: open and close immediately,
                # then process the token against the enclosing context.
                append(Token(SPECIAL, "{", pos, virtual=True))
                append(Token(SPECIAL, "}", pos, virtual=True))
                if is_let:
                    lets_awaiting_in += 1
            else:
                stack.append(_Ctx(pos.column, depth, is_let))
                append(Token(SPECIAL, "{", pos, virtual=True))
                last_line = pos.line
                # First token of the block gets no leading ';'; process
                # any bracket/keyword effects it carries.
                append(tok)
                if tok.type is TokenType.KEYWORD and value in LAYOUT_KEYWORDS:
                    expecting_block = True
                    block_is_let = value == "let"
                elif special and (value == "(" or value == "["):
                    depth += 1
                continue
        if pos.line > last_line:
            column = pos.column
            while stack and column < stack[-1].column:
                append(Token(SPECIAL, "}", pos, virtual=True))
                if stack.pop().is_let:
                    lets_awaiting_in += 1
            if stack and column == stack[-1].column:
                append(Token(SPECIAL, ";", pos, virtual=True))
            last_line = pos.line
        if special:
            if value == "(" or value == "[":
                depth += 1
            elif value == ")" or value == "]":
                # Close implicit blocks opened inside these brackets.
                while stack and stack[-1].column != _EXPLICIT \
                        and stack[-1].depth >= depth:
                    append(Token(SPECIAL, "}", pos, virtual=True))
                    if stack.pop().is_let:
                        lets_awaiting_in += 1
                if depth:
                    depth -= 1
            elif value == "{":
                stack.append(_Ctx(_EXPLICIT, depth, False))
            elif value == "}":
                if not stack or stack[-1].column != _EXPLICIT:
                    raise LexError(
                        "unexpected '}' with no open explicit block", pos)
                if stack.pop().is_let:
                    lets_awaiting_in += 1
        elif tok.type is TokenType.KEYWORD:
            if value == "in":
                # `in` terminates a let-block (parse-error rule).  If the
                # block was already closed (offside / '}' / bracket), the
                # counter absorbs this 'in'; otherwise close implicit
                # blocks up to and including the nearest implicit
                # let-block.
                if lets_awaiting_in:
                    lets_awaiting_in -= 1
                else:
                    # Only the contiguous run of implicit blocks on top of
                    # the stack may be closed; an explicit '{' bars
                    # popping.
                    let_in_run = False
                    for ctx in reversed(stack):
                        if ctx.column == _EXPLICIT:
                            break
                        if ctx.is_let:
                            let_in_run = True
                            break
                    if let_in_run:
                        while stack and stack[-1].column != _EXPLICIT:
                            append(Token(SPECIAL, "}", pos, virtual=True))
                            if stack.pop().is_let:
                                break
            elif value in LAYOUT_KEYWORDS:
                expecting_block = True
                block_is_let = value == "let"
        append(tok)

    eof_pos = tokens[-1].pos if tokens else SourcePos(1, 1, filename)
    while stack:
        if stack.pop().column == _EXPLICIT:
            raise LexError("unclosed '{' at end of input", eof_pos)
        append(Token(SPECIAL, "}", eof_pos, virtual=True))
    append(Token(TokenType.EOF, "", eof_pos))
    return out


def lex(text: str, filename: str = "<input>") -> List[Token]:
    """Scan *text* and apply the layout algorithm.

    The result always ends with a single EOF token.
    """
    return apply_layout(scan(text, filename), filename)
