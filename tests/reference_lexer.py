"""A character-at-a-time lexer: the reference that
:mod:`repro.lang.lexer` must agree with on every input.

It tests one character at a time with ``str`` predicates, the plainest
reading of the lexical rules.  ``tests/test_lexer.py`` and the fuzz
runner (``tests/fuzz/run_fuzz.py``) compare the two on the prelude, the
examples, the fuzz corpora and seeded random texts: same tokens (type,
value, line, column, filename, virtual) and same ``LexError`` message
and position.  A cased character that is not alphanumeric (``Ⓐ``,
``ⓐ``) starts no identifier, so it is an "unexpected character".

:func:`outcome` is the comparison's unit: the token list, or the error.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.errors import LexError, SourcePos
from repro.lang.tokens import (
    KEYWORDS,
    LAYOUT_KEYWORDS,
    RESERVED_OPS,
    SYMBOL_CHARS,
    Token,
    TokenType,
)

_SPECIALS = "()[]{},;`_"

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "0": "\0",
}


class _Scanner:
    """Character-level scanner state."""

    def __init__(self, text: str, filename: str) -> None:
        self.text = text
        self.filename = filename
        self.offset = 0
        self.line = 1
        self.column = 1

    def pos(self) -> SourcePos:
        return SourcePos(self.line, self.column, self.filename)

    def peek(self, ahead: int = 0) -> Optional[str]:
        idx = self.offset + ahead
        if idx < len(self.text):
            return self.text[idx]
        return None

    def advance(self) -> str:
        ch = self.text[self.offset]
        self.offset += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def done(self) -> bool:
        return self.offset >= len(self.text)


def scan(text: str, filename: str = "<input>") -> List[Token]:
    """Scan *text* into raw tokens (no layout processing, no EOF token)."""
    s = _Scanner(text, filename)
    tokens: List[Token] = []
    while not s.done():
        ch = s.peek()
        assert ch is not None
        if ch in " \t\r\n":
            s.advance()
            continue
        if ch == "-" and s.peek(1) == "-" and not _is_operator_start(s.peek(2)):
            while not s.done() and s.peek() != "\n":
                s.advance()
            continue
        if ch == "{" and s.peek(1) == "-":
            _skip_block_comment(s)
            continue
        start = s.pos()
        if ch.isdigit():
            tokens.append(_scan_number(s, start))
        elif ch.islower() or ch == "_":
            tokens.append(_scan_name(s, start))
        elif ch.isupper():
            tokens.append(_scan_conid(s, start))
        elif ch == "'":
            tokens.append(_scan_char(s, start))
        elif ch == '"':
            tokens.append(_scan_string(s, start))
        elif ch in _SPECIALS:
            s.advance()
            tokens.append(Token(TokenType.SPECIAL, ch, start))
        elif ch in SYMBOL_CHARS:
            tokens.append(_scan_symbol(s, start))
        else:
            raise LexError(f"unexpected character {ch!r}", start)
    return tokens


def _is_operator_start(ch: Optional[str]) -> bool:
    """True when `--xyz` is really an operator like `-->` rather than a
    line comment."""
    return ch is not None and ch in SYMBOL_CHARS and ch != "-"


def _skip_block_comment(s: _Scanner) -> None:
    start = s.pos()
    s.advance()  # {
    s.advance()  # -
    depth = 1
    while depth > 0:
        if s.done():
            raise LexError("unterminated block comment", start)
        if s.peek() == "{" and s.peek(1) == "-":
            s.advance()
            s.advance()
            depth += 1
        elif s.peek() == "-" and s.peek(1) == "}":
            s.advance()
            s.advance()
            depth -= 1
        else:
            s.advance()


def _scan_number(s: _Scanner, start: SourcePos) -> Token:
    digits = []
    while not s.done() and s.peek().isdigit():
        digits.append(s.advance())
    # A float needs a digit after the dot: "1.5" yes, "1." no (that is
    # `1 .` — composition after a literal).
    nxt = s.peek()
    if nxt == "." and s.peek(1) is not None and s.peek(1).isdigit():
        digits.append(s.advance())
        while not s.done() and s.peek().isdigit():
            digits.append(s.advance())
        if s.peek() in ("e", "E"):
            exp = [s.advance()]
            if s.peek() in ("+", "-"):
                exp.append(s.advance())
            if s.peek() is not None and s.peek().isdigit():
                while not s.done() and s.peek().isdigit():
                    exp.append(s.advance())
                digits.extend(exp)
            else:  # not an exponent after all; cannot rewind cheaply
                raise LexError("malformed exponent in float literal",
                               SourcePos(s.line, s.column, s.filename))
        return Token(TokenType.FLOAT, "".join(digits), start)
    return Token(TokenType.INT, "".join(digits), start)


def _scan_name(s: _Scanner, start: SourcePos) -> Token:
    chars = []
    while not s.done() and (s.peek().isalnum() or s.peek() in "_'"):
        chars.append(s.advance())
    if not chars:
        raise LexError(f"unexpected character {s.peek()!r}", start)
    word = "".join(chars)
    if word == "_":
        return Token(TokenType.SPECIAL, "_", start)
    if word in KEYWORDS:
        return Token(TokenType.KEYWORD, word, start)
    return Token(TokenType.VARID, word, start)


def _scan_conid(s: _Scanner, start: SourcePos) -> Token:
    chars = []
    while not s.done() and (s.peek().isalnum() or s.peek() in "_'"):
        chars.append(s.advance())
    if not chars:
        raise LexError(f"unexpected character {s.peek()!r}", start)
    return Token(TokenType.CONID, "".join(chars), start)


def _scan_symbol(s: _Scanner, start: SourcePos) -> Token:
    chars = []
    while not s.done() and s.peek() in SYMBOL_CHARS:
        chars.append(s.advance())
    op = "".join(chars)
    if op in RESERVED_OPS:
        return Token(TokenType.RESERVED_OP, op, start)
    return Token(TokenType.VARSYM, op, start)


def _scan_char(s: _Scanner, start: SourcePos) -> Token:
    s.advance()  # opening quote
    if s.done():
        raise LexError("unterminated character literal", start)
    ch = s.advance()
    if ch == "\\":
        if s.done():
            raise LexError("unterminated escape in character literal", start)
        esc = s.advance()
        if esc not in _ESCAPES:
            raise LexError(f"unknown escape '\\{esc}'", start)
        ch = _ESCAPES[esc]
    if s.done() or s.peek() != "'":
        raise LexError("unterminated character literal", start)
    s.advance()
    return Token(TokenType.CHAR, ch, start)


def _scan_string(s: _Scanner, start: SourcePos) -> Token:
    s.advance()  # opening quote
    chars = []
    while True:
        if s.done():
            raise LexError("unterminated string literal", start)
        ch = s.advance()
        if ch == '"':
            break
        if ch == "\n":
            raise LexError("newline in string literal", start)
        if ch == "\\":
            if s.done():
                raise LexError("unterminated escape in string literal", start)
            esc = s.advance()
            if esc not in _ESCAPES:
                raise LexError(f"unknown escape '\\{esc}'", start)
            ch = _ESCAPES[esc]
        chars.append(ch)
    return Token(TokenType.STRING, "".join(chars), start)


# --------------------------------------------------------------------------
# Layout
# --------------------------------------------------------------------------

_EXPLICIT = -1  # column marker for an explicit '{' context on the layout stack


class _Ctx:
    """One entry of the layout stack.

    ``column`` is the indentation of the implicit block (or ``_EXPLICIT``
    for user-written braces); ``depth`` records the bracket nesting depth
    at which the block was opened, so that an unbalanced ``)`` or ``]``
    can close every implicit block opened inside the brackets — the
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
    out: List[Token] = []
    stack: List[_Ctx] = []
    i = 0
    n = len(tokens)
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

    def vtok(value: str, pos: SourcePos) -> Token:
        return Token(TokenType.SPECIAL, value, pos, virtual=True)

    def top_implicit() -> bool:
        return bool(stack) and stack[-1].column != _EXPLICIT

    def pop_ctx() -> None:
        nonlocal lets_awaiting_in
        ctx = stack.pop()
        if ctx.is_let:
            lets_awaiting_in += 1

    while i < n:
        tok = tokens[i]
        if expecting_block:
            expecting_block = False
            is_let = block_is_let
            block_is_let = False
            if tok.is_special("{"):
                stack.append(_Ctx(_EXPLICIT, depth, is_let))
                out.append(tok)
                last_line = tok.pos.line
                i += 1
                continue
            if top_implicit() and tok.pos.column <= stack[-1].column:
                # The block would be empty: open and close immediately,
                # then process the token against the enclosing context.
                out.append(vtok("{", tok.pos))
                out.append(vtok("}", tok.pos))
                if is_let:
                    lets_awaiting_in += 1
            else:
                stack.append(_Ctx(tok.pos.column, depth, is_let))
                out.append(vtok("{", tok.pos))
                last_line = tok.pos.line
                # First token of the block gets no leading ';'; process
                # any bracket/keyword effects it carries.
                out.append(tok)
                if tok.type is TokenType.KEYWORD and tok.value in LAYOUT_KEYWORDS:
                    expecting_block = True
                    block_is_let = tok.value == "let"
                if tok.is_special("(") or tok.is_special("["):
                    depth += 1
                i += 1
                continue
        if tok.pos.line > last_line:
            while top_implicit() and tok.pos.column < stack[-1].column:
                out.append(vtok("}", tok.pos))
                pop_ctx()
            if top_implicit() and tok.pos.column == stack[-1].column:
                out.append(vtok(";", tok.pos))
            last_line = tok.pos.line
        if tok.is_keyword("in"):
            # `in` terminates a let-block (parse-error rule).  If the
            # block was already closed (offside / '}' / bracket), the
            # counter absorbs this 'in'; otherwise close implicit blocks
            # up to and including the nearest implicit let-block.
            if lets_awaiting_in > 0:
                lets_awaiting_in -= 1
            else:
                # Only the contiguous run of implicit blocks on top of
                # the stack may be closed; an explicit '{' bars popping.
                let_in_run = False
                for ctx in reversed(stack):
                    if ctx.column == _EXPLICIT:
                        break
                    if ctx.is_let:
                        let_in_run = True
                        break
                if let_in_run:
                    while top_implicit():
                        ctx = stack.pop()
                        out.append(vtok("}", tok.pos))
                        if ctx.is_let:
                            break
            out.append(tok)
            i += 1
            continue
        if tok.is_special("{"):
            stack.append(_Ctx(_EXPLICIT, depth, False))
            out.append(tok)
            i += 1
            continue
        if tok.is_special("}"):
            if stack and stack[-1].column == _EXPLICIT:
                pop_ctx()
                out.append(tok)
                i += 1
                continue
            raise LexError("unexpected '}' with no open explicit block", tok.pos)
        if tok.is_special("(") or tok.is_special("["):
            depth += 1
            out.append(tok)
            i += 1
            continue
        if tok.is_special(")") or tok.is_special("]"):
            # Close implicit blocks opened inside these brackets.
            while top_implicit() and stack[-1].depth >= depth:
                out.append(vtok("}", tok.pos))
                pop_ctx()
            depth = max(0, depth - 1)
            out.append(tok)
            i += 1
            continue
        out.append(tok)
        if tok.type is TokenType.KEYWORD and tok.value in LAYOUT_KEYWORDS:
            expecting_block = True
            block_is_let = tok.value == "let"
        i += 1

    eof_pos = tokens[-1].pos if tokens else SourcePos(1, 1, filename)
    while stack:
        ctx = stack.pop()
        if ctx.column == _EXPLICIT:
            raise LexError("unclosed '{' at end of input", eof_pos)
        out.append(vtok("}", eof_pos))
    out.append(Token(TokenType.EOF, "", eof_pos))
    return out


def lex(text: str, filename: str = "<input>") -> List[Token]:
    """Scan *text* and apply the layout algorithm.

    The result always ends with a single EOF token.
    """
    return apply_layout(scan(text, filename), filename)


def outcome(lex_fn, text: str, filename: str = "<input>"
            ) -> Union[List[Token], Tuple[str, str, SourcePos]]:
    """What *lex_fn* makes of *text*: its tokens, or the error's type,
    message and position."""
    try:
        return lex_fn(text, filename)
    except LexError as exc:
        return type(exc).__name__, exc.message, exc.pos
