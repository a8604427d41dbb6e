"""Recursive-descent parser for Mini-Haskell.

The parser consumes the layout-processed token stream of
:mod:`repro.lang.lexer` and produces the surface AST of
:mod:`repro.lang.ast`.

Operator expressions are parsed with precedence climbing against a
fixity table.  The table starts from the standard Haskell defaults and
is updated by ``infixl``/``infixr``/``infix`` declarations, which must
appear before first use (single-pass rule; the prelude declares all of
its operators up front).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ParseError, ResourceLimitError, SourcePos
from repro.lang import ast
from repro.lang.lexer import lex
from repro.lang.tokens import Token, TokenType
from repro.limits import DEFAULT_PARSE_DEPTH, ensure_recursion_headroom


@dataclass(frozen=True)
class Fixity:
    precedence: int
    assoc: str  # 'l', 'r' or 'n'


#: Standard fixities (Haskell report defaults for the operators we ship).
DEFAULT_FIXITIES: Dict[str, Fixity] = {
    ".": Fixity(9, "r"),
    "!!": Fixity(9, "l"),
    "^": Fixity(8, "r"),
    "*": Fixity(7, "l"),
    "/": Fixity(7, "l"),
    "div": Fixity(7, "l"),
    "mod": Fixity(7, "l"),
    "+": Fixity(6, "l"),
    "-": Fixity(6, "l"),
    ":": Fixity(5, "r"),
    "++": Fixity(5, "r"),
    "==": Fixity(4, "n"),
    "/=": Fixity(4, "n"),
    "<": Fixity(4, "n"),
    "<=": Fixity(4, "n"),
    ">": Fixity(4, "n"),
    ">=": Fixity(4, "n"),
    "&&": Fixity(3, "r"),
    "||": Fixity(2, "r"),
    "$": Fixity(0, "r"),
}

_UNKNOWN_FIXITY = Fixity(9, "l")


class Parser:
    """One parse of one token stream."""

    def __init__(self, tokens: List[Token], source: str = "",
                 max_depth: int = DEFAULT_PARSE_DEPTH,
                 fixities: Optional[Dict[str, Fixity]] = None) -> None:
        self.tokens = tokens
        self.index = 0
        self.source = source
        # Start from the defaults, optionally extended with fixities
        # imported from other modules' interfaces (the single-pass
        # "declare before use" rule then applies per module).
        self.fixities = dict(DEFAULT_FIXITIES)
        if fixities:
            self.fixities.update(fixities)
        #: fixities declared by this parse's own ``infix*`` decls, as
        #: ``op -> (prec, assoc)`` — recorded on the Program so module
        #: interfaces can export them
        self.declared_fixities: Dict[str, Tuple[int, str]] = {}
        self.max_depth = max_depth
        self.depth = 0
        # Total-work budget.  Legitimate parses use well under one
        # _enter_depth call per token (the prelude: ~0.3, worst
        # observed ~0.5); the backtracking in parse_paren_expr /
        # parse_funlhs goes exponential on adversarial inputs (e.g.
        # dozens of unclosed parens), which shows up as vastly more
        # calls.  The budget scales with input size — NOT with
        # max_depth, or raising the depth knob would let adversarial
        # inputs burn minutes before tripping it.  Disabled together
        # with the depth guard (max_depth=0 means "no limits").
        self.max_fuel = 16 * (len(tokens) + 64) if max_depth else 0
        self.fuel_used = 0

    # ---------------------------------------------------------------- utils

    def _enter_depth(self, what: str) -> None:
        """Count one level of grammar nesting; the budget turns
        pathological inputs (hundreds of nested parens) into a located
        error instead of a Python ``RecursionError``."""
        self.fuel_used += 1
        if self.max_fuel and self.fuel_used > self.max_fuel:
            raise ResourceLimitError(
                f"parsing exceeded its work budget ({self.max_fuel} "
                f"steps): the input provokes pathological backtracking; "
                f"raise max_parse_depth to enlarge the budget",
                self.peek().pos,
                limit="max_parse_fuel",
            )
        self.depth += 1
        if self.max_depth and self.depth > self.max_depth:
            self.depth -= 1
            raise ResourceLimitError(
                f"{what} nests too deeply (more than {self.max_depth} "
                f"levels); raise max_parse_depth for deeply nested inputs",
                self.peek().pos,
                limit="max_parse_depth",
            )

    def _number(self, tok: Token) -> Union[int, float]:
        """The value of an INT or FLOAT token.

        The lexer's digit class is ``str.isdigit`` (the reference
        scanner's), which also admits digits such as ``²`` that ``int``
        and ``float`` reject; Unicode decimal digits (``٣``) convert."""
        for ch in tok.value:
            if ch.isdigit() and not ch.isdecimal():
                raise ParseError(
                    f"{ch!r} in a numeric literal is not a decimal digit",
                    tok.pos)
        if tok.type is TokenType.FLOAT:
            return float(tok.value)
        try:
            return int(tok.value)
        except ValueError:
            # CPython refuses str→int conversion past
            # sys.get_int_max_str_digits() digits; surface it as a
            # located error rather than a bare ValueError.
            raise ParseError(
                f"integer literal too large ({len(tok.value)} digits "
                f"exceeds this Python's string-conversion limit)",
                tok.pos) from None

    def peek(self, ahead: int = 0) -> Token:
        # ``index`` never passes the closing EOF token (see advance), so
        # only a lookahead can run off the end; it reads EOF there.
        if not ahead:
            return self.tokens[self.index]
        idx = self.index + ahead
        tokens = self.tokens
        return tokens[idx] if idx < len(tokens) else tokens[-1]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        if tok.type is not TokenType.EOF:
            self.index += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(f"{message}, found {tok.describe()}", tok.pos)

    def expect_special(self, char: str, context: str) -> Token:
        tok = self.peek()
        if tok.is_special(char):
            return self.advance()
        raise self.error(f"expected '{char}' {context}", tok)

    def expect_reserved(self, op: str, context: str) -> Token:
        tok = self.peek()
        if tok.is_reserved_op(op):
            return self.advance()
        raise self.error(f"expected '{op}' {context}", tok)

    def expect_keyword(self, word: str, context: str) -> Token:
        tok = self.peek()
        if tok.is_keyword(word):
            return self.advance()
        raise self.error(f"expected '{word}' {context}", tok)

    def at_varid(self) -> bool:
        return self.peek().type is TokenType.VARID

    def expect_varid(self, context: str) -> Token:
        tok = self.peek()
        if tok.type is TokenType.VARID:
            return self.advance()
        raise self.error(f"expected identifier {context}", tok)

    def expect_conid(self, context: str) -> Token:
        tok = self.peek()
        if tok.type is TokenType.CONID:
            return self.advance()
        raise self.error(f"expected constructor name {context}", tok)

    def skip_semis(self) -> None:
        while self.peek().is_special(";"):
            self.advance()

    # ------------------------------------------------------------- programs

    def parse_program(self) -> ast.Program:
        module_name: Optional[str] = None
        exports: Optional[List[str]] = None
        if self.peek().is_keyword("module"):
            module_name, exports = self.parse_module_header()
        decls: List[ast.Decl] = []
        imports: List[ast.ImportDecl] = []
        if self.peek().type is TokenType.EOF:
            # Empty module (possibly just a header).
            return ast.Program(decls, module_name=module_name,
                               exports=exports, imports=imports,
                               fixities=dict(self.declared_fixities))
        self.expect_special("{", "at start of module (layout)")
        self.skip_semis()
        while self.peek().is_keyword("import"):
            imports.append(self.parse_import_decl())
            if self.peek().is_special(";"):
                self.skip_semis()
            elif not self.peek().is_special("}"):
                raise self.error("expected ';' or end of module after import")
        while not self.peek().is_special("}"):
            decls.append(self.parse_topdecl())
            if self.peek().is_special(";"):
                self.skip_semis()
            elif not self.peek().is_special("}"):
                raise self.error("expected ';' or end of module after declaration")
        self.advance()  # }
        if self.peek().type is not TokenType.EOF:
            raise self.error("expected end of input after module body")
        return ast.Program(decls, module_name=module_name,
                           exports=exports, imports=imports,
                           fixities=dict(self.declared_fixities))

    def parse_module_header(self) -> Tuple[str, Optional[List[str]]]:
        """``module M [(names)] where`` before the top-level layout block."""
        self.advance()  # 'module'
        name = self.expect_conid("after 'module'").value
        exports: Optional[List[str]] = None
        if self.peek().is_special("("):
            exports = self.parse_name_list("in export list")
        self.expect_keyword("where", "after module header")
        return name, exports

    def parse_import_decl(self) -> ast.ImportDecl:
        start = self.advance().pos  # 'import'
        name = self.expect_conid("after 'import'").value
        names: Optional[List[str]] = None
        if self.peek().is_special("("):
            names = self.parse_name_list("in import list")
        return ast.ImportDecl(name, names, pos=start)

    def parse_name_list(self, context: str) -> List[str]:
        """A parenthesised export/import list: ``(f, Con, (+), ...)``."""
        self.expect_special("(", context)
        names: List[str] = []
        if not self.peek().is_special(")"):
            names.append(self.parse_entity_name(context))
            while self.peek().is_special(","):
                self.advance()
                names.append(self.parse_entity_name(context))
        self.expect_special(")", context)
        return names

    def parse_entity_name(self, context: str) -> str:
        tok = self.peek()
        if tok.type in (TokenType.VARID, TokenType.CONID):
            self.advance()
            return tok.value
        if tok.is_special("(") and self.peek(1).type is TokenType.VARSYM \
                and self.peek(2).is_special(")"):
            self.advance()
            name = self.advance().value
            self.advance()
            return name
        raise self.error(f"expected a name {context}", tok)

    def parse_topdecl(self) -> ast.Decl:
        tok = self.peek()
        if tok.is_keyword("import"):
            raise ParseError(
                "import declarations must appear before all other "
                "declarations", tok.pos)
        if tok.is_keyword("module"):
            raise ParseError(
                "a 'module' header may only appear at the start of a file",
                tok.pos)
        if tok.is_keyword("data"):
            return self.parse_data_decl()
        if tok.is_keyword("type"):
            return self.parse_type_syn_decl()
        if tok.is_keyword("class"):
            return self.parse_class_decl()
        if tok.is_keyword("instance"):
            return self.parse_instance_decl()
        if tok.is_keyword("default"):
            return self.parse_default_decl()
        if tok.type is TokenType.KEYWORD and tok.value in ("infixl", "infixr", "infix"):
            return self.parse_fixity_decl()
        return self.parse_sig_or_bind()

    # ----------------------------------------------------------------- data

    def parse_data_decl(self) -> ast.DataDecl:
        start = self.advance().pos  # 'data'
        name = self.expect_conid("after 'data'").value
        tyvars: List[str] = []
        while self.at_varid():
            tyvars.append(self.advance().value)
        self.expect_reserved("=", "in data declaration")
        constructors = [self.parse_condef()]
        while self.peek().is_reserved_op("|"):
            self.advance()
            constructors.append(self.parse_condef())
        deriving: List[str] = []
        if self.peek().is_keyword("deriving"):
            self.advance()
            if self.peek().is_special("("):
                self.advance()
                if not self.peek().is_special(")"):
                    deriving.append(self.expect_conid("in deriving list").value)
                    while self.peek().is_special(","):
                        self.advance()
                        deriving.append(self.expect_conid("in deriving list").value)
                self.expect_special(")", "after deriving list")
            else:
                deriving.append(self.expect_conid("after 'deriving'").value)
        return ast.DataDecl(name, tyvars, constructors, deriving, pos=start)

    def parse_type_syn_decl(self) -> ast.TypeSynDecl:
        start = self.advance().pos  # 'type'
        name = self.expect_conid("after 'type'").value
        tyvars: List[str] = []
        while self.at_varid():
            tyvars.append(self.advance().value)
        self.expect_reserved("=", "in type synonym declaration")
        rhs = self.parse_type()
        return ast.TypeSynDecl(name, tyvars, rhs, pos=start)

    def parse_condef(self) -> ast.ConDef:
        tok = self.expect_conid("in constructor definition")
        args: List[ast.SType] = []
        while self.at_atype_start():
            args.append(self.parse_atype())
        return ast.ConDef(tok.value, args, pos=tok.pos)

    # ---------------------------------------------------------------- class

    def parse_class_decl(self) -> ast.ClassDecl:
        start = self.advance().pos  # 'class'
        context = self.parse_optional_context()
        name = self.expect_conid("as class name").value
        tyvar = self.expect_varid("as class type variable").value
        tyvars = [tyvar]
        while self.at_varid():  # multi-parameter class: C a b ...
            tyvars.append(self.advance().value)
        if len(set(tyvars)) != len(tyvars):
            raise ParseError(
                f"class {name} repeats a type variable in its header", start)
        if len(tyvars) > 1 and context:
            raise ParseError(
                f"multi-parameter class {name} may not have superclass "
                f"constraints", start)
        superclasses: List[str] = []
        for pred in context:
            if pred.types is not None \
                    or not isinstance(pred.type, ast.STyVar) \
                    or pred.type.name != tyvar:
                raise ParseError(
                    f"superclass constraint {pred.class_name} must be on the "
                    f"class variable '{tyvar}'", pred.pos or start)
            superclasses.append(pred.class_name)
        signatures: List[ast.TypeSig] = []
        defaults: List[ast.FunBind] = []
        if self.peek().is_keyword("where"):
            self.advance()
            for decl in self.parse_decl_block():
                if isinstance(decl, ast.TypeSig):
                    signatures.append(decl)
                elif isinstance(decl, ast.FunBind):
                    defaults.append(decl)
                else:
                    raise ParseError(
                        "only method signatures and default bindings may "
                        "appear in a class body", decl.pos or start)
        return ast.ClassDecl(superclasses, name, tyvar, signatures, defaults,
                             pos=start,
                             tyvars=tyvars if len(tyvars) > 1 else None)

    def parse_instance_decl(self) -> ast.InstanceDecl:
        start = self.advance().pos  # 'instance'
        context = self.parse_optional_context()
        class_name = self.expect_conid("as class name in instance").value
        head = self.parse_atype()
        heads = [head]
        while self.at_atype_start():  # multi-parameter instance head
            heads.append(self.parse_atype())
        bindings: List[ast.FunBind] = []
        if self.peek().is_keyword("where"):
            self.advance()
            for decl in self.parse_decl_block():
                if isinstance(decl, ast.FunBind):
                    bindings.append(decl)
                else:
                    raise ParseError(
                        "only method bindings may appear in an instance body",
                        decl.pos or start)
        return ast.InstanceDecl(context, class_name, head, bindings, pos=start,
                                heads=heads if len(heads) > 1 else None)

    def parse_optional_context(self) -> List[ast.SPred]:
        """Parse ``context =>`` if present.

        A context is either a single predicate or a parenthesised,
        comma-separated list.  Deciding whether ``(...)`` is a context or
        part of the head requires lookahead for ``=>``; we do a trial
        scan for it at bracket depth zero before the next ``where``/``=``.
        """
        if not self._context_ahead():
            return []
        preds: List[ast.SPred] = []
        if self.peek().is_special("("):
            self.advance()
            if not self.peek().is_special(")"):
                preds.append(self.parse_pred())
                while self.peek().is_special(","):
                    self.advance()
                    preds.append(self.parse_pred())
            self.expect_special(")", "after context")
        else:
            preds.append(self.parse_pred())
        self.expect_reserved("=>", "after context")
        return preds

    def _context_ahead(self) -> bool:
        """Whether a ``context =>`` starts here: an ``=>`` at bracket
        depth zero before the type ends.  The type ends at ``where``,
        ``=``, ``;``, ``}``, a ``,`` at depth zero, or the bracket that
        closes around it (``(x :: Int)``, ``[1 :: Int, 2]``), so the
        scan reads the annotation only, not the rest of the input."""
        depth = 0
        ahead = 0
        while True:
            tok = self.peek(ahead)
            if tok.type is TokenType.EOF:
                return False
            if tok.is_special("(") or tok.is_special("["):
                depth += 1
            elif tok.is_special(")") or tok.is_special("]"):
                depth -= 1
                if depth < 0:
                    return False
            elif depth == 0:
                if tok.is_reserved_op("=>"):
                    return True
                if (tok.is_keyword("where") or tok.is_reserved_op("=")
                        or tok.is_special(";") or tok.is_special("}")
                        or tok.is_special(",")):
                    return False
            ahead += 1

    def parse_pred(self) -> ast.SPred:
        cls = self.expect_conid("as class name in context")
        ty = self.parse_atype()
        types = [ty]
        while self.at_atype_start():  # multi-parameter constraint
            types.append(self.parse_atype())
        return ast.SPred(cls.value, ty, pos=cls.pos,
                         types=types if len(types) > 1 else None)

    # -------------------------------------------------------------- default

    def parse_default_decl(self) -> ast.DefaultDecl:
        start = self.advance().pos  # 'default'
        self.expect_special("(", "after 'default'")
        types: List[ast.SType] = []
        if not self.peek().is_special(")"):
            types.append(self.parse_type())
            while self.peek().is_special(","):
                self.advance()
                types.append(self.parse_type())
        self.expect_special(")", "after default types")
        return ast.DefaultDecl(types, pos=start)

    def parse_fixity_decl(self) -> ast.FixityDecl:
        tok = self.advance()
        assoc = {"infixl": "l", "infixr": "r", "infix": "n"}[tok.value]
        prec_tok = self.peek()
        if prec_tok.type is not TokenType.INT:
            raise self.error("expected precedence (0-9) in fixity declaration")
        self.advance()
        precedence = self._number(prec_tok)
        if not 0 <= precedence <= 9:
            raise ParseError("fixity precedence must be between 0 and 9",
                             prec_tok.pos)
        ops = [self.parse_fixity_op()]
        while self.peek().is_special(","):
            self.advance()
            ops.append(self.parse_fixity_op())
        for op in ops:
            self.fixities[op] = Fixity(precedence, assoc)
            self.declared_fixities[op] = (precedence, assoc)
        return ast.FixityDecl(assoc, precedence, ops, pos=tok.pos)

    def parse_fixity_op(self) -> str:
        tok = self.peek()
        if tok.type is TokenType.VARSYM:
            self.advance()
            return tok.value
        if tok.is_special("`"):
            self.advance()
            name = self.expect_varid("inside backticks").value
            self.expect_special("`", "after backtick operator")
            return name
        raise self.error("expected operator in fixity declaration")

    # -------------------------------------------------------- sigs/bindings

    def parse_sig_or_bind(self) -> ast.Decl:
        if self._signature_ahead():
            return self.parse_type_sig()
        return self.parse_fun_bind()

    def _signature_ahead(self) -> bool:
        """Lookahead: ``var[, var ...] ::`` at the start of a declaration."""
        ahead = 0
        while True:
            tok = self.peek(ahead)
            if tok.type is TokenType.VARID:
                ahead += 1
            elif tok.is_special("(") and self.peek(ahead + 1).type is TokenType.VARSYM \
                    and self.peek(ahead + 2).is_special(")"):
                ahead += 3
            else:
                return False
            nxt = self.peek(ahead)
            if nxt.is_reserved_op("::"):
                return True
            if nxt.is_special(","):
                ahead += 1
                continue
            return False

    def parse_var_name(self, context: str) -> str:
        """A variable name: plain identifier or parenthesised operator."""
        tok = self.peek()
        if tok.type is TokenType.VARID:
            self.advance()
            return tok.value
        if tok.is_special("(") and self.peek(1).type is TokenType.VARSYM \
                and self.peek(2).is_special(")"):
            self.advance()
            name = self.advance().value
            self.advance()
            return name
        raise self.error(f"expected variable name {context}", tok)

    def parse_type_sig(self) -> ast.TypeSig:
        start = self.peek().pos
        names = [self.parse_var_name("in type signature")]
        while self.peek().is_special(","):
            self.advance()
            names.append(self.parse_var_name("in type signature"))
        self.expect_reserved("::", "in type signature")
        sig = self.parse_qual_type()
        return ast.TypeSig(names, sig, pos=start)

    def parse_fun_bind(self) -> ast.FunBind:
        """One equation.  Adjacent equations for the same name are merged
        by :func:`merge_equations` after block parsing."""
        start = self.peek().pos
        name, pats = self.parse_funlhs()
        rhss = self.parse_rhs("=")
        where_decls: List[ast.Decl] = []
        if self.peek().is_keyword("where"):
            self.advance()
            where_decls = self.parse_decl_block()
        eq = ast.Equation(pats, rhss, where_decls, pos=start)
        return ast.FunBind(name, [eq], pos=start)

    def parse_funlhs(self) -> Tuple[str, List[ast.Pat]]:
        # Infix definition:  x == y = ...   or  (x:xs) `op` y = ...
        save = self.index
        try:
            left = self.parse_apat()
            tok = self.peek()
            op = None
            if tok.type is TokenType.VARSYM and tok.value != ":":
                op = tok.value
                self.advance()
            elif tok.is_special("`"):
                self.advance()
                op = self.expect_varid("inside backticks").value
                self.expect_special("`", "after backtick operator")
            if op is not None:
                right = self.parse_apat()
                return op, [left, right]
        except ParseError:
            pass
        self.index = save
        name = self.parse_var_name("at start of binding")
        pats: List[ast.Pat] = []
        while self.at_apat_start():
            pats.append(self.parse_apat())
        return name, pats

    def parse_rhs(self, eq_token: str) -> List[ast.GuardedRhs]:
        """The right-hand side of an equation or case alternative.

        *eq_token* is ``=`` for equations and ``->`` for case alts.
        """
        tok = self.peek()
        if tok.is_reserved_op(eq_token):
            self.advance()
            return [ast.GuardedRhs(None, self.parse_expr(), pos=tok.pos)]
        rhss: List[ast.GuardedRhs] = []
        while self.peek().is_reserved_op("|"):
            bar = self.advance()
            guard = self.parse_expr()
            self.expect_reserved(eq_token, "after guard")
            body = self.parse_expr()
            rhss.append(ast.GuardedRhs(guard, body, pos=bar.pos))
        if not rhss:
            raise self.error(f"expected '{eq_token}' or '|' in right-hand side")
        return rhss

    def parse_decl_block(self) -> List[ast.Decl]:
        """A ``{ decl ; ... }`` block (braces usually from layout)."""
        self.expect_special("{", "to open declaration block")
        decls: List[ast.Decl] = []
        self.skip_semis()
        while not self.peek().is_special("}"):
            decls.append(self.parse_local_decl())
            if self.peek().is_special(";"):
                self.skip_semis()
            elif not self.peek().is_special("}"):
                raise self.error("expected ';' or '}' after declaration")
        self.advance()
        return merge_equations(decls)

    def parse_local_decl(self) -> ast.Decl:
        if self._signature_ahead():
            return self.parse_type_sig()
        return self.parse_fun_bind()

    # ----------------------------------------------------------------- types

    def parse_qual_type(self) -> ast.SQualType:
        start = self.peek().pos
        context: List[ast.SPred] = []
        if self._context_ahead():
            if self.peek().is_special("("):
                self.advance()
                if not self.peek().is_special(")"):
                    context.append(self.parse_pred())
                    while self.peek().is_special(","):
                        self.advance()
                        context.append(self.parse_pred())
                self.expect_special(")", "after context")
            else:
                context.append(self.parse_pred())
            self.expect_reserved("=>", "after context")
        ty = self.parse_type()
        return ast.SQualType(context, ty, pos=start)

    def parse_type(self) -> ast.SType:
        self._enter_depth("type")
        try:
            left = self.parse_btype()
            if self.peek().is_reserved_op("->"):
                self.advance()
                right = self.parse_type()
                return ast.sty_fun(left, right)
            return left
        finally:
            self.depth -= 1

    def parse_btype(self) -> ast.SType:
        ty = self.parse_atype()
        pos = ty.pos
        while self.at_atype_start():
            # The application spine carries the head atom's position so
            # kind errors point at the misapplied constructor/variable.
            ty = ast.STyApp(ty, self.parse_atype(), pos=pos)
        return ty

    def at_atype_start(self) -> bool:
        tok = self.peek()
        return (tok.type in (TokenType.VARID, TokenType.CONID)
                or tok.is_special("(") or tok.is_special("["))

    def parse_atype(self) -> ast.SType:
        tok = self.peek()
        if tok.type is TokenType.VARID:
            self.advance()
            return ast.STyVar(tok.value, pos=tok.pos)
        if tok.type is TokenType.CONID:
            self.advance()
            return ast.STyCon(tok.value, pos=tok.pos)
        if tok.is_special("["):
            self.advance()
            if self.peek().is_special("]"):
                self.advance()
                return ast.STyCon("[]", pos=tok.pos)
            elem = self.parse_type()
            self.expect_special("]", "after list element type")
            return ast.sty_list(elem)
        if tok.is_special("("):
            self.advance()
            if self.peek().is_special(")"):
                self.advance()
                return ast.STyCon("()", pos=tok.pos)
            if self.peek().is_reserved_op("->") and self.peek(1).is_special(")"):
                self.advance()
                self.advance()
                return ast.STyCon("->", pos=tok.pos)
            first = self.parse_type()
            if self.peek().is_special(","):
                items = [first]
                while self.peek().is_special(","):
                    self.advance()
                    items.append(self.parse_type())
                self.expect_special(")", "after tuple type")
                return ast.sty_tuple(items)
            self.expect_special(")", "after type")
            return first
        raise self.error("expected a type")

    # ------------------------------------------------------------- patterns

    def at_apat_start(self) -> bool:
        tok = self.peek()
        return (tok.type in (TokenType.VARID, TokenType.CONID, TokenType.INT,
                             TokenType.FLOAT, TokenType.CHAR, TokenType.STRING)
                or tok.is_special("(") or tok.is_special("[")
                or tok.is_special("_"))

    def parse_pattern(self) -> ast.Pat:
        """Full pattern: constructor applications and infix ``:``."""
        self._enter_depth("pattern")
        try:
            left = self.parse_pat10()
            tok = self.peek()
            if tok.type is TokenType.VARSYM and tok.value == ":":
                self.advance()
                right = self.parse_pattern()  # ':' is right associative
                return ast.PCon(":", [left, right], pos=tok.pos)
            return left
        finally:
            self.depth -= 1

    def parse_pat10(self) -> ast.Pat:
        tok = self.peek()
        if tok.type is TokenType.CONID:
            self.advance()
            args: List[ast.Pat] = []
            while self.at_apat_start():
                args.append(self.parse_apat())
            return ast.PCon(tok.value, args, pos=tok.pos)
        return self.parse_apat()

    def parse_apat(self) -> ast.Pat:
        tok = self.peek()
        if tok.type is TokenType.VARID:
            self.advance()
            if self.peek().is_reserved_op("@"):
                self.advance()
                inner = self.parse_apat()
                return ast.PAs(tok.value, inner, pos=tok.pos)
            return ast.PVar(tok.value, pos=tok.pos)
        if tok.is_special("_"):
            self.advance()
            return ast.PWild(pos=tok.pos)
        if tok.type is TokenType.CONID:
            self.advance()
            return ast.PCon(tok.value, [], pos=tok.pos)
        if tok.type is TokenType.INT:
            self.advance()
            return ast.PLit(self._number(tok), "int", pos=tok.pos)
        if tok.type is TokenType.FLOAT:
            self.advance()
            return ast.PLit(self._number(tok), "float", pos=tok.pos)
        if tok.type is TokenType.CHAR:
            self.advance()
            return ast.PLit(tok.value, "char", pos=tok.pos)
        if tok.type is TokenType.STRING:
            self.advance()
            return ast.PLit(tok.value, "string", pos=tok.pos)
        if tok.is_special("["):
            self.advance()
            items: List[ast.Pat] = []
            if not self.peek().is_special("]"):
                items.append(self.parse_pattern())
                while self.peek().is_special(","):
                    self.advance()
                    items.append(self.parse_pattern())
            self.expect_special("]", "after list pattern")
            out: ast.Pat = ast.PCon("[]", [], pos=tok.pos)
            for item in reversed(items):
                out = ast.PCon(":", [item, out], pos=tok.pos)
            return out
        if tok.is_special("("):
            self.advance()
            if self.peek().is_special(")"):
                self.advance()
                return ast.PCon("()", [], pos=tok.pos)
            first = self.parse_pattern()
            if self.peek().is_special(","):
                items = [first]
                while self.peek().is_special(","):
                    self.advance()
                    items.append(self.parse_pattern())
                self.expect_special(")", "after tuple pattern")
                return ast.PTuple(items, pos=tok.pos)
            self.expect_special(")", "after pattern")
            return first
        raise self.error("expected a pattern")

    # ---------------------------------------------------------- expressions

    def parse_expr(self) -> ast.Expr:
        expr = self.parse_opexpr(0)
        if self.peek().is_reserved_op("::"):
            self.advance()
            sig = self.parse_qual_type()
            return ast.Annot(expr, sig, pos=expr.pos)
        return expr

    def parse_opexpr(self, min_prec: int) -> ast.Expr:
        """Precedence climbing over binary operators and prefix minus."""
        self._enter_depth("expression")
        try:
            left = self.parse_prefix()
            while True:
                op = self._peek_operator()
                if op is None:
                    return left
                fix = self.fixities.get(op, _UNKNOWN_FIXITY)
                if fix.precedence < min_prec:
                    return left
                op_tok = self._consume_operator()
                if fix.assoc == "l":
                    next_min = fix.precedence + 1
                elif fix.assoc == "r":
                    next_min = fix.precedence
                else:  # non-associative: parse a tighter expression
                    next_min = fix.precedence + 1
                right = self.parse_opexpr(next_min)
                left = self._apply_operator(op, op_tok.pos, left, right)
        finally:
            self.depth -= 1

    def _peek_operator(self) -> Optional[str]:
        tok = self.peek()
        if tok.type is TokenType.VARSYM:
            return tok.value
        if tok.is_special("`") and self.peek(1).type is TokenType.VARID \
                and self.peek(2).is_special("`"):
            return self.peek(1).value
        return None

    def _consume_operator(self) -> Token:
        tok = self.peek()
        if tok.type is TokenType.VARSYM:
            return self.advance()
        # backticked
        self.advance()
        name_tok = self.advance()
        self.advance()
        return name_tok

    def _apply_operator(self, op: str, pos: SourcePos,
                        left: ast.Expr, right: ast.Expr) -> ast.Expr:
        fn: ast.Expr
        if op == ":":
            fn = ast.Con(":", pos=pos)
        else:
            fn = ast.Var(op, pos=pos)
        return ast.App(ast.App(fn, left, pos=pos), right, pos=pos)

    def parse_prefix(self) -> ast.Expr:
        tok = self.peek()
        if tok.type is TokenType.VARSYM and tok.value == "-":
            self.advance()
            operand = self.parse_opexpr(7)  # unary minus binds like infix 6
            return ast.App(ast.Var("negate", pos=tok.pos), operand, pos=tok.pos)
        return self.parse_bexpr()

    def parse_bexpr(self) -> ast.Expr:
        tok = self.peek()
        if tok.is_reserved_op("\\"):
            return self.parse_lambda()
        if tok.is_keyword("let"):
            return self.parse_let()
        if tok.is_keyword("if"):
            return self.parse_if()
        if tok.is_keyword("case"):
            return self.parse_case()
        return self.parse_fexpr()

    def parse_lambda(self) -> ast.Expr:
        start = self.advance().pos  # '\'
        pats = [self.parse_apat()]
        while self.at_apat_start():
            pats.append(self.parse_apat())
        self.expect_reserved("->", "in lambda expression")
        body = self.parse_expr()
        return ast.Lam(pats, body, pos=start)

    def parse_let(self) -> ast.Expr:
        start = self.advance().pos  # 'let'
        decls = self.parse_decl_block()
        self.expect_keyword("in", "after let declarations")
        body = self.parse_expr()
        return ast.Let(decls, body, pos=start)

    def parse_if(self) -> ast.Expr:
        start = self.advance().pos  # 'if'
        cond = self.parse_expr()
        self.expect_keyword("then", "in conditional")
        then_branch = self.parse_expr()
        self.expect_keyword("else", "in conditional")
        else_branch = self.parse_expr()
        return ast.If(cond, then_branch, else_branch, pos=start)

    def parse_case(self) -> ast.Expr:
        start = self.advance().pos  # 'case'
        scrutinee = self.parse_expr()
        self.expect_keyword("of", "in case expression")
        self.expect_special("{", "to open case alternatives")
        alts: List[ast.CaseAlt] = []
        self.skip_semis()
        while not self.peek().is_special("}"):
            alts.append(self.parse_alt())
            if self.peek().is_special(";"):
                self.skip_semis()
            elif not self.peek().is_special("}"):
                raise self.error("expected ';' or '}' after case alternative")
        self.advance()
        if not alts:
            raise ParseError("case expression with no alternatives", start)
        return ast.Case(scrutinee, alts, pos=start)

    def parse_alt(self) -> ast.CaseAlt:
        start = self.peek().pos
        pat = self.parse_pattern()
        rhss = self.parse_rhs("->")
        where_decls: List[ast.Decl] = []
        if self.peek().is_keyword("where"):
            self.advance()
            where_decls = self.parse_decl_block()
        return ast.CaseAlt(pat, rhss, where_decls, pos=start)

    def parse_fexpr(self) -> ast.Expr:
        expr = self.parse_aexpr()
        while self.at_aexpr_start():
            arg = self.parse_aexpr()
            expr = ast.App(expr, arg, pos=expr.pos)
        return expr

    def at_aexpr_start(self) -> bool:
        tok = self.peek()
        return (tok.type in (TokenType.VARID, TokenType.CONID, TokenType.INT,
                             TokenType.FLOAT, TokenType.CHAR, TokenType.STRING)
                or tok.is_special("(") or tok.is_special("["))

    def parse_aexpr(self) -> ast.Expr:
        tok = self.peek()
        if tok.type is TokenType.VARID:
            self.advance()
            return ast.Var(tok.value, pos=tok.pos)
        if tok.type is TokenType.CONID:
            self.advance()
            return ast.Con(tok.value, pos=tok.pos)
        if tok.type is TokenType.INT:
            self.advance()
            return ast.Lit(self._number(tok), "int", pos=tok.pos)
        if tok.type is TokenType.FLOAT:
            self.advance()
            return ast.Lit(self._number(tok), "float", pos=tok.pos)
        if tok.type is TokenType.CHAR:
            self.advance()
            return ast.Lit(tok.value, "char", pos=tok.pos)
        if tok.type is TokenType.STRING:
            self.advance()
            return ast.Lit(tok.value, "string", pos=tok.pos)
        if tok.is_special("["):
            return self.parse_list_expr()
        if tok.is_special("("):
            return self.parse_paren_expr()
        raise self.error("expected an expression")

    def parse_list_expr(self) -> ast.Expr:
        start = self.advance().pos  # '['
        items: List[ast.Expr] = []
        if not self.peek().is_special("]"):
            items.append(self.parse_expr())
            while self.peek().is_special(","):
                self.advance()
                items.append(self.parse_expr())
        self.expect_special("]", "after list expression")
        return ast.ListExpr(items, pos=start)

    def parse_paren_expr(self) -> ast.Expr:
        start = self.advance().pos  # '('
        tok = self.peek()
        if tok.is_special(")"):
            self.advance()
            return ast.Con("()", pos=start)
        # Operator as a function or a right section:  (+), (+ e), (:), (: e)
        if tok.type is TokenType.VARSYM:
            op = tok.value
            if self.peek(1).is_special(")"):
                self.advance()
                self.advance()
                if op == ":":
                    return ast.Con(":", pos=start)
                return ast.Var(op, pos=start)
            if op != "-":  # '(- e)' is negation, not a section
                self.advance()
                operand = self.parse_opexpr(
                    self.fixities.get(op, _UNKNOWN_FIXITY).precedence + 1)
                self.expect_special(")", "after operator section")
                return self._right_section(op, start, operand)
        # Backtick operator: (`div`) or a right section (`div` 2).
        if tok.is_special("`") and self.peek(1).type is TokenType.VARID \
                and self.peek(2).is_special("`"):
            op = self.peek(1).value
            self.advance()
            self.advance()
            self.advance()
            if self.peek().is_special(")"):
                self.advance()
                return ast.Var(op, pos=start)
            operand = self.parse_opexpr(
                self.fixities.get(op, _UNKNOWN_FIXITY).precedence + 1)
            self.expect_special(")", "after operator section")
            return self._right_section(op, start, operand)
        save = self.index
        try:
            expr = self.parse_expr()
        except ParseError:
            # Possibly a left section ``(e op)`` whose trailing operator
            # tripped the full-expression parse; re-parse as fexpr + op.
            self.index = save
            expr = self.parse_fexpr()
            op2 = self._peek_operator()
            if op2 is None:
                raise
            self._consume_operator()
            self.expect_special(")", "after operator section")
            return self._left_section(op2, start, expr)
        tok = self.peek()
        if tok.is_special(","):
            items = [expr]
            while self.peek().is_special(","):
                self.advance()
                items.append(self.parse_expr())
            self.expect_special(")", "after tuple expression")
            return ast.TupleExpr(items, pos=start)
        self.expect_special(")", "after parenthesised expression")
        return expr

    def _right_section(self, op: str, pos: SourcePos, operand: ast.Expr) -> ast.Expr:
        """``(op e)``  ==>  ``\\x -> x op e``"""
        x = ast.PVar("x$sec", pos=pos)
        fn: ast.Expr = ast.Con(":", pos=pos) if op == ":" else ast.Var(op, pos=pos)
        body = ast.App(ast.App(fn, ast.Var("x$sec", pos=pos)), operand, pos=pos)
        return ast.Lam([x], body, pos=pos)

    def _left_section(self, op: str, pos: SourcePos, operand: ast.Expr) -> ast.Expr:
        """``(e op)``  ==>  ``\\x -> e op x``  (implemented as partial
        application, which is equivalent for our curried operators)."""
        fn: ast.Expr = ast.Con(":", pos=pos) if op == ":" else ast.Var(op, pos=pos)
        return ast.App(fn, operand, pos=pos)


def merge_equations(decls: List[ast.Decl]) -> List[ast.Decl]:
    """Fuse adjacent FunBinds for the same name into multi-equation binds.

    Haskell requires the equations of a function to be contiguous; we
    enforce that by only merging adjacent ones and rejecting a later
    re-definition of an earlier name.
    """
    out: List[ast.Decl] = []
    seen_names: Dict[str, int] = {}
    for decl in decls:
        if isinstance(decl, ast.FunBind):
            if out and isinstance(out[-1], ast.FunBind) and out[-1].name == decl.name:
                prev = out[-1]
                expected = len(prev.equations[0].pats)
                got = len(decl.equations[0].pats)
                if expected != got:
                    raise ParseError(
                        f"equations for '{decl.name}' have different numbers "
                        f"of arguments ({expected} vs {got})", decl.pos)
                prev.equations.extend(decl.equations)
                continue
            if decl.name in seen_names:
                raise ParseError(
                    f"equations for '{decl.name}' are not contiguous "
                    f"(or the name is defined twice)", decl.pos)
            seen_names[decl.name] = 1
        out.append(decl)
    return out


def parse_program(source: str, filename: str = "<input>",
                  max_depth: int = DEFAULT_PARSE_DEPTH,
                  fixities: Optional[Dict[str, Fixity]] = None) -> ast.Program:
    """Parse a whole module.

    *fixities* extends the default fixity table — the module build uses
    it to hand operator fixities exported by imported interfaces to the
    single-pass operator parser.
    """
    ensure_recursion_headroom()
    parser = Parser(lex(source, filename), source, max_depth=max_depth,
                    fixities=fixities)
    program = parser.parse_program()
    program.decls = merge_equations(program.decls)
    return program


def _strip_module_block(tokens: List[Token]) -> List[Token]:
    """Remove the module-level implicit braces the layout algorithm
    wraps around the whole input — inner layout blocks (for let/case in
    a bare expression) are preserved."""
    out = list(tokens)
    if out and out[0].virtual and out[0].value == "{":
        out.pop(0)
    # The matching close is the last virtual '}' before EOF.
    for i in range(len(out) - 1, -1, -1):
        tok = out[i]
        if tok.type is TokenType.EOF:
            continue
        if tok.virtual and tok.value == "}":
            out.pop(i)
        break
    return out


def parse_expr(source: str, filename: str = "<expr>",
               max_depth: int = DEFAULT_PARSE_DEPTH) -> ast.Expr:
    """Parse a single expression (used by tests and the REPL-style API)."""
    ensure_recursion_headroom()
    stripped = _strip_module_block(lex(source, filename))
    parser = Parser(stripped, source, max_depth=max_depth)
    expr = parser.parse_expr()
    if parser.peek().type is not TokenType.EOF:
        raise parser.error("unexpected input after expression")
    return expr


def parse_type(source: str, filename: str = "<type>",
               max_depth: int = DEFAULT_PARSE_DEPTH) -> ast.SQualType:
    """Parse a qualified type (used by tests and the public API)."""
    ensure_recursion_headroom()
    stripped = _strip_module_block(lex(source, filename))
    parser = Parser(stripped, source, max_depth=max_depth)
    ty = parser.parse_qual_type()
    if parser.peek().type is not TokenType.EOF:
        raise parser.error("unexpected input after type")
    return ty
