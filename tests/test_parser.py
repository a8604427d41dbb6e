"""Parser tests: declarations, expressions, patterns, types, fixities."""

import pytest

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.parser import parse_expr, parse_program, parse_type
from repro.lang.pretty import pp_expr, pp_qual_type


def only_decl(source):
    program = parse_program(source)
    assert len(program.decls) == 1
    return program.decls[0]


class TestDeclarations:
    def test_simple_binding(self):
        decl = only_decl("x = 1")
        assert isinstance(decl, ast.FunBind)
        assert decl.name == "x"
        assert not decl.equations[0].pats

    def test_function_binding(self):
        decl = only_decl("f x y = x")
        assert len(decl.equations[0].pats) == 2

    def test_multiple_equations_merge(self):
        decl = only_decl("f 0 = 1\nf n = n")
        assert isinstance(decl, ast.FunBind)
        assert len(decl.equations) == 2

    def test_non_contiguous_equations_rejected(self):
        with pytest.raises(ParseError):
            parse_program("f 0 = 1\ng = 2\nf n = n")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_program("f 0 = 1\nf n m = n")

    def test_type_signature(self):
        decl = only_decl("f :: a -> a")
        assert isinstance(decl, ast.TypeSig)
        assert decl.names == ["f"]

    def test_grouped_signature(self):
        decl = only_decl("f, g :: Int -> Int")
        assert decl.names == ["f", "g"]

    def test_operator_signature(self):
        decl = only_decl("(==) :: a -> a -> Bool")
        assert decl.names == ["=="]

    def test_signature_with_context(self):
        decl = only_decl("member :: Eq a => a -> [a] -> Bool")
        assert decl.signature.context[0].class_name == "Eq"

    def test_signature_with_multi_context(self):
        decl = only_decl("f :: (Eq a, Text b) => a -> b")
        assert [p.class_name for p in decl.signature.context] == ["Eq", "Text"]

    def test_infix_definition(self):
        decl = only_decl("x <+> y = x")
        assert decl.name == "<+>"
        assert len(decl.equations[0].pats) == 2

    def test_backtick_infix_definition(self):
        decl = only_decl("x `plus` y = x")
        assert decl.name == "plus"

    def test_guards(self):
        decl = only_decl("f x | x = 1\n    | otherwise = 2")
        rhss = decl.equations[0].rhss
        assert len(rhss) == 2
        assert rhss[0].guard is not None

    def test_where_clause(self):
        decl = only_decl("f x = y where y = x")
        assert len(decl.equations[0].where_decls) == 1

    def test_data_declaration(self):
        decl = only_decl("data Maybe a = Nothing | Just a")
        assert isinstance(decl, ast.DataDecl)
        assert decl.name == "Maybe"
        assert [c.name for c in decl.constructors] == ["Nothing", "Just"]
        assert decl.constructors[1].arg_types

    def test_data_with_deriving(self):
        decl = only_decl("data T = A | B deriving (Eq, Ord)")
        assert decl.deriving == ["Eq", "Ord"]

    def test_data_deriving_single(self):
        decl = only_decl("data T = A deriving Eq")
        assert decl.deriving == ["Eq"]

    def test_type_synonym(self):
        decl = only_decl("type Pair a = (a, a)")
        assert isinstance(decl, ast.TypeSynDecl)
        assert decl.tyvars == ["a"]

    def test_class_declaration(self):
        decl = only_decl(
            "class Eq a where\n  (==) :: a -> a -> Bool\n"
            "  x /= y = n")
        assert isinstance(decl, ast.ClassDecl)
        assert decl.name == "Eq"
        assert decl.signatures[0].names == ["=="]
        assert decl.defaults[0].name == "/="

    def test_class_with_superclass(self):
        decl = only_decl("class Eq a => Ord a where\n  f :: a -> a")
        assert decl.superclasses == ["Eq"]

    def test_class_with_multiple_superclasses(self):
        decl = only_decl("class (Eq a, Text a) => Num a where\n  f :: a -> a")
        assert decl.superclasses == ["Eq", "Text"]

    def test_superclass_on_wrong_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_program("class Eq b => Ord a where\n  f :: a -> a")

    def test_instance_declaration(self):
        decl = only_decl("instance Eq Int where\n  (==) = primEqInt")
        assert isinstance(decl, ast.InstanceDecl)
        assert decl.class_name == "Eq"

    def test_instance_with_context(self):
        decl = only_decl("instance Eq a => Eq [a] where\n  x == y = q")
        assert decl.context[0].class_name == "Eq"

    def test_fixity_declaration(self):
        decl = only_decl("infixl 6 +, -")
        assert isinstance(decl, ast.FixityDecl)
        assert decl.operators == ["+", "-"]
        assert decl.precedence == 6

    def test_fixity_out_of_range(self):
        with pytest.raises(ParseError):
            parse_program("infixl 10 +")

    def test_default_declaration(self):
        decl = only_decl("default (Int, Float)")
        assert isinstance(decl, ast.DefaultDecl)
        assert len(decl.types) == 2


class TestExpressions:
    def test_application_left_associative(self):
        expr = parse_expr("f x y")
        assert pp_expr(expr) == "f x y"

    def test_operator_precedence(self):
        assert pp_expr(parse_expr("a + b * c")) == "(+) a ((*) b c)"

    def test_left_associativity(self):
        assert pp_expr(parse_expr("a - b - c")) == "(-) ((-) a b) c"

    def test_right_associativity(self):
        assert pp_expr(parse_expr("a : b : c")) == "(:) a ((:) b c)"

    def test_dollar_lowest(self):
        assert pp_expr(parse_expr("f $ a + b")) == "($) f ((+) a b)"

    def test_comparison_non_associative(self):
        # a == b == c parses as (a == b) == c under our simplification;
        # it will be rejected later by the type checker on Bool vs a.
        expr = parse_expr("a == b")
        assert pp_expr(expr) == "(==) a b"

    def test_unary_minus(self):
        assert pp_expr(parse_expr("-x + y")) == "(+) (negate x) y"

    def test_lambda(self):
        expr = parse_expr("\\x y -> x")
        assert isinstance(expr, ast.Lam)
        assert len(expr.params) == 2

    def test_let(self):
        expr = parse_expr("let x = 1 in x")
        assert isinstance(expr, ast.Let)

    def test_if(self):
        expr = parse_expr("if c then 1 else 2")
        assert isinstance(expr, ast.If)

    def test_case(self):
        expr = parse_expr("case xs of { [] -> 0; (y:ys) -> y }")
        assert isinstance(expr, ast.Case)
        assert len(expr.alts) == 2

    def test_case_with_guards(self):
        expr = parse_expr("case x of { n | n > 0 -> 1 | otherwise -> 2 }")
        assert len(expr.alts[0].rhss) == 2

    def test_tuple(self):
        expr = parse_expr("(1, 'a', x)")
        assert isinstance(expr, ast.TupleExpr)
        assert len(expr.items) == 3

    def test_unit(self):
        expr = parse_expr("()")
        assert isinstance(expr, ast.Con) and expr.name == "()"

    def test_list(self):
        expr = parse_expr("[1, 2, 3]")
        assert isinstance(expr, ast.ListExpr)
        assert len(expr.items) == 3

    def test_empty_list(self):
        expr = parse_expr("[]")
        assert isinstance(expr, ast.ListExpr) and not expr.items

    def test_operator_as_function(self):
        expr = parse_expr("(+)")
        assert isinstance(expr, ast.Var) and expr.name == "+"

    def test_cons_as_function(self):
        expr = parse_expr("(:)")
        assert isinstance(expr, ast.Con) and expr.name == ":"

    def test_right_section(self):
        expr = parse_expr("(+ 1)")
        assert isinstance(expr, ast.Lam)

    def test_left_section(self):
        expr = parse_expr("(2 ^)")
        assert isinstance(expr, ast.App)
        assert pp_expr(expr) == "(^) 2"

    def test_backtick_operator(self):
        assert pp_expr(parse_expr("x `div` y")) == "div x y"

    def test_annotation(self):
        expr = parse_expr("x :: Int")
        assert isinstance(expr, ast.Annot)

    def test_annotation_with_context(self):
        expr = parse_expr("f :: Eq a => a -> Bool")
        assert expr.signature.context[0].class_name == "Eq"

    def test_string_literal(self):
        expr = parse_expr('"hi"')
        assert isinstance(expr, ast.Lit) and expr.kind == "string"

    def test_char_literal(self):
        expr = parse_expr("'x'")
        assert isinstance(expr, ast.Lit) and expr.kind == "char"

    def test_float_literal(self):
        expr = parse_expr("2.5")
        assert isinstance(expr, ast.Lit) and expr.kind == "float"

    def test_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("let = 5")

    def test_error_reports_position(self):
        try:
            parse_program("f = \\ -> 3")
        except ParseError as e:
            assert e.pos is not None
        else:
            pytest.fail("expected a parse error")


class TestPatterns:
    def pat_of(self, source):
        decl = only_decl(source)
        return decl.equations[0].pats[0]

    def test_var_pattern(self):
        assert isinstance(self.pat_of("f x = 1"), ast.PVar)

    def test_wildcard(self):
        assert isinstance(self.pat_of("f _ = 1"), ast.PWild)

    def test_constructor_pattern(self):
        pat = self.pat_of("f (Just x) = 1")
        assert isinstance(pat, ast.PCon) and pat.name == "Just"

    def test_nullary_constructor(self):
        pat = self.pat_of("f Nothing = 1")
        assert isinstance(pat, ast.PCon) and not pat.args

    def test_cons_pattern(self):
        pat = self.pat_of("f (x:xs) = 1")
        assert isinstance(pat, ast.PCon) and pat.name == ":"

    def test_cons_right_associative(self):
        pat = self.pat_of("f (x:y:ys) = 1")
        assert isinstance(pat.args[1], ast.PCon)
        assert pat.args[1].name == ":"

    def test_list_pattern(self):
        pat = self.pat_of("f [x, y] = 1")
        assert isinstance(pat, ast.PCon) and pat.name == ":"

    def test_tuple_pattern(self):
        pat = self.pat_of("f (x, y) = 1")
        assert isinstance(pat, ast.PTuple)

    def test_as_pattern(self):
        pat = self.pat_of("f all@(x:xs) = 1")
        assert isinstance(pat, ast.PAs) and pat.name == "all"

    def test_literal_pattern(self):
        pat = self.pat_of("f 0 = 1")
        assert isinstance(pat, ast.PLit) and pat.value == 0

    def test_string_pattern(self):
        pat = self.pat_of('f "ab" = 1')
        assert isinstance(pat, ast.PLit) and pat.kind == "string"

    def test_pattern_vars(self):
        pat = self.pat_of("f (x, (y:ys), all@(Just z)) = 1")
        assert ast.pat_vars(pat) == ["x", "y", "ys", "all", "z"]


class TestTypes:
    def render(self, source):
        return pp_qual_type(parse_type(source))

    def test_function_type_right_assoc(self):
        assert self.render("a -> b -> c") == "a -> b -> c"

    def test_function_type_parens(self):
        assert self.render("(a -> b) -> c") == "(a -> b) -> c"

    def test_list_type(self):
        assert self.render("[a]") == "[a]"

    def test_tuple_type(self):
        assert self.render("(a, b, c)") == "(a, b, c)"

    def test_application(self):
        assert self.render("Maybe a -> a") == "Maybe a -> a"

    def test_nested_application(self):
        assert self.render("Either (Maybe a) b") == "Either (Maybe a) b"

    def test_context_single(self):
        assert self.render("Eq a => a") == "Eq a => a"

    def test_context_multi(self):
        assert self.render("(Eq a, Ord b) => a -> b") \
            == "(Eq a, Ord b) => a -> b"

    def test_unit_type(self):
        assert self.render("()") == "()"

    def test_arrow_constructor(self):
        q = parse_type("(->)")
        assert isinstance(q.type, ast.STyCon) and q.type.name == "->"


class TestAnnotationsInBrackets:
    """An annotation's ``::`` type ends at the bracket or ``,`` that
    closes around it; the lookahead for a ``context =>`` stops there."""

    @pytest.mark.parametrize("expr, value", [
        ("g (1 :: Int) + g (2 :: Num b => b)", 3),
        ("fst (1 :: Int, 2 :: Num a => a)", 1),
        ("head [1 :: Int, 2 :: Num a => a]", 1),
    ])
    def test_annotation_then_context_evaluates(self, expr, value):
        from repro import compile_source
        program = compile_source(f"g :: Int -> Int\ng x = x\nmain = {expr}")
        assert program.run("main") == value

    def test_lookahead_work_is_linear(self, monkeypatch):
        # Token reads while parsing a main of n four-annotation terms:
        # doubling n at most doubles them (a lookahead that ran on to
        # the end of the input after each annotation made it ~4x).
        from repro.lang.parser import Parser
        reads = [0]
        peek = Parser.peek

        def counting_peek(self, ahead=0):
            reads[0] += 1
            return peek(self, ahead)

        monkeypatch.setattr(Parser, "peek", counting_peek)

        def work(n):
            reads[0] = 0
            term = "g (1 :: Int) (2 :: Int) (x :: Bool) ([] :: [Int])"
            parse_program("main = " + " + ".join([term] * n))
            return reads[0]

        assert work(60) <= 2.1 * work(30)


class TestNonDecimalDigits:
    """The lexer reads any ``str.isdigit`` character as a digit; a digit
    that is not a decimal digit is a located parse error."""

    @pytest.mark.parametrize("source, column", [
        ("main = 1.²", 8),
        ("main = ²", 8),
        ("f 1.² = 1\nf x = 0\nmain = f 2.0", 3),
        ("infixl ² +++\nx +++ y = x\nmain = 1 +++ 2", 8),
    ])
    def test_rejected_where_it_stands(self, source, column):
        with pytest.raises(ParseError, match="not a decimal digit") as exc:
            parse_program(source)
        assert exc.value.code == "parse"
        assert (exc.value.pos.line, exc.value.pos.column) == (1, column)

    def test_unicode_decimal_digit_reads(self):
        from repro import compile_source
        assert compile_source("main = ٣").run("main") == 3
        assert compile_source("main = ١.٥").run("main") == 1.5
