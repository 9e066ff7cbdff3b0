"""Recursive-descent parser for the XQuery subset of Table II.

Covers: a prolog of function/variable declarations, FLWOR expressions
(desugared at parse time into the XCore ``for``/``let``/``if``/
``order by`` core forms, as Section III prescribes), quantified
expressions, typeswitch, if/then/else, general and node comparisons,
arithmetic, node-set operators, path expressions with all thirteen
axes and positional/boolean predicates, computed *and* direct
constructors, function calls, and the XRPC ``execute at`` expression
(grammar rules 27-28, in both the real-XRPC form
``execute at {E} {fcn(args)}`` and the paper's presentation form
``execute at {E} function ($p := $q) {body}``).

Paths keep consecutive steps together in one :class:`PathExpr` — the
representation the paper's d-graph analysis assumes.
"""

from __future__ import annotations

from sys import intern as _intern

from repro.errors import UndefinedFunctionError, XQuerySyntaxError
from repro.xquery.ast import (
    ArithmeticExpr, ComparisonExpr, ConstructorExpr, ContextItemExpr,
    EmptySequence, Expr, ForExpr, FunCall, FunctionDecl, IfExpr, LetExpr,
    Literal, LiteralSlot, LogicalExpr, Module, NodeSetExpr, OrderByExpr,
    OrderSpec, Param, PathExpr, QuantifiedExpr, RangeExpr, SequenceExpr,
    Step, TypeswitchCase, TypeswitchExpr, UnaryExpr, VarRef, XRPCExpr,
    XRPCParam,
)
from repro.xquery.functions import BUILTINS
from repro.xquery.lexer import Lexer, Token, TokenType

_AXES = {
    "child", "attribute", "descendant", "descendant-or-self", "self",
    "parent", "ancestor", "ancestor-or-self", "following",
    "following-sibling", "preceding", "preceding-sibling",
}

_KIND_TESTS = {"node", "text", "comment"}

#: fn: builtins keep their local name; other prefixes are preserved.
_FN_PREFIX = "fn:"
#: A declaration may not take one of these names, at any arity.
_BUILTIN_NAMES = frozenset(name for name, _arity in BUILTINS)


def canonical_function_name(name: str) -> str:
    if name.startswith(_FN_PREFIX):
        return name[len(_FN_PREFIX):]
    return name


def parse_query(text: str,
                slots: dict[int, LiteralSlot] | None = None) -> Module:
    """Parse a main module (prolog + body). ``slots`` maps the offset
    of a literal token to the leaf that stands for it in a prepared
    query (:func:`repro.xquery.prepared.scan` finds them)."""
    return _Parser(text, slots).parse_module()


def parse_expr(text: str,
               slots: dict[int, LiteralSlot] | None = None) -> Expr:
    """Parse a single expression (no prolog)."""
    parser = _Parser(text, slots)
    expr = parser.parse_expr()
    parser.expect_end()
    return expr


class _Parser:
    def __init__(self, text: str,
                 slots: dict[int, LiteralSlot] | None = None):
        self.lexer = Lexer(text)
        self.slots = slots or {}
        self.declared_functions: dict[tuple[str, int], FunctionDecl] = {}

    # -- token helpers -------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.lexer.peek(ahead)

    def next(self) -> Token:
        return self.lexer.next()

    def error(self, message: str) -> XQuerySyntaxError:
        token = self.peek()
        return self.lexer.error(f"{message} (found {token.text!r})",
                                token.offset)

    def accept_symbol(self, *symbols: str) -> Token | None:
        if self.peek().is_symbol(*symbols):
            return self.next()
        return None

    def expect_symbol(self, symbol: str) -> Token:
        token = self.accept_symbol(symbol)
        if token is None:
            raise self.error(f"expected {symbol!r}")
        return token

    def accept_name(self, *names: str) -> Token | None:
        if self.peek().is_name(*names):
            return self.next()
        return None

    def expect_name(self, name: str) -> Token:
        token = self.accept_name(name)
        if token is None:
            raise self.error(f"expected keyword {name!r}")
        return token

    def expect_variable(self) -> str:
        token = self.peek()
        if token.type != TokenType.VARIABLE:
            raise self.error("expected a variable")
        self.next()
        return token.text

    def expect_end(self) -> None:
        if self.peek().type != TokenType.END:
            raise self.error("unexpected trailing content")

    # -- module & prolog -------------------------------------------------------

    def parse_module(self) -> Module:
        functions: list[FunctionDecl] = []
        lets: list[tuple[str, Expr]] = []
        while self.peek().is_name("declare"):
            second = self.peek(1)
            if second.is_name("function"):
                decl = self.parse_function_decl()
                functions.append(decl)
                self.declared_functions[(decl.name, len(decl.params))] = decl
            elif second.is_name("variable"):
                lets.append(self.parse_variable_decl())
            else:
                raise self.error("expected 'function' or 'variable'")
        body = self.parse_expr()
        self.expect_end()
        # Declared variables become outermost let-bindings.
        for name, value in reversed(lets):
            body = LetExpr(name, value, body)
        return Module(functions, body)

    def parse_function_decl(self) -> FunctionDecl:
        self.expect_name("declare")
        self.expect_name("function")
        name_token = self.peek()
        if name_token.type != TokenType.NAME:
            raise self.error("expected function name")
        self.next()
        name = canonical_function_name(name_token.text)
        self.expect_symbol("(")
        params: list[Param] = []
        if not self.peek().is_symbol(")"):
            while True:
                pname = self.expect_variable()
                seq_type = "item()*"
                if self.accept_name("as"):
                    seq_type = self.parse_sequence_type()
                params.append(Param(pname, seq_type))
                if not self.accept_symbol(","):
                    break
        self.expect_symbol(")")
        return_type = "item()*"
        if self.accept_name("as"):
            return_type = self.parse_sequence_type()
        if name in _BUILTIN_NAMES:
            # XQST0045: analyses know a built-in by its name alone.
            raise self.lexer.error(
                f"function {name}#{len(params)} takes a built-in's name",
                name_token.offset)
        self.expect_symbol("{")
        body = self.parse_expr()
        self.expect_symbol("}")
        self.expect_symbol(";")
        return FunctionDecl(name, params, return_type, body)

    def parse_variable_decl(self) -> tuple[str, Expr]:
        self.expect_name("declare")
        self.expect_name("variable")
        name = self.expect_variable()
        if self.accept_name("as"):
            self.parse_sequence_type()
        self.expect_symbol(":=")
        value = self.parse_expr_single()
        self.expect_symbol(";")
        return name, value

    def parse_sequence_type(self) -> str:
        """Parse a SequenceType into its source string."""
        parts: list[str] = []
        token = self.peek()
        if token.type != TokenType.NAME:
            raise self.error("expected a sequence type")
        parts.append(self.next().text)
        if self.accept_symbol("("):
            inner = []
            while not self.peek().is_symbol(")"):
                inner.append(self.next().text)
            self.expect_symbol(")")
            parts.append("(" + " ".join(inner) + ")")
        occurrence = self.peek()
        if occurrence.is_symbol("*", "+", "?"):
            # Only attach when it's an occurrence indicator, not the
            # start of the next expression; inside declarations the
            # next token after a type is ',', ')', '{', or 'return'.
            following = self.peek(1)
            if following.is_symbol(",", ")", "{") or following.is_name("return"):
                parts.append(self.next().text)
        return "".join(parts)

    # -- expressions -------------------------------------------------------------

    def parse_expr(self) -> Expr:
        """Expr := ExprSingle ("," ExprSingle)*"""
        first = self.parse_expr_single()
        if not self.peek().is_symbol(","):
            return first
        items = [first]
        while self.accept_symbol(","):
            items.append(self.parse_expr_single())
        return SequenceExpr(items)

    def parse_expr_single(self) -> Expr:
        token = self.peek()
        if token.type == TokenType.NAME:
            if token.text in ("for", "let") and self._clause_follows():
                return self.parse_flwor()
            if token.text in ("some", "every") and \
                    self.peek(1).type == TokenType.VARIABLE:
                return self.parse_quantified()
            if token.text == "if" and self.peek(1).is_symbol("("):
                return self.parse_if()
            if token.text == "typeswitch" and self.peek(1).is_symbol("("):
                return self.parse_typeswitch()
            if token.text == "execute" and self.peek(1).is_name("at"):
                return self.parse_execute_at()
        return self.parse_or()

    def _clause_follows(self) -> bool:
        return self.peek(1).type == TokenType.VARIABLE

    # -- FLWOR ----------------------------------------------------------------

    def parse_flwor(self) -> Expr:
        """Parse for/let clauses and desugar into core expressions."""
        clauses: list[tuple[str, str, str | None, Expr]] = []
        while True:
            token = self.peek()
            if token.is_name("for") and self._clause_follows():
                self.next()
                while True:
                    var = self.expect_variable()
                    pos_var = None
                    if self.accept_name("at"):
                        pos_var = self.expect_variable()
                    self.expect_name("in")
                    seq = self.parse_expr_single()
                    clauses.append(("for", var, pos_var, seq))
                    if not self.accept_symbol(","):
                        break
            elif token.is_name("let") and self._clause_follows():
                self.next()
                while True:
                    var = self.expect_variable()
                    if self.accept_name("as"):
                        self.parse_sequence_type()
                    self.expect_symbol(":=")
                    value = self.parse_expr_single()
                    clauses.append(("let", var, None, value))
                    if not self.accept_symbol(","):
                        break
            else:
                break

        where_cond: Expr | None = None
        if self.accept_name("where"):
            where_cond = self.parse_expr_single()

        order_specs: list[OrderSpec] | None = None
        if self.peek().is_name("order") and self.peek(1).is_name("by"):
            self.next()
            self.next()
            order_specs = []
            while True:
                key = self.parse_expr_single()
                ascending = not self.accept_name("descending")
                if ascending:
                    self.accept_name("ascending")
                empty_greatest = False
                if self.accept_name("empty"):
                    empty_greatest = bool(self.accept_name("greatest"))
                    if not empty_greatest:
                        self.expect_name("least")
                if self.peek().is_name("collation"):
                    raise self.error("order by collation is not supported")
                order_specs.append(OrderSpec(key, ascending, empty_greatest))
                if not self.accept_symbol(","):
                    break
        elif self.peek().is_name("stable") and self.peek(1).is_name("order"):
            raise self.error("stable ordering is not supported")

        self.expect_name("return")
        body = self.parse_expr_single()

        if where_cond is not None:
            body = IfExpr(where_cond, body, EmptySequence())

        if order_specs is not None:
            for_clauses = [c for c in clauses if c[0] == "for"]
            if len(for_clauses) != 1:
                raise XQuerySyntaxError(
                    "order by requires exactly one for clause "
                    "in this XQuery subset")
            # Build inner lets (those after the for) into the body.
            index = next(i for i, c in enumerate(clauses) if c[0] == "for")
            kind, var, pos_var, seq = clauses[index]
            if pos_var is not None:
                raise XQuerySyntaxError(
                    "positional variables cannot combine with order by")
            for c_kind, c_var, _, c_value in reversed(clauses[index + 1:]):
                assert c_kind == "let"
                body = LetExpr(c_var, c_value, body)
            result: Expr = OrderByExpr(var, seq, order_specs, body)
            for c_kind, c_var, _, c_value in reversed(clauses[:index]):
                assert c_kind == "let"
                result = LetExpr(c_var, c_value, result)
            return result

        result = body
        for kind, var, pos_var, value in reversed(clauses):
            if kind == "for":
                result = ForExpr(var, value, result, pos_var)
            else:
                result = LetExpr(var, value, result)
        return result

    def parse_quantified(self) -> Expr:
        quantifier = self.next().text
        bindings = []
        while True:
            var = self.expect_variable()
            self.expect_name("in")
            bindings.append((var, self.parse_expr_single()))
            if not self.accept_symbol(","):
                break
        self.expect_name("satisfies")
        result = self.parse_expr_single()
        # ``some $a in X, $b in Y satisfies C`` is ``some $a in X
        # satisfies some $b in Y satisfies C`` (and so for ``every``).
        for var, seq in reversed(bindings):
            result = QuantifiedExpr(quantifier, var, seq, result)
        return result

    def parse_if(self) -> Expr:
        self.expect_name("if")
        self.expect_symbol("(")
        cond = self.parse_expr()
        self.expect_symbol(")")
        self.expect_name("then")
        then_branch = self.parse_expr_single()
        self.expect_name("else")
        else_branch = self.parse_expr_single()
        return IfExpr(cond, then_branch, else_branch)

    def parse_typeswitch(self) -> Expr:
        self.expect_name("typeswitch")
        self.expect_symbol("(")
        operand = self.parse_expr()
        self.expect_symbol(")")
        cases: list[TypeswitchCase] = []
        while self.accept_name("case"):
            var = None
            if self.peek().type == TokenType.VARIABLE:
                var = self.expect_variable()
                self.expect_name("as")
            seq_type = self.parse_sequence_type()
            self.expect_name("return")
            body = self.parse_expr_single()
            cases.append(TypeswitchCase(var, seq_type, body))
        if not cases:
            raise self.error("typeswitch requires at least one case")
        self.expect_name("default")
        default_var = None
        if self.peek().type == TokenType.VARIABLE:
            default_var = self.expect_variable()
        self.expect_name("return")
        default_body = self.parse_expr_single()
        return TypeswitchExpr(operand, cases, default_var, default_body)

    # -- XRPC -----------------------------------------------------------------

    def parse_execute_at(self) -> Expr:
        """``execute at {dest} {fcn(args)}`` or the rule-27 anonymous
        function form ``execute at {dest} function ($p := $q) {body}``."""
        self.expect_name("execute")
        self.expect_name("at")
        self.expect_symbol("{")
        dest = self.parse_expr()
        self.expect_symbol("}")

        if self.accept_name("function"):
            self.expect_symbol("(")
            params: list[XRPCParam] = []
            if not self.peek().is_symbol(")"):
                while True:
                    pname = self.expect_variable()
                    self.expect_symbol(":=")
                    value = self.parse_expr_single()
                    params.append(XRPCParam(pname, value))
                    if not self.accept_symbol(","):
                        break
            self.expect_symbol(")")
            self.expect_symbol("{")
            body = self.parse_expr()
            self.expect_symbol("}")
            return XRPCExpr(dest, params, body)

        self.expect_symbol("{")
        call = self.parse_expr()
        self.expect_symbol("}")
        if not isinstance(call, FunCall):
            raise XQuerySyntaxError(
                "execute at body must be a single function application")
        decl = self.declared_functions.get((call.name, len(call.args)))
        if decl is None:
            raise UndefinedFunctionError(call.name, len(call.args))
        params = [XRPCParam(param.name, arg)
                  for param, arg in zip(decl.params, call.args)]
        return XRPCExpr(dest, params, decl.body)

    # -- operator precedence chain -------------------------------------------------

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.peek().is_name("or"):
            self.next()
            left = LogicalExpr("or", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_comparison()
        while self.peek().is_name("and"):
            self.next()
            left = LogicalExpr("and", left, self.parse_comparison())
        return left

    def parse_comparison(self) -> Expr:
        left = self.parse_range()
        token = self.peek()
        if token.is_symbol("=", "!=", "<", "<=", ">", ">="):
            op = self.next().text
            return ComparisonExpr(op, left, self.parse_range())
        if token.is_symbol("<<", ">>"):
            op = self.next().text
            return ComparisonExpr(op, left, self.parse_range())
        if token.is_name("is"):
            self.next()
            return ComparisonExpr("is", left, self.parse_range())
        if token.is_name("eq", "ne", "lt", "le", "gt", "ge"):
            symbol = {"eq": "=", "ne": "!=", "lt": "<",
                      "le": "<=", "gt": ">", "ge": ">="}[self.next().text]
            return ComparisonExpr(symbol, left, self.parse_range())
        return left

    def parse_range(self) -> Expr:
        left = self.parse_additive()
        if self.peek().is_name("to"):
            self.next()
            return RangeExpr(left, self.parse_additive())
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while self.peek().is_symbol("+", "-"):
            op = self.next().text
            left = ArithmeticExpr(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_union()
        while True:
            token = self.peek()
            if token.is_symbol("*"):
                self.next()
                left = ArithmeticExpr("*", left, self.parse_union())
            elif token.is_name("div", "idiv", "mod"):
                op = self.next().text
                left = ArithmeticExpr(op, left, self.parse_union())
            else:
                return left

    def parse_union(self) -> Expr:
        left = self.parse_intersect_except()
        while self.peek().is_name("union") or self.peek().is_symbol("|"):
            self.next()
            left = NodeSetExpr("union", left, self.parse_intersect_except())
        return left

    def parse_intersect_except(self) -> Expr:
        left = self.parse_unary()
        while self.peek().is_name("intersect", "except"):
            op = self.next().text
            left = NodeSetExpr(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        if self.peek().is_symbol("-", "+"):
            op = self.next().text
            return UnaryExpr(op, self.parse_unary())
        return self.parse_path()

    # -- paths -----------------------------------------------------------------

    def parse_path(self) -> Expr:
        input_expr = self.parse_step_or_primary()
        steps: list[Step] = []
        # Predicates directly on the primary become a self-step.
        primary_preds = self.parse_predicates()
        if primary_preds:
            steps.append(Step("self", "node()", primary_preds))
        while True:
            if self.accept_symbol("//"):
                steps.append(Step("descendant-or-self", "node()"))
                steps.append(self.parse_step())
            elif self.accept_symbol("/"):
                steps.append(self.parse_step())
            else:
                break
        if not steps:
            return input_expr
        return PathExpr(input_expr, steps)

    def parse_step(self) -> Step:
        token = self.peek()
        if token.is_symbol("@"):
            self.next()
            test = self.parse_node_test()
            return Step("attribute", test, self.parse_predicates())
        if token.is_symbol(".."):
            self.next()
            return Step("parent", "node()", self.parse_predicates())
        if token.is_symbol("."):
            self.next()
            return Step("self", "node()", self.parse_predicates())
        if token.type == TokenType.NAME and token.text in _AXES \
                and self.peek(1).is_symbol("::"):
            axis = self.next().text
            self.expect_symbol("::")
            test = self.parse_node_test()
            return Step(axis, test, self.parse_predicates())
        test = self.parse_node_test()
        return Step("child", test, self.parse_predicates())

    def parse_node_test(self) -> str:
        token = self.peek()
        if token.is_symbol("*"):
            self.next()
            return "*"
        if token.type != TokenType.NAME:
            raise self.error("expected a node test")
        name = self.next().text
        if name in _KIND_TESTS and self.peek().is_symbol("("):
            self.next()
            self.expect_symbol(")")
            return f"{name}()"
        # Interned to match the document store's interned name column:
        # name tests then compare by identity in the common case.
        return _intern(name)

    def parse_predicates(self) -> list[Expr]:
        predicates: list[Expr] = []
        while self.accept_symbol("["):
            predicates.append(self.parse_expr())
            self.expect_symbol("]")
        return predicates

    # -- primaries ---------------------------------------------------------------

    def parse_step_or_primary(self) -> Expr:
        token = self.peek()

        if token.type == TokenType.VARIABLE:
            self.next()
            return VarRef(token.text)
        if token.type in (TokenType.STRING, TokenType.INTEGER,
                          TokenType.DOUBLE):
            self.next()
            return self.slots.get(token.offset) or Literal(token.value)

        if token.is_symbol("("):
            self.next()
            if self.accept_symbol(")"):
                return EmptySequence()
            inner = self.parse_expr()
            self.expect_symbol(")")
            return inner

        if token.is_symbol("<"):
            return self.parse_direct_constructor()

        if token.is_symbol("."):
            # Handled by parse_step for path tails; a standalone "."
            # is the context item.
            self.next()
            return ContextItemExpr()

        if token.is_symbol("@"):
            self.next()
            test = self.parse_node_test()
            return PathExpr(ContextItemExpr(), [Step("attribute", test)])

        if token.type == TokenType.NAME:
            return self.parse_named_primary()

        raise self.error("expected an expression")

    def parse_named_primary(self) -> Expr:
        token = self.peek()
        name = token.text

        # Computed constructors.
        if name in ("element", "attribute") and (
                self.peek(1).type == TokenType.NAME
                or self.peek(1).is_symbol("{")):
            return self.parse_computed_constructor()
        if name in ("document", "text") and self.peek(1).is_symbol("{"):
            kind = self.next().text
            self.expect_symbol("{")
            content = [] if self.peek().is_symbol("}") \
                else [self.parse_expr()]
            self.expect_symbol("}")
            return ConstructorExpr(kind, None, None, content)

        # Function call.
        if self.peek(1).is_symbol("(") and name not in _KIND_TESTS:
            self.next()
            self.expect_symbol("(")
            args: list[Expr] = []
            if not self.peek().is_symbol(")"):
                while True:
                    args.append(self.parse_expr_single())
                    if not self.accept_symbol(","):
                        break
            self.expect_symbol(")")
            return FunCall(canonical_function_name(name), args)

        # A bare name / kind test is a child step from the context item
        # (used inside predicates, e.g. "$s[tutor = ...]").
        if name in _AXES and self.peek(1).is_symbol("::"):
            step = self.parse_step()
            return PathExpr(ContextItemExpr(), [step])
        test = self.parse_node_test()
        return PathExpr(ContextItemExpr(), [Step("child", test)])

    def parse_computed_constructor(self) -> Expr:
        kind = self.next().text
        name: str | None = None
        name_expr: Expr | None = None
        if self.peek().type == TokenType.NAME:
            name = self.next().text
        else:
            self.expect_symbol("{")
            name_expr = self.parse_expr()
            self.expect_symbol("}")
        self.expect_symbol("{")
        content = [] if self.peek().is_symbol("}") else [self.parse_expr()]
        self.expect_symbol("}")
        return ConstructorExpr(kind, name, name_expr, content)

    # -- direct constructors --------------------------------------------------------

    def parse_direct_constructor(self) -> Expr:
        """Parse ``<name attr="v">content</name>`` by raw scanning.

        The lexer is repositioned past the constructor afterwards.
        Embedded ``{expr}`` content is parsed recursively with a nested
        parser sharing this parser's function declarations.
        """
        open_token = self.expect_symbol("<")
        text = self.lexer.text
        pos = open_token.offset
        expr, end = self._scan_element(text, pos)
        self.lexer.reset(end)
        return expr

    def _scan_element(self, text: str, pos: int) -> tuple[Expr, int]:
        if text[pos] != "<":
            raise XQuerySyntaxError("expected '<'", pos)
        pos += 1
        name_start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] in "-._:"):
            pos += 1
        name = text[name_start:pos]
        if not name:
            raise XQuerySyntaxError("expected element name", pos)

        content: list[Expr] = []
        # Attributes.
        while True:
            while pos < len(text) and text[pos] in " \t\r\n":
                pos += 1
            if pos >= len(text):
                raise XQuerySyntaxError("unterminated constructor", pos)
            if text.startswith("/>", pos):
                return ConstructorExpr("element", name, None,
                                       content), pos + 2
            if text[pos] == ">":
                pos += 1
                break
            attr_start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] in "-._:"):
                pos += 1
            attr_name = text[attr_start:pos]
            while pos < len(text) and text[pos] in " \t\r\n":
                pos += 1
            if pos >= len(text) or text[pos] != "=":
                raise XQuerySyntaxError(f"expected '=' after attribute "
                                        f"{attr_name!r}", pos)
            pos += 1
            while pos < len(text) and text[pos] in " \t\r\n":
                pos += 1
            quote = text[pos] if pos < len(text) else ""
            if quote not in "'\"":
                raise XQuerySyntaxError("expected quoted attribute value", pos)
            pos += 1
            value_parts: list[Expr] = []
            chunk_start = pos
            while pos < len(text) and text[pos] != quote:
                if text[pos] == "{":
                    if pos > chunk_start:
                        value_parts.append(Literal(text[chunk_start:pos]))
                    inner, pos = self._scan_embedded_expr(text, pos)
                    value_parts.append(inner)
                    chunk_start = pos
                else:
                    pos += 1
            if pos >= len(text):
                raise XQuerySyntaxError("unterminated attribute value", pos)
            if pos > chunk_start:
                value_parts.append(Literal(text[chunk_start:pos]))
            pos += 1
            attr_content: list[Expr]
            if len(value_parts) <= 1:
                attr_content = value_parts
            else:
                attr_content = [FunCall("concat", value_parts)]
            content.append(
                ConstructorExpr("attribute", attr_name, None, attr_content))

        # Content until the matching close tag.
        chunk_start = pos
        while True:
            if pos >= len(text):
                raise XQuerySyntaxError(f"unterminated <{name}>", pos)
            ch = text[pos]
            if ch == "<":
                raw = text[chunk_start:pos]
                if raw.strip():
                    content.append(ConstructorExpr("text", None, None,
                                                   [Literal(raw)]))
                if text.startswith("</", pos):
                    pos += 2
                    close_start = pos
                    while pos < len(text) and text[pos] != ">":
                        pos += 1
                    close_name = text[close_start:pos].strip()
                    if close_name != name:
                        raise XQuerySyntaxError(
                            f"mismatched </{close_name}> for <{name}>", pos)
                    pos += 1
                    return ConstructorExpr("element", name, None,
                                           content), pos
                child, pos = self._scan_element(text, pos)
                content.append(child)
                chunk_start = pos
            elif ch == "{":
                raw = text[chunk_start:pos]
                if raw.strip():
                    content.append(ConstructorExpr("text", None, None,
                                                   [Literal(raw)]))
                inner, pos = self._scan_embedded_expr(text, pos)
                content.append(inner)
                chunk_start = pos
            else:
                pos += 1

    def _scan_embedded_expr(self, text: str, pos: int) -> tuple[Expr, int]:
        """Parse a ``{...}`` enclosed expression starting at ``pos``."""
        assert text[pos] == "{"
        nested = _Parser(text)
        nested.declared_functions = self.declared_functions
        nested.lexer.reset(pos + 1)
        expr = nested.parse_expr()
        closing = nested.peek()
        if not closing.is_symbol("}"):
            raise XQuerySyntaxError("expected '}' after embedded expression",
                                    closing.offset)
        return expr, closing.offset + 1
