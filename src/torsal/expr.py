"""Polynomial expression parsing: tokenizer, recursive descent, AST.

Grammar (whitespace-insensitive, no implicit multiplication, no division):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := nat | ident | '(' expr ')' | '-' base

'^' takes a bare natural-number literal and binds *looser* than unary
minus: "-z1^2" is (-z1)^2, which is why the canonical formatter writes
such leading terms as "-1*z1^2". Syntax errors carry the byte offset of
the offending input. Parentheses and unary minus nest at most
MAX_NESTING deep, so hostile input gets a syntax error instead of
exhausting the interpreter's stack. Sums and products are flat n-ary
nodes, so one of any length is built, compared, hashed, printed and
evaluated without recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from torsal.errors import ExprSyntaxError
from torsal.polyring import Polynomial, VarContext, signed_sum

MAX_NESTING = 100

# -- AST ----------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Sum:
    """Signed summands in order: a - b + c is Sum(((1, a), (-1, b), (1, c)))."""

    terms: tuple


@dataclass(frozen=True)
class Product:
    """Factors in order: a*b*c is Product((a, b, c))."""

    factors: tuple


Node = Union[Num, Var, Neg, Pow, Sum, Product]

# -- tokenizer ------------------------------------------------------------

_OPS = "+-*^()"
_DIGITS = "0123456789"
_ALPHA = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"


@dataclass(frozen=True)
class _Token:
    kind: str  # 'nat' | 'ident' | one of _OPS | 'end'
    text: str
    offset: int  # byte offset into the original input


def _tokenize(text: str) -> list[_Token]:
    # byte offset of each character position, so errors point into the
    # raw input even when it contains multi-byte junk
    offsets = [0]
    for ch in text:
        offsets.append(offsets[-1] + len(ch.encode("utf-8")))
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(_Token("nat", text[i:j], offsets[i]))
            i = j
        elif ch in _ALPHA:
            j = i
            while j < n and text[j] in _ALPHA + _DIGITS:
                j += 1
            toks.append(_Token("ident", text[i:j], offsets[i]))
            i = j
        elif ch in _OPS:
            toks.append(_Token(ch, ch, offsets[i]))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", offsets[i])
    toks.append(_Token("end", "", offsets[n]))
    return toks


# -- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.depth = 0  # open '(' and unary '-' around the current position

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            what = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ExprSyntaxError(f"expected {kind!r}, found {what}", tok.offset)
        return self.take()

    def expr(self) -> Node:
        terms = [(1, self.term())]
        while self.peek().kind in "+-":
            sign = 1 if self.take().kind == "+" else -1
            terms.append((sign, self.term()))
        return terms[0][1] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> Node:
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.take()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self) -> Node:
        node = self.base()
        if self.peek().kind == "^":
            self.take()
            tok = self.peek()
            if tok.kind != "nat":
                what = "end of input" if tok.kind == "end" else repr(tok.text)
                raise ExprSyntaxError(
                    f"expected a natural-number exponent after '^', found {what}",
                    tok.offset,
                )
            self.take()
            node = Pow(node, int(tok.text))
        return node

    def nest(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(
                f"parentheses and unary minus nest deeper than {MAX_NESTING}",
                tok.offset,
            )

    def base(self) -> Node:
        tok = self.peek()
        if tok.kind == "nat":
            self.take()
            return Num(int(tok.text))
        if tok.kind == "ident":
            self.take()
            return Var(tok.text)
        if tok.kind == "(":
            self.nest(self.take())
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if tok.kind == "-":
            self.nest(self.take())
            node = Neg(self.base())
            self.depth -= 1
            return node
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ExprSyntaxError(f"expected a value, found {what}", tok.offset)


def parse(text: str) -> Node:
    """Parse expression text to an AST; ExprSyntaxError on bad input."""
    p = _Parser(_tokenize(text))
    node = p.expr()
    tok = p.peek()
    if tok.kind != "end":
        raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.offset)
    return node


def to_polynomial(node: Node, context: VarContext) -> Polynomial:
    """Evaluate an AST in the polynomial ring of `context`.

    A Sum is summed into one term dict and a Product is folded left to
    right; only nesting (bounded by the parser) recurses. Raises
    UnknownVariableError for identifiers outside the context.
    """
    if isinstance(node, Sum):
        return signed_sum(
            context, [(sign, to_polynomial(n, context)) for sign, n in node.terms]
        )
    if isinstance(node, Product):
        # numbers, variables and their powers fold into one term; the
        # other factors are multiplied in (left to right, as written)
        coefficient, exps, product = 1, [0] * len(context), None
        for factor in node.factors:
            base, e = (factor.base, factor.exponent) if isinstance(factor, Pow) else (factor, 1)
            if isinstance(base, Num):
                coefficient *= base.value ** e
            elif isinstance(base, Var):
                exps[context.index(base.name)] += e
            else:
                f = to_polynomial(factor, context)
                product = f if product is None else product * f
        term = Polynomial(context, {tuple(exps): coefficient})
        return term if product is None else term * product
    if isinstance(node, Num):
        return Polynomial.constant(context, node.value)
    if isinstance(node, Var):
        return context.variable(node.name)
    if isinstance(node, Neg):
        return -to_polynomial(node.operand, context)
    if isinstance(node, Pow):
        return to_polynomial(node.base, context) ** node.exponent
    raise TypeError(f"not an expression node: {node!r}")


def parse_polynomial(text: str, context: VarContext) -> Polynomial:
    """parse() followed by to_polynomial()."""
    return to_polynomial(parse(text), context)
