"""Polynomial expression parsing: tokenizer, recursive descent, AST.

Grammar (whitespace-insensitive, no implicit multiplication, no division):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := nat | ident | '(' expr ')' | '-' base

'^' takes a bare natural-number literal and binds *looser* than unary
minus: "-z1^2" is (-z1)^2, which is why the canonical formatter writes
such leading terms as "-1*z1^2". Parentheses and unary minus nest at
most MAX_NESTING deep, so hostile input gets a syntax error instead of
exhausting the interpreter's stack. Sums and products are flat n-ary
nodes, so one of any length is built, compared, hashed, printed and
evaluated without recursion.

Scanning: one findall of a compiled regular expression yields the token
strings, closed by an "" sentinel for the end of input: a number, an
identifier, an operator, or any one character outside the grammar;
whitespace (space, tab, CR, LF) matches no alternative and is skipped.
A token's kind is read from its first character. The descent indexes
that list directly, so a parse costs time per token, not per character,
and carries no positions.

Errors: ExprSyntaxError carries the byte offset of the offending input,
computed only when an error is raised, by scanning again for the
position of the offending token. A character outside the grammar is
reported as unexpected, before any grammar error, wherever the two lie;
that includes a multi-byte character and a byte of argv that is not
UTF-8, which Python passes on as a lone surrogate. Everything before the
first such character is ASCII, so its char index is its byte offset. A
str input never raises anything but ExprSyntaxError.
"""

from __future__ import annotations

import re
import sys
from itertools import islice

from torsal._record import Record
from torsal.errors import ExprSyntaxError
from torsal.polyring import Polynomial, VarContext, signed_sum

MAX_NESTING = 100

# -- AST ----------------------------------------------------------------

# the parser builds one node per token or operator, so each node class
# assigns its fields in its own __init__; Record supplies ==, hash and repr


class Num(Record):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Neg(Record):
    __slots__ = ("operand",)

    def __init__(self, operand: Node):
        self.operand = operand


class Pow(Record):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Node, exponent: int):
        self.base = base
        self.exponent = exponent


class Sum(Record):
    """Signed summands in order: a - b + c is Sum(((1, a), (-1, b), (1, c)))."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms


class Product(Record):
    """Factors in order: a*b*c is Product((a, b, c))."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors


Node = Num | Var | Neg | Pow | Sum | Product

# -- tokenizer ------------------------------------------------------------

# one alternative per token; whitespace matches none of them, so the scan
# skips it, and any other character is a token of its own that no rule
# of the grammar accepts
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*^()]|[^ \t\r\n]")

# a token's kind is read from its first character; the sets are ASCII
# only, as the pattern is (str.isdigit and str.isalpha accept "²" and "é")
_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_GRAMMAR_START = _DIGITS | _IDENT_START | frozenset("-+*^()")


# -- parser ---------------------------------------------------------------


class _Parser:
    """Recursive descent over the token strings; `pos` indexes the next token.

    The list ends in an "" sentinel for the end of input. A token outside
    the grammar matches nothing, so a parse that succeeds has none, and
    `error` reports the first one in place of whatever the descent tripped
    over: an unexpected character is reported before any grammar error,
    wherever the two lie.
    """

    __slots__ = ("text", "toks", "pos", "depth")

    def __init__(self, text):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.toks.append("")
        self.pos = 0
        self.depth = 0  # open '(' and unary '-' around the current position

    def error(self, message: str, index: int) -> ExprSyntaxError:
        """The error for the token at `index`, or for the first bad token."""
        toks = self.toks
        bad = next(
            (i for i, tok in enumerate(toks) if tok and tok[0] not in _GRAMMAR_START),
            None,
        )
        if bad is not None:
            message, index = f"unexpected character {toks[bad]!r}", bad
        # the same scan again, for the char index of token `index`; the
        # sentinel's is the end of the text. What precedes it is ASCII, so
        # the char index is the byte offset
        match = next(islice(_TOKEN.finditer(self.text), index, None), None)
        offset = len(self.text) if match is None else match.start()
        return ExprSyntaxError(message, offset)

    def found(self, tok: str) -> str:
        return repr(tok) if tok else "end of input"

    def too_long(self, index: int) -> ExprSyntaxError:
        # int() refuses literals past this limit, as a guard against its
        # quadratic conversion time
        limit = sys.get_int_max_str_digits()
        return self.error(f"number literal longer than {limit} digits", index)

    def expr(self) -> Node:
        toks = self.toks
        terms = [(1, self.term())]
        while True:
            op = toks[self.pos]
            if op == "+":
                sign = 1
            elif op == "-":
                sign = -1
            else:
                break
            self.pos += 1
            terms.append((sign, self.term()))
        return terms[0][1] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> Node:
        toks = self.toks
        factors = [self.factor()]
        while toks[self.pos] == "*":
            self.pos += 1
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self) -> Node:
        node = self.base()
        pos = self.pos
        if self.toks[pos] != "^":
            return node
        tok = self.toks[pos + 1]
        if tok[:1] not in _DIGITS:
            raise self.error(
                "expected a natural-number exponent after '^', "
                f"found {self.found(tok)}",
                pos + 1,
            )
        self.pos = pos + 2
        try:
            return Pow(node, int(tok))
        except ValueError:
            raise self.too_long(pos + 1) from None

    def nest(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(
                f"parentheses and unary minus nest deeper than {MAX_NESTING}",
                self.pos,
            )

    def base(self) -> Node:
        pos = self.pos
        tok = self.toks[pos]
        first = tok[:1]
        if first in _DIGITS:
            self.pos = pos + 1
            try:
                return Num(int(tok))
            except ValueError:
                raise self.too_long(pos) from None
        if first in _IDENT_START:
            self.pos = pos + 1
            return Var(tok)
        if tok == "(":
            self.nest()
            self.pos = pos + 1
            node = self.expr()
            tok = self.toks[self.pos]
            if tok != ")":
                raise self.error(f"expected ')', found {self.found(tok)}", self.pos)
            self.pos += 1
            self.depth -= 1
            return node
        if tok == "-":
            self.nest()
            self.pos = pos + 1
            node = Neg(self.base())
            self.depth -= 1
            return node
        raise self.error(f"expected a value, found {self.found(tok)}", pos)


def parse(text: str) -> Node:
    """Parse expression text to an AST; ExprSyntaxError on bad input."""
    p = _Parser(text)
    node = p.expr()
    tok = p.toks[p.pos]
    if tok:
        raise p.error(f"trailing input {tok!r}", p.pos)
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
        # coefficient is an int, so (coefficient, 1) is already a kernel
        # pair; a zero term is never packed, so it cannot hit the degree guard
        term = Polynomial._make(
            context, {context._pack(exps): (coefficient, 1)} if coefficient else {}
        )
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
