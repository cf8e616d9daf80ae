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

Scanning: one compiled regular expression walks the text once and yields
a (kind, text, char index) tuple per token, kind being 'nat', 'ident',
'op' or 'bad' (any character outside the grammar); whitespace (space,
tab, CR, LF) matches no alternative and is skipped. The descent indexes
that list directly, so a parse costs time per token, not per character.

Errors: ExprSyntaxError carries the byte offset of the offending input,
counted in raw input bytes and computed only when an error is raised,
from the text before the offending token. A character outside the
grammar is reported as unexpected, before any grammar error, wherever
the two lie; that includes a multi-byte character and a byte of argv
that is not UTF-8, which Python passes on as a lone surrogate. The
prefix is encoded with "surrogateescape", which counts such a byte as
the one byte it was. A str input never raises anything but
ExprSyntaxError.
"""

from __future__ import annotations

import re
import sys

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

# one alternative per token kind; whitespace matches none of them, so the
# scan skips it, and any other character is a 'bad' token of its own
_TOKEN = re.compile(
    r"(?P<nat>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()])|(?P<bad>[^ \t\r\n])"
)


def _tokenize(text: str) -> list:
    """(kind, text, char index) per token, closed by ('end', '', len(text))."""
    toks = [(m.lastgroup, m[0], m.start()) for m in _TOKEN.finditer(text)]
    toks.append(("end", "", len(text)))
    return toks


# -- parser ---------------------------------------------------------------


class _Parser:
    """Recursive descent over the token list; `pos` indexes the next token.

    Operators are matched on their text. A 'bad' token matches nothing, so
    a parse that succeeds has none, and `error` reports the first one in
    place of whatever the descent tripped over: an unexpected character
    is reported before any grammar error, wherever the two lie.
    """

    __slots__ = ("text", "toks", "pos", "depth")

    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open '(' and unary '-' around the current position

    def error(self, message: str, tok) -> ExprSyntaxError:
        bad = next((t for t in self.toks if t[0] == "bad"), None)
        if bad is not None:
            message, tok = f"unexpected character {bad[1]!r}", bad
        # every character before the first bad token is ASCII, so the byte
        # count equals the char index; encoding keeps the unit in bytes,
        # one per undecodable argv byte
        prefix = self.text[: tok[2]].encode("utf-8", "surrogateescape")
        return ExprSyntaxError(message, len(prefix))

    def found(self, tok) -> str:
        return "end of input" if tok[0] == "end" else repr(tok[1])

    def too_long(self, tok) -> ExprSyntaxError:
        # int() refuses literals past this limit, as a guard against its
        # quadratic conversion time
        limit = sys.get_int_max_str_digits()
        return self.error(f"number literal longer than {limit} digits", tok)

    def expr(self) -> Node:
        toks = self.toks
        terms = [(1, self.term())]
        while True:
            op = toks[self.pos][1]
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
        while toks[self.pos][1] == "*":
            self.pos += 1
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self) -> Node:
        node = self.base()
        pos = self.pos
        if self.toks[pos][1] != "^":
            return node
        tok = self.toks[pos + 1]
        if tok[0] != "nat":
            raise self.error(
                "expected a natural-number exponent after '^', "
                f"found {self.found(tok)}",
                tok,
            )
        self.pos = pos + 2
        try:
            return Pow(node, int(tok[1]))
        except ValueError:
            raise self.too_long(tok) from None

    def nest(self, tok) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(
                f"parentheses and unary minus nest deeper than {MAX_NESTING}", tok
            )

    def base(self) -> Node:
        tok = self.toks[self.pos]
        kind, text = tok[0], tok[1]
        if kind == "nat":
            self.pos += 1
            try:
                return Num(int(text))
            except ValueError:
                raise self.too_long(tok) from None
        if kind == "ident":
            self.pos += 1
            return Var(text)
        if text == "(":
            self.nest(tok)
            self.pos += 1
            node = self.expr()
            tok = self.toks[self.pos]
            if tok[1] != ")":
                raise self.error(f"expected ')', found {self.found(tok)}", tok)
            self.pos += 1
            self.depth -= 1
            return node
        if text == "-":
            self.nest(tok)
            self.pos += 1
            node = Neg(self.base())
            self.depth -= 1
            return node
        raise self.error(f"expected a value, found {self.found(tok)}", tok)


def parse(text: str) -> Node:
    """Parse expression text to an AST; ExprSyntaxError on bad input."""
    p = _Parser(text)
    node = p.expr()
    tok = p.toks[p.pos]
    if tok[0] != "end":
        raise p.error(f"trailing input {tok[1]!r}", tok)
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
