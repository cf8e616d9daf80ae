"""Polynomial expression parsing: tokenizer, one recursive descent that
builds an AST, and a reader of canonical text ahead of it.

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

Parsing: _Parser holds the one grammar and builds the AST; parse()
returns it and to_polynomial() evaluates it. parse_polynomial reads any
text _canonical declines as to_polynomial(parse(text)), so the whole
text has parsed, and every syntax error is raised, before any term is
evaluated or any power expanded.

Canonical text: parse_polynomial first hands the text to _canonical, a
recognizer for the language format_polynomial writes with int
coefficients (terms joined by " + " or " - ", each a number, or a
number and factors 'name' or 'name^nat' joined by '*'). It splits the
text on spaces and on '*' with str.split and folds each term into the
term dict, with no token list. It accepts no text the grammar reads
differently and declines every other text, which the descent then reads
from the start: results, errors and byte offsets are the descent's own.

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

from torsal._kernel import DEGREE_LIMIT, add_into
from torsal._record import Record
from torsal.errors import ExprSyntaxError
from torsal.polyring import Polynomial, VarContext

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

    def read(self) -> Node:
        """The whole text as one expr."""
        node = self.expr()
        tok = self.toks[self.pos]
        if tok:
            raise self.error(f"trailing input {tok!r}", self.pos)
        return node

    def expr(self) -> Node:
        """A Sum of the signed terms, or the one term alone."""
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
            group = self.expr()
            tok = self.toks[self.pos]
            if tok != ")":
                raise self.error(f"expected ')', found {self.found(tok)}", self.pos)
            self.pos += 1
            self.depth -= 1
            return group
        if tok == "-":
            self.nest()
            self.pos = pos + 1
            node = Neg(self.base())
            self.depth -= 1
            return node
        raise self.error(f"expected a value, found {self.found(tok)}", pos)


def _add_int(out, key, n):
    """Add the int n at `key` of a term dict: add_into's rules, on ints."""
    cur = out.get(key)
    if cur is None:
        out[key] = (n, 1)
    else:
        s = cur[0] + n
        if s:
            out[key] = (s, 1)
        else:
            del out[key]


def _factor(text, units):
    """(e, e * unit) of a factor 'name' or 'name^nat' of the context, or None."""
    name, caret, exponent = text.partition("^")
    unit = units.get(name)
    if unit is None:
        return None
    if not caret:
        return 1, unit
    if not exponent.isdigit():  # '^' on nothing, or 'x^2^3'
        return None
    try:
        e = int(exponent)
    except ValueError:  # past the digit limit
        return None
    return e, e * unit


def _canonical(text: str, context: VarContext):
    """The term dict of canonical text with int coefficients, or None.

    Accepts the language format_polynomial writes: terms joined by exactly
    " + " or " - ", the first perhaps behind '-', each term a nat or
    ``[nat '*'] factor ('*' factor)*`` with factor 'name' or 'name^nat'
    and every name in the context. It reads that text by str.split, term
    by term, with no tokens. Anything else (an unknown name, a group, any
    other whitespace, '/', '^' on a number, 'x^2^3', an empty term, a
    term with more '*' than the context has variables, a number past the
    digit limit, a degree at DEGREE_LIMIT) gives None and is left to the
    descent, so every error is still the descent's own.

    The leading '-' follows the grammar's precedence, unary minus tighter
    than '^': it negates a leading number, and on a leading variable it
    is (-v)^e, so the sign flips only when e is odd ("-x^2*y" is x^2*y).
    Should unary minus come to bind looser than '^' (ROADMAP item 6),
    this rule changes with the grammar.
    """
    if not text.isascii():  # so str.isdigit means 0-9 below
        return None
    parts = text.split(" ")
    if not len(parts) & 1:
        return None
    signs = [1]
    for op in parts[1::2]:
        if op == "+":
            signs.append(1)
        elif op == "-":
            signs.append(-1)
        else:
            return None
    units = context._units
    factors = {}  # factor text -> (e, e * unit), for the text at hand
    if parts[0][:1] == "-":
        parts[0] = parts[0][1:]
        head = parts[0].partition("*")[0]
        if head.isdigit():
            signs[0] = -1
        else:
            f = factors[head] = _factor(head, units)
            if f is None:
                return None
            signs[0] = -1 if f[0] & 1 else 1  # (-v)^e is v^e for even e
    limit = DEGREE_LIMIT << context._degree_shift
    # a canonical term is a number and one factor per variable at most, so
    # a longer one (say, all of a text written without spaces) is split
    # no further than that before it is declined
    most = len(units)
    out = {}
    for sign, term in zip(signs, parts[::2]):
        pieces = term.split("*", most)
        head = pieces[0]
        if head.isdigit():
            try:
                coefficient = int(head)
            except ValueError:  # past the digit limit
                return None
            del pieces[0]
            if sign < 0:
                coefficient = -coefficient
        else:
            coefficient = sign
        key = 0
        for piece in pieces:
            f = factors.get(piece)
            if f is None:
                f = factors[piece] = _factor(piece, units)
                if f is None:
                    return None
            key += f[1]
        # a field overflows into the next only once the degree field, on
        # top, reads at least DEGREE_LIMIT
        if key >= limit:
            return None
        if coefficient:
            _add_int(out, key, coefficient)
    return out


def parse(text: str) -> Node:
    """Parse expression text to an AST; ExprSyntaxError on bad input."""
    return _Parser(text).read()


def to_polynomial(node: Node, context: VarContext) -> Polynomial:
    """Evaluate an AST in the polynomial ring of `context`.

    A Sum is summed into one term dict and a Product is folded left to
    right; only nesting (bounded by the parser) recurses. Raises
    UnknownVariableError for identifiers outside the context.
    """
    if isinstance(node, Sum):
        out = {}
        for sign, n in node.terms:
            add_into(out, to_polynomial(n, context)._terms, sign)
        return Polynomial._make(context, out)
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
    """Parse expression text straight into a polynomial of `context`.

    Canonical text with int coefficients, the form every command prints,
    is read term by term by _canonical, with no tokens and no descent.
    Any other text is ``to_polynomial(parse(text), context)``: the whole
    text parses, so every syntax error is raised, before any term is
    evaluated or any power expanded.
    """
    out = _canonical(text, context)
    if out is not None:
        return Polynomial._make(context, out)
    return to_polynomial(parse(text), context)
