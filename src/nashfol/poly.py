"""Exact multivariate polynomials and rational functions over the rationals.

Coefficients are `fractions.Fraction` throughout; nothing in this module (or
the package) ever touches floating point.  A polynomial is a sparse map from
exponent vectors to nonzero coefficients, tagged with an ordered tuple of
variable names.  The canonical term order everywhere is graded lexicographic
(total degree first, then lexicographic on the exponent vector, earlier
variables weighing more), and printing/serialization lists terms in descending
graded-lex order, so equal polynomials always print identically.

Rational functions are reduced only by rational content and a common monomial
factor (plus a full gcd in the univariate case); in several variables two
equal fractions may therefore carry different representations, and equality is
decided by cross-multiplication.  Canonical-form equality for subspaces and
report payloads never relies on rational-function normal forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]


class PolySyntaxError(ValueError):
    """Malformed polynomial text; `offset` is the byte position of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnknownVariableError(ValueError):
    """An identifier in polynomial text is not among the declared variables."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown variable {name!r} (at byte {offset})")
        self.name = name
        self.offset = offset


class ArityMismatchError(ValueError):
    """Operands declare different variable tuples, or a point has wrong length."""


class ExactDivisionError(ArithmeticError):
    """Polynomial division was requested where the quotient is not polynomial."""


class InternalInvariantError(RuntimeError):
    """An identity the engine establishes for itself failed: a bug, not bad input.

    Raised explicitly rather than by ``assert`` so the check survives
    ``python -O``.
    """


# Largest exponent accepted after '^' in polynomial text; the corpus uses at
# most 4, and a bound keeps hostile input from expanding without limit.
MAX_EXPONENT = 64


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    """Sort key realizing graded lexicographic order (ascending)."""
    return (sum(exps), exps)


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class MultiPoly:
    """A polynomial in ``vars`` with Fraction coefficients.

    ``terms`` maps exponent tuples (one entry per variable, all >= 0) to
    nonzero coefficients.  Instances are treated as immutable; all arithmetic
    returns new objects.  Operations between polynomials require identical
    ``vars`` tuples; variable sets are never silently merged.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: dict[Exponents, Scalar]):
        vs = tuple(variables)
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            e = tuple(int(x) for x in exps)
            if len(e) != len(vs):
                raise ArityMismatchError(
                    f"exponent vector {e} has length {len(e)}, expected {len(vs)}"
                )
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            c = _as_fraction(coeff)
            if c:
                clean[e] = c
        self.vars = vs
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value: Scalar) -> "MultiPoly":
        return cls(variables, {(0,) * len(tuple(variables)): _as_fraction(value)})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        vs = tuple(variables)
        if name not in vs:
            raise UnknownVariableError(name, 0)
        exps = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {exps: Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order (the canonical listing)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def leading(self) -> tuple[Exponents, Fraction]:
        """Leading (graded-lex greatest) term of a nonzero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars!r}, {str(self)!r})"

    # -- arithmetic --------------------------------------------------------

    def _check_same_ring(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ArityMismatchError(
                f"variable mismatch: {self.vars} vs {other.vars}"
            )

    def _coerce(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            self._check_same_ring(other)
            return other
        return MultiPoly.constant(self.vars, other)

    def __add__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return MultiPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        other = self._coerce(other)
        terms: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return MultiPoly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = MultiPoly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and evaluation -------------------------------------------

    def eval(self, point: Sequence[Scalar]) -> Fraction:
        """Evaluate at a rational point (one value per variable, in order)."""
        if len(point) != len(self.vars):
            raise ArityMismatchError(
                f"point has {len(point)} coordinates, expected {len(self.vars)}"
            )
        vals = [_as_fraction(v) for v in point]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            acc = coeff
            for v, e in zip(vals, exps):
                if e:
                    acc *= v**e
            total += acc
        return total

    def diff(self, var: str) -> "MultiPoly":
        """Partial derivative with respect to the named variable."""
        if var not in self.vars:
            raise UnknownVariableError(var, 0)
        i = self.vars.index(var)
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            e = list(exps)
            e[i] -= 1
            terms[tuple(e)] = coeff * exps[i]
        return MultiPoly(self.vars, terms)

    def subst(
        self, variables: Sequence[str], images: Sequence["MultiPoly"]
    ) -> "MultiPoly":
        """Substitute each variable by a polynomial over a new variable tuple."""
        if len(images) != len(self.vars):
            raise ArityMismatchError(
                f"{len(images)} images supplied for {len(self.vars)} variables"
            )
        vs = tuple(variables)
        for img in images:
            if img.vars != vs:
                raise ArityMismatchError(
                    f"substitution image over {img.vars}, expected {vs}"
                )
        result = MultiPoly.zero(vs)
        # cache powers of each image since exponent vectors repeat them a lot
        powers: list[dict[int, MultiPoly]] = [
            {0: MultiPoly.constant(vs, 1)} for _ in images
        ]
        for exps, coeff in self.sorted_terms():
            term = MultiPoly.constant(vs, coeff)
            for i, e in enumerate(exps):
                if e not in powers[i]:
                    prev = max(k for k in powers[i] if k <= e)
                    acc = powers[i][prev]
                    for _ in range(e - prev):
                        acc = acc * images[i]
                    powers[i][e] = acc
                if e:
                    term = term * powers[i][e]
            result = result + term
        return result

    # -- content and divisibility -------------------------------------------

    def content(self) -> Fraction:
        """Signed rational content: primitive part has coprime integer
        coefficients and positive leading (graded-lex) coefficient."""
        if not self.terms:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, abs(c.numerator))
            den = den * c.denominator // math.gcd(den, c.denominator)
        c = Fraction(num, den)
        if self.leading()[1] < 0:
            c = -c
        return c

    def primitive(self) -> "MultiPoly":
        c = self.content()
        if c == 1:
            return self
        return MultiPoly(self.vars, {e: v / c for e, v in self.terms.items()})

    def monomial_content(self) -> Exponents:
        """Componentwise minimum exponent vector across all terms."""
        if not self.terms:
            return (0,) * len(self.vars)
        mins = None
        for exps in self.terms:
            mins = exps if mins is None else tuple(map(min, mins, exps))
        return mins

    def shift_down(self, exps: Exponents) -> "MultiPoly":
        """Divide by the monomial with the given exponents (must divide)."""
        terms = {}
        for e, c in self.terms.items():
            d = tuple(a - b for a, b in zip(e, exps))
            if any(x < 0 for x in d):
                raise ExactDivisionError(f"monomial {exps} does not divide {self}")
            terms[d] = c
        return MultiPoly(self.vars, terms)

    # -- printing -----------------------------------------------------------

    def _monomial_str(self, exps: Exponents) -> str:
        parts = []
        for v, e in zip(self.vars, exps):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for i, (exps, coeff) in enumerate(self.sorted_terms()):
            mono = self._monomial_str(exps)
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if i == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)


def exact_div(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact polynomial quotient p/q; raises ExactDivisionError otherwise.

    Repeatedly cancels the graded-lex leading term.  When the division is
    exact this terminates with remainder zero; the first leading term that q's
    leading monomial fails to divide proves inexactness.
    """
    p._check_same_ring(q)
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q_exps, q_coeff = q.leading()
    quotient: dict[Exponents, Fraction] = {}
    rem = p
    while rem.terms:
        r_exps, r_coeff = rem.leading()
        t = tuple(a - b for a, b in zip(r_exps, q_exps))
        if any(x < 0 for x in t):
            raise ExactDivisionError(f"({p}) is not divisible by ({q})")
        c = r_coeff / q_coeff
        quotient[t] = c
        rem = rem - MultiPoly(p.vars, {t: c}) * q
    return MultiPoly(p.vars, quotient)


def divides(q: MultiPoly, p: MultiPoly) -> bool:
    """True iff q divides p exactly (q nonzero)."""
    try:
        exact_div(p, q)
        return True
    except ExactDivisionError:
        return False


def poly_gcd_univariate(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Primitive gcd of two univariate polynomials (monic Euclid over Q)."""
    if len(a.vars) != 1 or a.vars != b.vars:
        raise ArityMismatchError("univariate gcd needs matching single variables")
    while not b.is_zero():
        # remainder of a by b over Q
        r = a
        b_exps, b_coeff = b.leading()
        while not r.is_zero() and r.leading()[0][0] >= b_exps[0]:
            r_exps, r_coeff = r.leading()
            shift = (r_exps[0] - b_exps[0],)
            r = r - MultiPoly(a.vars, {shift: r_coeff / b_coeff}) * b
        a, b = b, r
    return a.primitive()


class RatFunc:
    """A quotient of two MultiPolys over the same variables.

    Reduction on construction: rational content is pushed into the numerator
    (the denominator becomes integer-primitive with positive leading
    coefficient), a common monomial factor is cancelled, and in one variable a
    full gcd is cancelled.  Equality is decided by cross-multiplication, so
    unreduced multivariate representations still compare correctly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: Union[MultiPoly, None] = None):
        if den is None:
            den = MultiPoly.constant(num.vars, 1)
        num._check_same_ring(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = MultiPoly.constant(num.vars, 1)
        else:
            m_num = num.monomial_content()
            m_den = den.monomial_content()
            common = tuple(map(min, m_num, m_den))
            if any(common):
                num = num.shift_down(common)
                den = den.shift_down(common)
            if len(num.vars) == 1 and den.total_degree() > 0:
                g = poly_gcd_univariate(num, den)
                if g.total_degree() > 0:
                    num = exact_div(num, g)
                    den = exact_div(den, g)
        c = den.content()
        if c != 1:
            den = MultiPoly(den.vars, {e: v / c for e, v in den.terms.items()})
            num = MultiPoly(num.vars, {e: v / c for e, v in num.terms.items()})
        self.num = num
        self.den = den

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        if self.den.is_constant():
            return True
        return divides(self.den, self.num)

    def as_poly(self) -> MultiPoly:
        """The polynomial this fraction reduces to (raises if it does not)."""
        if self.den.is_constant():
            c = self.den.constant_value()
            return MultiPoly(
                self.num.vars, {e: v / c for e, v in self.num.terms.items()}
            )
        return exact_div(self.num, self.den)

    def _coerce(self, other: Union["RatFunc", MultiPoly, Scalar]) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, MultiPoly):
            return RatFunc(other)
        return RatFunc(MultiPoly.constant(self.vars, other))

    def __add__(self, other: Union["RatFunc", MultiPoly, Scalar]) -> "RatFunc":
        o = self._coerce(other)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: Union["RatFunc", MultiPoly, Scalar]) -> "RatFunc":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Union[MultiPoly, Scalar]) -> "RatFunc":
        return self._coerce(other) - self

    def __mul__(self, other: Union["RatFunc", MultiPoly, Scalar]) -> "RatFunc":
        o = self._coerce(other)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["RatFunc", MultiPoly, Scalar]) -> "RatFunc":
        o = self._coerce(other)
        if o.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other: Union[MultiPoly, Scalar]) -> "RatFunc":
        return self._coerce(other) / self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (MultiPoly, int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:  # pragma: no cover - not used as dict keys
        raise TypeError("RatFunc is unhashable (equality is cross-multiplicative)")

    def eval(self, point: Sequence[Scalar]) -> Fraction:
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError(f"denominator {self.den} vanishes at {point}")
        return self.num.eval(point) / d

    def __str__(self) -> str:
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({str(self)!r})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_KINDS = ("INT", "IDENT", "+", "-", "*", "^", "/", "(", ")", "END")


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("INT", text[i:j], i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("IDENT", text[i:j], i)
            i = j
            continue
        if ch in "+-*^/()":
            yield (ch, ch, i)
            i += 1
            continue
        raise PolySyntaxError(f"unexpected character {ch!r}", i)
    yield ("END", "", n)


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    expr     := ('-')? term (('+' | '-') term)*
    term     := ('-')? factor ('*' factor)*
    factor   := base ('^' uint)?        (uint at most MAX_EXPONENT)
    base     := rational | ident | '(' expr ')'
    rational := uint ('/' uint)?

    Whitespace is insignificant.  A leading '-' (on any term) is accepted as a
    superset of the strict grammar so that negative leading coefficients have
    a printable form.
    """

    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.vars = tuple(variables)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise PolySyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return self.advance()

    def parse(self) -> MultiPoly:
        p = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise PolySyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return p

    def expr(self) -> MultiPoly:
        p = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> MultiPoly:
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        p = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            p = p * self.factor()
        return -p if negate else p

    def factor(self) -> MultiPoly:
        p = self.base()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("INT")
            if int(tok[1]) > MAX_EXPONENT:
                raise PolySyntaxError(f"exponent above {MAX_EXPONENT}", tok[2])
            p = p ** int(tok[1])
        return p

    def base(self) -> MultiPoly:
        tok = self.peek()
        if tok[0] == "-":
            # signed numeric literal, e.g. the second factor of "x * -3"
            self.advance()
            if self.peek()[0] != "INT":
                raise PolySyntaxError("expected a number after '-'", self.peek()[2])
            return -self.base()
        if tok[0] == "INT":
            self.advance()
            value = Fraction(int(tok[1]))
            if self.peek()[0] == "/":
                self.advance()
                dtok = self.expect("INT")
                if int(dtok[1]) == 0:
                    raise PolySyntaxError("zero denominator", dtok[2])
                value = Fraction(int(tok[1]), int(dtok[1]))
            return MultiPoly.constant(self.vars, value)
        if tok[0] == "IDENT":
            self.advance()
            if tok[1] not in self.vars:
                raise UnknownVariableError(tok[1], tok[2])
            return MultiPoly.variable(self.vars, tok[1])
        if tok[0] == "(":
            self.advance()
            p = self.expr()
            self.expect(")")
            return p
        raise PolySyntaxError(f"expected a term, found {tok[1] or 'end of input'!r}", tok[2])


def parse_poly(text: str, variables: Sequence[str]) -> MultiPoly:
    """Parse polynomial text over the given variables.

    Raises PolySyntaxError (with a byte offset) on malformed input and
    UnknownVariableError for identifiers outside ``variables``.
    Printing the result with str() and re-parsing is a fixed point.
    """
    return _Parser(text, variables).parse()


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' with optional sign into a Fraction."""
    s = text.strip()
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------


def poly_to_doc(p: MultiPoly) -> dict:
    """Term-list JSON form, terms in descending graded-lex order."""
    return {
        "vars": list(p.vars),
        "terms": [
            {"coeff": str(c), "exps": list(e)} for e, c in p.sorted_terms()
        ],
    }


def poly_from_doc(doc: object, variables: Sequence[str] | None = None) -> MultiPoly:
    """Accept either grammar text (needs ``variables``) or the term-list form."""
    if isinstance(doc, str):
        if variables is None:
            raise ValueError("polynomial text requires a variable list")
        return parse_poly(doc, variables)
    if isinstance(doc, (int,)):
        if variables is None:
            raise ValueError("a bare constant requires a variable list")
        return MultiPoly.constant(variables, doc)
    if isinstance(doc, dict):
        vs = tuple(doc["vars"])
        if variables is not None and tuple(variables) != vs:
            raise ArityMismatchError(
                f"document variables {vs} do not match expected {tuple(variables)}"
            )
        terms: dict[Exponents, Fraction] = {}
        for item in doc["terms"]:
            exps = tuple(int(x) for x in item["exps"])
            coeff = parse_rational(str(item["coeff"]))
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return MultiPoly(vs, terms)
    raise ValueError(f"cannot read a polynomial from {type(doc).__name__}")
