"""Exact multivariate polynomials and rational functions over the rationals.

A coefficient is an `int` when it is an integer and a `fractions.Fraction`
otherwise; every coefficient division goes through `_div`, or divides exact
integers in `integer_row`, the one content routine, so nothing in the package
ever touches floating point.  `3` and `Fraction(3)` print, compare and hash
alike, so the representation never shows in output.

A polynomial is a sparse map from exponent vectors to nonzero coefficients,
tagged with an ordered tuple of variable names.  The canonical term order
everywhere is graded lexicographic (total degree first, then lexicographic on
the exponent vector, earlier variables weighing more), and printing/
serialization lists terms in descending graded-lex order, so equal polynomials
always print identically.

A polynomial is never mutated, so an operation with a zero operand returns an
operand after the ring check (`check_ring`): a sum returns the other one and a
product the zero.

Rational functions are kept in lowest terms: numerator and denominator are
divided by their gcd (`poly_gcd`, exact in every arity), and both by the
denominator's content, so equal fractions have one representation and
equality is structural.  A rational function is constructed, compared and
printed, and nothing more: arithmetic is done on numerators and denominators
as polynomials.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add, sub
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


# Largest exponent in polynomial text ('^') and term-list documents; the corpus
# uses at most 4, and a bound keeps hostile input from expanding without limit.
MAX_EXPONENT = 64

# Largest term count that a '*' or '^' in polynomial text may be asked for,
# bounded before expanding: the exponent cap alone still lets a short power
# of a long sum ask for billions of terms.
MAX_TERMS = 10_000


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    """Sort key realizing graded lexicographic order (ascending)."""
    return (sum(exps), exps)


def _coeff(value: Scalar) -> Scalar:
    """A scalar in coefficient form: an int when it is an integer (a bool
    becomes 0 or 1), otherwise a Fraction."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def _div(a: Scalar, b: Scalar) -> Scalar:
    """The coefficient a / b: an int when the quotient is an integer, otherwise
    a Fraction, and never a float, even when both are ints."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coeff(Fraction(a, b))


def _result(variables: tuple[str, ...], terms: dict[Exponents, Scalar]) -> "MultiPoly":
    """Wrap the terms an arithmetic loop built from validated operands.

    The loops that call this keep exponent vectors of the right length and
    never negative, and drop every zero coefficient, so only the coefficient
    form is restored here: a sum or product of Fractions may be an integer.
    The public constructor's checks are skipped, not weakened.
    """
    for e, c in terms.items():
        if c.__class__ is Fraction and c.denominator == 1:
            terms[e] = c.numerator
    p = object.__new__(MultiPoly)
    p.vars = variables
    p.terms = terms
    return p


def common_denominator(values: Iterable[Scalar]) -> int:
    """The lcm of the denominators of rationals, 1 for none: the least
    positive integer whose multiples of them are all integers."""
    return math.lcm(*(c.denominator for c in values))


def integer_row(values: Iterable[Scalar]) -> list[int]:
    """The primitive integer multiple of a rational vector, the one content
    routine: denominators cleared by their lcm, then divided by the gcd.
    The sign is kept, and a zero (or empty) vector stays as it is."""
    values = list(values)
    scale = common_denominator(values)
    ints = [c.numerator * (scale // c.denominator) for c in values]
    g = math.gcd(*ints) or 1
    return [c // g for c in ints]


def integer_polys(polys: Sequence["MultiPoly"]) -> list["MultiPoly"]:
    """The polys times the one positive rational that leaves all their
    coefficients together coprime integers (`integer_row`).  A nonzero
    scaling keeps a row's kernel and a vector's span."""
    ints = iter(integer_row([c for p in polys for c in p.terms.values()]))
    return [_result(p.vars, {e: next(ints) for e in p.terms}) for p in polys]


def primitive_part(polys: Sequence["MultiPoly"]) -> list["MultiPoly"]:
    """A nonzero vector divided by the gcd of its entries (`poly_gcd`), then
    given coprime integer coefficients (`integer_polys`)."""
    g = MultiPoly.zero(polys[0].vars)
    for p in polys:
        if p:
            g = poly_gcd(g, p)
    if not g.is_constant():
        polys = exact_quotients(polys, g)
    return integer_polys(polys)


def check_ring(variables: tuple[str, ...], polys: Iterable["MultiPoly"]) -> None:
    """The ring check: ArityMismatchError unless every poly is over ``variables``."""
    for p in polys:
        if p.vars != variables:
            raise ArityMismatchError(f"variable mismatch: {variables} vs {p.vars}")


def _mul_terms(
    left: dict[Exponents, Scalar], right: dict[Exponents, Scalar]
) -> dict[Exponents, Scalar]:
    """The term dict of a product, zero coefficients dropped; the coefficient
    form is left for `_result` to restore."""
    terms: dict[Exponents, Scalar] = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(map(add, e1, e2))
            s = terms.get(e, 0) + c1 * c2
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return terms


class MultiPoly:
    """A polynomial in ``vars`` with rational coefficients.

    ``terms`` maps exponent tuples (one entry per variable, all >= 0) to
    nonzero coefficients, each an int when it is an integer and a Fraction
    otherwise.  The constructor validates and normalizes what it is given;
    arithmetic results are built by `_result`, which skips that validation.
    Instances are treated as immutable: arithmetic returns new objects, but
    for a zero operand, where it returns an operand (x + 0 is x, x * 0 the
    zero).  Operations between polynomials require identical ``vars`` tuples,
    zero ones too; variable sets are never silently merged.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: dict[Exponents, Scalar]):
        vs = tuple(variables)
        clean: dict[Exponents, Scalar] = {}
        for exps, coeff in terms.items():
            e = tuple(int(x) for x in exps)
            if len(e) != len(vs):
                raise ArityMismatchError(
                    f"exponent vector {e} has length {len(e)}, expected {len(vs)}"
                )
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            c = _coeff(coeff)
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
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        vs = tuple(variables)
        if name not in vs:
            raise UnknownVariableError(name, 0)
        exps = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {exps: 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def sorted_terms(self) -> list[tuple[Exponents, Scalar]]:
        """Terms in descending graded-lex order (the canonical listing)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def leading(self) -> tuple[Exponents, Scalar]:
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

    def _coerce(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:  # check_ring, inlined on the hot path
                raise ArityMismatchError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        return MultiPoly.constant(self.vars, other)

    def __add__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return other if not self.terms else self
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return _result(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _result(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        other = self._coerce(other)
        return self if not other.terms else self + (-other)

    def __mul__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return self if not self.terms else other
        return _result(self.vars, _mul_terms(self.terms, other.terms))

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
        vals = [_coeff(v) for v in point]
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
        terms: dict[Exponents, Scalar] = {}
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
        """Substitute each variable by a polynomial over a new variable tuple;
        a term with a positive power of a zero image is dropped unexpanded."""
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
        # one power table per call, as term dicts, since exponent vectors
        # repeat powers a lot; the first power is the image itself, with no
        # product; terms are summed into one dict and wrapped once
        unit = (0,) * len(vs)
        powers = [{1: img.terms} for img in images]
        result: dict[Exponents, Scalar] = {}
        for exps, coeff in self.terms.items():
            term = {unit: coeff}
            for i, e in enumerate(exps):
                if not e:
                    continue
                table = powers[i]
                if not table[1]:  # a positive power of a zero image
                    term = {}
                    break
                if e not in table:
                    prev = max(k for k in table if k < e)
                    acc = table[prev]
                    for _ in range(e - prev):
                        acc = _mul_terms(acc, table[1])
                    table[e] = acc
                term = _mul_terms(term, table[e])
            for e, c in term.items():
                s = result.get(e, 0) + c
                if s:
                    result[e] = s
                else:
                    result.pop(e, None)
        return _result(vs, result)

    # -- content and divisibility -------------------------------------------

    def primitive(self) -> "MultiPoly":
        """The primitive part: coprime integer coefficients (`integer_row`)
        and a positive leading (graded-lex) coefficient."""
        ints = integer_row(self.terms.values())
        if self.terms and self.leading()[1] < 0:
            ints = [-c for c in ints]
        return _result(self.vars, dict(zip(self.terms, ints)))

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
            d = tuple(map(sub, e, exps))
            if min(d, default=0) < 0:
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


def _divmod(p: MultiPoly, q: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Quotient and remainder of p by q, the division loop of every exact
    quotient and divisibility test.

    Cancels the graded-lex leading term while q's leading monomial divides it
    and stops at the first one it does not divide.  The remainder is zero
    exactly when q divides p (while it is a multiple of q, its leading term
    is divisible), and in one variable it is the Euclidean remainder.
    """
    check_ring(p.vars, (q,))
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q_exps, q_coeff = q.leading()
    quotient: dict[Exponents, Scalar] = {}
    rem = dict(p.terms)
    while rem:
        r_exps = max(rem, key=grlex_key)
        t = tuple(map(sub, r_exps, q_exps))
        if min(t, default=0) < 0:
            break
        c = _div(rem[r_exps], q_coeff)
        quotient[t] = c
        for e, v in q.terms.items():
            e = tuple(map(add, t, e))
            s = rem.get(e, 0) - c * v
            if s:
                rem[e] = s
            else:
                del rem[e]
    return _result(p.vars, quotient), _result(p.vars, rem)


def exact_div(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact polynomial quotient p/q; raises ExactDivisionError otherwise."""
    quotient, rem = _divmod(p, q)
    if rem:
        raise ExactDivisionError(f"({p}) is not divisible by ({q})")
    return quotient


def divides(q: MultiPoly, p: MultiPoly) -> bool:
    """True iff q divides p exactly (q nonzero)."""
    return not _divmod(p, q)[1]


def exact_quotients(polys: Iterable[MultiPoly], q: MultiPoly) -> list[MultiPoly] | None:
    """Every p/q, or None when q fails to divide one of them; each p is
    divided once."""
    out = []
    for p in polys:
        quotient, rem = _divmod(p, q)
        if rem:
            return None
        out.append(quotient)
    return out


def _primitive_prs(f: dict, g: dict, primitive) -> dict:
    """The last nonzero remainder of the primitive polynomial remainder
    sequence of f and g (W. S. Brown, J. ACM 18, 1971).

    f and g map degrees to nonzero coefficients, ints or polynomials.  Each
    pseudo-remainder is the remainder of lc(g)-multiples of f, and
    ``primitive`` divides it by its content.
    """
    while g:
        dg = max(g)
        lg, r = g[dg], dict(f)
        while r and (dr := max(r)) >= dg:
            lr = r[dr]
            r = {d: lg * c for d, c in r.items()}
            for d, c in g.items():
                k = d + dr - dg
                s = r[k] - lr * c if k in r else -(lr * c)
                if s:
                    r[k] = s
                else:
                    del r[k]
        f, g = g, primitive(r) if r else {}
    return f


# Evaluation points the heuristic gcd tries before the exact fallback.
GCDHEU_TRIES = 6


def _heuristic_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly | None:
    """GCDHEU (Char, Geddes and Gonnet, J. Symb. Comput. 7, 1989): the gcd
    of two primitive integer polynomials in two or more variables, or None
    when none of GCDHEU_TRIES evaluation points gives it.

    The last variable is set to an integer xi > 2N + 2, N the smaller of
    the max norms |a| and |b|.  The gcd gamma of the two images over Z[the
    others] is `poly_gcd` times their integer contents' gcd, and h is
    rebuilt from gamma's symmetric xi-adic digits, so h(xi) = gamma and h's
    content c, which divides every digit, is at most xi / 2.  pp(h) is
    accepted when it divides a and b.  Then the true gcd is pp(h) * q with
    q(xi) dividing c, and q is a unit: the coefficients, in the other
    variables, of whichever of a and b has norm N are polynomials in the
    last variable with roots of modulus at most N + 1, so a nonconstant q
    would have a leading coefficient vanishing at xi, or |q(xi)| >=
    xi - N - 1 > xi / 2.
    """
    inner = a.vars[:-1]
    norm = min(max(map(abs, a.terms.values())), max(map(abs, b.terms.values())))
    # + 29, not + 3: on small inputs a small xi makes the cofactors' values
    # share integer factors, and h's digits overflow, more often
    xi = 2 * norm + 29
    for _ in range(GCDHEU_TRIES):
        images = []
        for p in (a, b):
            image: dict[Exponents, int] = {}
            for e, c in p.terms.items():
                image[e[:-1]] = image.get(e[:-1], 0) + c * xi ** e[-1]
            images.append(_result(inner, {e: c for e, c in image.items() if c}))
        contents = [math.gcd(*p.terms.values()) for p in images]
        gamma = poly_gcd(*images) * math.gcd(*contents)
        digits: dict[Exponents, int] = {}
        power, rest = 0, gamma.terms
        while rest:
            carry = {}
            for e, c in rest.items():
                d = c % xi
                if d > xi // 2:
                    d -= xi
                if d:
                    digits[e + (power,)] = d
                if q := (c - d) // xi:
                    carry[e] = q
            power, rest = power + 1, carry
        h = _result(a.vars, digits).primitive()
        if divides(h, a) and divides(h, b):
            return h
        xi = xi * 73794 // 27011  # about 1 + sqrt(3) times larger
    return None


def _recursive_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The primitive gcd of two nonzero polynomials in two or more variables
    by the primitive PRS over Z[others][last variable], each content a
    `poly_gcd` over Z[others]: exact, and the fallback of `_heuristic_gcd`,
    since its pseudo-remainders can swell."""
    inner = a.vars[:-1]

    def split(p: MultiPoly) -> dict:
        parts: dict[int, dict[Exponents, Scalar]] = {}
        for e, c in p.terms.items():
            parts.setdefault(e[-1], {})[e[:-1]] = c
        return {d: _result(inner, t) for d, t in parts.items()}

    def coefficient_gcd(f: dict) -> MultiPoly:
        g = MultiPoly.zero(inner)
        for c in f.values():
            g = poly_gcd(g, c)
        return g

    def primitive(f: dict) -> dict:
        return dict(zip(f, exact_quotients(f.values(), coefficient_gcd(f))))

    f, g = split(a), split(b)
    common = poly_gcd(coefficient_gcd(f), coefficient_gcd(g))
    last = _primitive_prs(primitive(f), primitive(g), primitive)
    terms = {e + (d,): v for d, c in last.items() for e, v in (c * common).terms.items()}
    return _result(a.vars, terms).primitive()


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The gcd of two polynomials, primitive: coprime integer coefficients
    and a positive leading coefficient.  It is zero only for two zeros.

    A monomial's gcd with any polynomial is their common monomial factor.
    Otherwise one variable takes the primitive PRS over Z, and several take
    the heuristic gcd over Z, then the recursive PRS if the heuristic finds
    nothing.
    """
    check_ring(a.vars, (b,))
    if not a or not b:
        return (a or b).primitive()
    for p, q in ((a, b), (b, a)):
        if len(p.terms) == 1:
            (e,) = p.terms
            return _result(a.vars, {tuple(map(min, e, q.monomial_content())): 1})
    a, b = a.primitive(), b.primitive()
    if len(a.vars) == 1:
        f, g = ({e: c for (e,), c in p.terms.items()} for p in (a, b))
        last = _primitive_prs(f, g, lambda r: dict(zip(r, integer_row(r.values()))))
        return _result(a.vars, {(e,): c for e, c in last.items()}).primitive()
    h = _heuristic_gcd(a, b)
    return h if h is not None else _recursive_gcd(a, b)


class RatFunc:
    """A quotient of two MultiPolys over the same variables, in lowest terms.

    Construction cancels the gcd of numerator and denominator and pushes the
    rational content into the numerator, so the denominator is integer-
    primitive with positive leading coefficient (1 for a polynomial).  Each
    fraction then has one representation, and equality is structural.  A
    RatFunc is a value that is constructed, compared and printed; it has no
    arithmetic, so code that needs some works on ``num`` and ``den``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: Union[MultiPoly, None] = None):
        if den is None:
            den = MultiPoly.constant(num.vars, 1)
        check_ring(num.vars, (den,))
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = MultiPoly.constant(num.vars, 1)
        elif not den.is_constant():
            g = poly_gcd(num, den)
            if not g.is_constant():
                num, den = exact_div(num, g), exact_div(den, g)
        primitive = den.primitive()
        e, c = next(iter(den.terms.items()))
        if primitive.terms[e] != c:
            num, den = num * Fraction(primitive.terms[e], c), primitive
        self.num = num
        self.den = den

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> MultiPoly:
        """The polynomial this fraction is (raises if it is not one).  A
        constant denominator is 1: the constructor divides out its content."""
        if not self.den.is_constant():
            raise ExactDivisionError(f"{self} is not a polynomial")
        return self.num

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __str__(self) -> str:
        if self.den.is_constant():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({str(self)!r})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_DIGITS = frozenset("0123456789")  # str.isdigit also takes '²' and '٣'
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")  # \d also takes '٣'
_TOKEN_KINDS = ("INT", "IDENT", "+", "-", "*", "^", "/", "(", ")", "END")


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
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
    a printable form.  A '^' directly after a 'p/q' literal is refused: the
    usual reading of "3/4^2" is 3/16, this grammar's would be 9/16, so the
    power of a fraction is written "(3/4)^2".  A '*' or '^' whose result may
    exceed MAX_TERMS terms is refused before it is expanded.
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

    @staticmethod
    def check_terms(bound: int, op: tuple[str, str, int]) -> None:
        if bound > MAX_TERMS:
            raise PolySyntaxError(f"'{op[1]}' may give more than {MAX_TERMS} terms", op[2])

    def term(self) -> MultiPoly:
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        p = self.factor()
        while self.peek()[0] == "*":
            op = self.advance()
            q = self.factor()
            self.check_terms(len(p.terms) * len(q.terms), op)
            p = p * q
        return -p if negate else p

    def factor(self) -> MultiPoly:
        p = self.base()
        if self.peek()[0] == "^":
            op = self.advance()
            tok = self.expect("INT")
            e = int(tok[1])
            if e > MAX_EXPONENT:
                raise PolySyntaxError(f"exponent above {MAX_EXPONENT}", tok[2])
            # t terms to the power e give at most the C(t+e-1, e) monomials of degree e in them
            t = len(p.terms)
            self.check_terms(math.comb(t + e - 1, e) if t else 1, op)
            p = p**e
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
                if self.peek()[0] == "^":
                    raise PolySyntaxError("'^' after a fraction; write (p/q)^e", self.peek()[2])
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
    """Parse -?p or -?p/q (ASCII digits, q nonzero) into a Fraction, refusing
    what Fraction() also reads: '1_000', '0.5', '٣', and '1e9' expanded in full."""
    s = text.strip()
    if not _RATIONAL.fullmatch(s):
        raise ValueError(f"malformed rational {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


def point_text(point: Sequence[Scalar]) -> str:
    """A rational point as reports print it: (0, 1/2)."""
    return f"({', '.join(str(c) for c in point)})"
