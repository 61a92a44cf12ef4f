"""Exact-rational splitting analysis of hyperplane sections.

Two concrete families are analyzed.  For the complete-intersection model the
hyperplane section y = ax decomposes exactly at the roots of the splitting
polynomial p(a) = (1 - a^2/4) h(1, a); the tool returns p in primitive
integer form and locates its rational roots exactly.  For the quartic family
w^2 = A(x, y) + B(x, y) z^2 with deg A = 4, deg B = 2, the section y = tx
splits into a line pair exactly when A(1, t) = 0 (residual c = B(1, t), pair
w = +/- sqrt(c) xz) or B(1, t) = 0 (residual c = A(1, t), pair
w = +/- sqrt(c) x^2), plus the section x = 0 when A(0,1) = 0 or B(0,1) = 0.

Everything is exact arithmetic; no floating point anywhere.  Irrational
split values are reported through the irreducible factor they satisfy, using
a naive factorization in integers: `primitive_integer_form` turns p into a
tuple of primitive integer coefficients, and rational roots, then a search
for quadratic factors among the candidates whose values at t = 1 and t = -1
divide those of the polynomial, run on such tuples with exact integer
division.  That method certifies irreducibility up to degree 4; any
higher-degree part it cannot split is reported as unresolved rather than
claimed irreducible.  `line_census` factors A(1, t) and B(1, t) once and reads
squarefreeness and coprimality off those factorizations: a repeated factor,
a factor shared by A and B, or x dividing the forms is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import ParameterError

RationalLike = Fraction | int
# an integer polynomial as the factorizer holds it, t^0 first
IntPoly = tuple[int, ...]


def _fractions(values) -> list[Fraction]:
    """values, any iterable, as a list of Fractions; anything else is a ParameterError."""
    try:
        values = tuple(values)
        return [Fraction(c) for c in values]
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ParameterError(f"coefficients must be rational numbers, got {values!r}") from None


@dataclass(frozen=True)
class UnivariatePoly:
    """Polynomial in one variable; coeffs[i] multiplies t^i.  Construction takes
    any iterable, t^0 first, and stores Fractions with no trailing zeros."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = _fractions(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: RationalLike) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: UnivariatePoly) -> UnivariatePoly:
        if self.is_zero or other.is_zero:
            return poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return poly(out)


def primitive_integer_form(p: UnivariatePoly) -> tuple[IntPoly, Fraction]:
    """Scale p to primitive integer coefficients with positive leading term.

    Returns (q, unit) with p = unit * q exactly, q as ints, t^0 first.  This
    is where the factorizer leaves Fractions: it works on such tuples only.
    """
    if p.is_zero:
        raise ParameterError("zero polynomial has no primitive form")
    denom = lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (denom // c.denominator) for c in p.coeffs]
    content = gcd(*ints)
    if ints[-1] < 0:
        content = -content
    return tuple(v // content for v in ints), Fraction(content, denom)


def poly_text(p: UnivariatePoly, var: str = "t") -> str:
    """Human-readable rendering, highest power first."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            stem = var if i == 1 else f"{var}^{i}"
            body = stem if mag == 1 else f"{mag}*{stem}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form in (x, y) from any nonempty iterable; coeffs[i] multiplies x^(degree-i) y^i."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = _fractions(self.coeffs)
        if not coeffs:
            raise ParameterError("a binary form needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def dehomogenized(self) -> UnivariatePoly:
        """The polynomial F(1, t)."""
        return poly(self.coeffs)

    def at_infinity(self) -> Fraction:
        """The value F(0, 1), i.e. the y^degree coefficient."""
        return self.coeffs[-1]


poly = UnivariatePoly
binary_form = BinaryForm


def _divisors(n: int) -> list[int]:
    """The positive divisors of n, ascending (none for n = 0), from trial
    division that stops at the square root of the cofactor left: cheap for a
    smooth n, but a prime or semiprime n still costs about sqrt(n) steps."""
    n = abs(n)
    divs = [1] if n else []
    p = 2
    while p * p <= n:
        if n % p == 0:
            base = len(divs)
            while n % p == 0:
                n //= p
                divs += [d * p for d in divs[-base:]]
        p += 1 + p % 2  # 2, then the odd numbers
    if n > 1:
        divs += [d * n for d in divs]
    return sorted(divs)


def _signed_divisors(n: int) -> list[int]:
    return [s * d for d in _divisors(n) for s in (1, -1)]


def _divides(d: int, n: int) -> bool:
    return d != 0 and n % d == 0


def _value(q: IntPoly, num: int, den: int = 1) -> int:
    """den^d q(num/den) for q of degree d, an integer, by Horner's rule."""
    acc, scale = 0, 1
    for c in reversed(q):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _exact_quotient(q: IntPoly, f: IntPoly) -> IntPoly | None:
    """q / f for a primitive f, or None when f does not divide q: by Gauss's
    lemma such a quotient is integral, so a fractional digit ends the division."""
    rem, deg = list(q), len(f) - 1
    quo = [0] * (len(q) - deg)
    for shift in range(len(quo) - 1, -1, -1):
        digit, frac = divmod(rem[shift + deg], f[-1])
        if frac:
            return None
        quo[shift] = digit
        for i, c in enumerate(f):
            rem[shift + i] -= digit * c
    return None if any(rem[:deg]) else tuple(quo)


def _divide_out(q: IntPoly, f: IntPoly) -> tuple[IntPoly, int]:
    """Divide the primitive f out of q while the division is exact: (quotient, multiplicity)."""
    mult = 0
    while (quo := _exact_quotient(q, f)) is not None:
        q, mult = quo, mult + 1
    return q, mult


def _linear_factors(q: IntPoly) -> tuple[list[tuple[IntPoly, int]], IntPoly]:
    """The linear factors (-num, den) of a primitive integer q, one per
    rational root num/den, with multiplicities, and q with them divided out.

    Candidates come from the rational-root theorem; a candidate num/den is a
    root exactly when den^d q(num/den), an integer, is zero.  Multiplicities
    are read off by repeated exact division, whose final quotient is the
    returned cofactor.
    """
    low = next(i for i, c in enumerate(q) if c)
    found = [((0, 1), low)] if low else []
    q = q[low:]
    if len(q) < 2:
        return found, q
    dens = _divisors(q[-1])
    for num in _divisors(q[0]):
        for den in dens:
            if gcd(num, den) != 1:
                continue
            for top in (num, -num):
                if _value(q, top, den) == 0:
                    q, mult = _divide_out(q, (-top, den))
                    found.append(((-top, den), mult))
    return found, q


def rational_roots(p: UnivariatePoly) -> dict[Fraction, int]:
    """All rational roots with multiplicities, found exactly."""
    if p.is_zero:
        raise ParameterError("the zero polynomial has every root")
    linear, _ = _linear_factors(primitive_integer_form(p)[0])
    return {Fraction(-low, lead): mult for (low, lead), mult in linear}


@dataclass(frozen=True)
class Factorization:
    """p = unit * product(factor^multiplicity) * (unresolved or 1).

    Factors are primitive integer polynomials with positive leading term,
    certified irreducible over the rationals.  `unresolved`, when present,
    is a degree >= 5 part in which the bounded method found no factor; its
    irreducibility is not asserted.
    """

    unit: Fraction
    factors: tuple[tuple[UnivariatePoly, int], ...]
    unresolved: UnivariatePoly | None

    @property
    def complete(self) -> bool:
        return self.unresolved is None


def _quadratic_factors(q: IntPoly) -> tuple[list[tuple[IntPoly, int]], IntPoly]:
    """Divide out every rational quadratic factor of a primitive integer q.

    q must have no rational roots.  The search is exhaustive.  A rational
    quadratic factor of q can be taken primitive, g = l t^2 + b t + c with
    l > 0, and by Gauss's lemma its cofactor then has integer coefficients.
    So l divides the leading coefficient of q, c divides its constant term,
    and g(k) divides q(k) at every integer k, where q(k) is nonzero because
    q has no rational roots.  At k = 1 and k = -1 this gives
    g(1) = l + b + c = d1 and g(-1) = l - b + c = d2 for divisors d1 of q(1)
    and d2 of q(-1), so b = (d1 - d2) / 2 wherever d1 + d2 = 2 (l + c).  A
    candidate must also pass g(2) | q(2) and g(-2) | q(-2); one with
    g(k) = 0 has the root k, cannot divide q, and is skipped.  Exact
    division confirms each factor found.
    """
    found: list[tuple[IntPoly, int]] = []
    while len(q) >= 5:
        at_two, at_minus_two = _value(q, 2), _value(q, -2)
        # mids[l + c]: each b with g(1) = l + b + c dividing q(1), g(-1) = l - b + c dividing q(-1)
        mids: dict[int, list[int]] = {}
        d2s = _signed_divisors(_value(q, -1))
        for d1 in _signed_divisors(_value(q, 1)):
            for d2 in d2s:
                if (d1 + d2) % 2 == 0:
                    mids.setdefault((d1 + d2) // 2, []).append((d1 - d2) // 2)
        consts = _signed_divisors(q[0])
        candidates = (
            (c, b, l)
            for l in _divisors(q[-1])
            for c in consts
            for b in mids.get(l + c, ())
            if gcd(l, b, c) == 1
            and _divides(4 * l + 2 * b + c, at_two) and _divides(4 * l - 2 * b + c, at_minus_two)
        )
        for cand in candidates:
            quo, mult = _divide_out(q, cand)
            if mult:
                found.append((cand, mult))
                q = quo
                break
        else:
            break
    return found, q


def factor_over_rationals(p: UnivariatePoly) -> Factorization:
    """Naive exact factorization: rational roots, then quadratic factors.

    Certifies irreducibility of anything left of degree <= 4 (degree 1 would
    be a root, degree 2 or 3 without roots is irreducible, degree 4 without
    roots or rational quadratic factors is irreducible).
    """
    if p.is_zero:
        raise ParameterError("cannot factor the zero polynomial")
    q, unit = primitive_integer_form(p)
    factors, q = _linear_factors(q)
    quads, q = _quadratic_factors(q)
    factors += quads
    # the factors are primitive with positive leading terms, and so then is
    # the cofactor q: a constant q is 1
    unresolved = None
    if len(q) >= 6:
        unresolved = poly(q)
    elif len(q) >= 2:
        factors.append((q, 1))
    factors.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return Factorization(unit=unit, factors=tuple((poly(f), k) for f, k in factors), unresolved=unresolved)


def ci_split_polynomial(h: BinaryForm) -> UnivariatePoly:
    """Splitting polynomial p(a) = (1 - a^2/4) h(1, a) in primitive integer form.

    Only the reduced model with f = g = 0 is analyzed; h must be a nonzero
    form of even degree 2m with m >= 2.  Roots of p are the parameter values
    whose hyperplane section decomposes; a = +/-2 are always roots.
    """
    if h.is_zero:
        raise ParameterError("h must be nonzero")
    if h.degree % 2 != 0 or h.degree < 4:
        raise ParameterError(f"h must have even degree 2m with m >= 2, got degree {h.degree}")
    p = h.dehomogenized() * poly((1, 0, Fraction(-1, 4)))
    return poly(primitive_integer_form(p)[0])


def is_rational_square(c: Fraction) -> bool:
    """Exact perfect-square test on numerator and denominator."""
    if c < 0:
        return False
    num, den = c.numerator, c.denominator
    return isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


@dataclass(frozen=True)
class SplitValue:
    """One group of split values of the quartic family.

    A rational split value carries its root, the residual constant c, and
    whether c is a rational square (then the two lines are separately
    rational).  Irrational split values are grouped by the irreducible
    factor they satisfy; `count` is that factor's degree.
    """

    source: str
    root: Fraction | None
    factor: str
    count: int
    residual: Fraction | None
    rational_pair: bool | None


def _rational_split(source: str, root: Fraction | None, factor: str, residual: Fraction) -> SplitValue:
    """The split value at a rational root (None at infinity) with its residual."""
    return SplitValue(source, root, factor, 1, residual, is_rational_square(residual))


@dataclass(frozen=True)
class LineCensus:
    total_lines: int
    split_values: tuple[SplitValue, ...]
    includes_infinity_section: bool


def line_census(a_form: BinaryForm, b_form: BinaryForm) -> LineCensus:
    """Census of the lines on w^2 = A(x,y) + B(x,y) z^2.

    A has degree 4 and B degree 2, both squarefree and coprime.  Each split
    value contributes a pair of lines, so the total is always 12: the six
    split values are the four roots of A(1,t), the two roots of B(1,t), and
    the section at infinity exactly when one of the two top coefficients
    vanishes (which removes one finite root).
    """
    if a_form.degree != 4:
        raise ParameterError(f"A must have degree 4, got {a_form.degree}")
    if b_form.degree != 2:
        raise ParameterError(f"B must have degree 2, got {b_form.degree}")
    if a_form.is_zero or b_form.is_zero:
        raise ParameterError("A and B must be nonzero")
    a_poly, b_poly = a_form.dehomogenized(), b_form.dehomogenized()
    # degrees <= 4, so both factorizations are complete; their factors are
    # primitive with positive leading term, so a shared factor is an equal one
    a_split, b_split = factor_over_rationals(a_poly), factor_over_rationals(b_poly)
    for name, form, own, split in (("A", a_form, a_poly, a_split), ("B", b_form, b_poly, b_split)):
        # x^2 divides the form exactly when F(1, t) lost two or more degrees
        if form.degree - own.degree >= 2 or any(mult > 1 for _, mult in split.factors):
            raise ParameterError(f"{name} must be squarefree as a binary form")
    x_divides_both = a_poly.degree < a_form.degree and b_poly.degree < b_form.degree
    if x_divides_both or {f for f, _ in a_split.factors} & {f for f, _ in b_split.factors}:
        raise ParameterError("A and B must be coprime as binary forms")

    entries: list[SplitValue] = []
    for source, split, other in (("A", a_split, b_poly), ("B", b_split, a_poly)):
        linear = [(Fraction(-f.coeffs[0], f.coeffs[1]), f) for f, _ in split.factors if f.degree == 1]
        entries += [_rational_split(source, root, poly_text(f), other(root))
                    for root, f in sorted(linear, key=lambda rf: rf[0])]
        entries += [SplitValue(source, None, poly_text(f), f.degree, None, None)
                    for f, _ in split.factors if f.degree > 1]
    a_top, b_top = a_form.at_infinity(), b_form.at_infinity()
    includes_infinity = a_top == 0 or b_top == 0
    if includes_infinity:
        entries.append(_rational_split("infinity", None, "infinity", b_top if a_top == 0 else a_top))
    total = 2 * sum(e.count for e in entries)
    return LineCensus(
        total_lines=total,
        split_values=tuple(entries),
        includes_infinity_section=includes_infinity,
    )
