"""Exact polynomial analysis: splitting polynomials, roots, line censuses."""

import random
from fractions import Fraction
from math import gcd

import pytest

from dpforms import (
    ParameterError,
    UnivariatePoly,
    binary_form,
    ci_split_polynomial,
    factor_over_rationals,
    is_rational_square,
    line_census,
    poly,
    poly_text,
    rational_roots,
)
from dpforms.sections import _divisors, primitive_integer_form


def test_poly_basics():
    p = poly([1, 0, -1])
    assert p.degree == 2
    assert p(2) == -3
    assert p(Fraction(1, 2)) == Fraction(3, 4)
    assert poly_text(p) == "-t^2 + 1"
    product = p * poly([0, 1])
    assert product.coeffs == (0, 1, 0, -1)
    assert poly([0]).degree == -1
    assert poly_text(poly(())) == "0"
    assert (poly([1, 1]) * poly(())).is_zero
    with pytest.raises(ParameterError):
        primitive_integer_form(poly(()))


def test_poly_normal_form_on_construction():
    # a directly built polynomial is normalized as poly() builds it
    direct = UnivariatePoly((1, 0))
    assert direct == poly([1]) and direct.degree == 0
    assert all(type(c) is Fraction for c in direct.coeffs)
    assert UnivariatePoly((0, 0)) == poly(()) and UnivariatePoly((0,)).is_zero
    assert UnivariatePoly(("1/2", 0.5)).coeffs == (Fraction(1, 2), Fraction(1, 2))


def test_binary_form_basics():
    h = binary_form([1, 0, -4])
    assert h.degree == 2
    assert h.dehomogenized().coeffs == (1, 0, -4)
    assert h.at_infinity() == -4
    with pytest.raises(ParameterError):
        binary_form([])


def test_constructors_take_any_iterable():
    assert poly(x for x in ()) == poly(()) and poly(x for x in ()).is_zero
    assert poly(iter([1, 0, -1])) == poly([1, 0, -1])
    assert binary_form(c for c in (1, 0, -4)) == binary_form([1, 0, -4])
    # the emptiness test reads the converted coefficients, so an iterator cannot slip past it
    for empty in (iter(()), (c for c in ())):
        with pytest.raises(ParameterError, match="needs at least one coefficient"):
            binary_form(empty)
    for build in (poly, binary_form):
        with pytest.raises(ParameterError, match="^coefficients must be rational numbers, got 5$"):
            build(5)


def test_unreadable_coefficients_are_parameter_errors():
    # each escaped Fraction() as a TypeError, ValueError, OverflowError or ZeroDivisionError
    for build, values in ((poly, [None]), (poly, ["x"]), (poly, [float("nan")]),
                          (binary_form, [float("inf"), 1]), (binary_form, ["1/0", 1])):
        with pytest.raises(ParameterError, match=r"^coefficients must be rational numbers, got "):
            build(values)


def test_rational_roots():
    assert rational_roots(poly([-4, 0, 1])) == {Fraction(2): 1, Fraction(-2): 1}
    assert rational_roots(poly([1, 0, 1])) == {}
    assert rational_roots(poly([0, -1, 0, 1])) == {
        Fraction(0): 1,
        Fraction(1): 1,
        Fraction(-1): 1,
    }
    doubled = poly([1, -2, 1]) * poly([-3, 2])
    assert rational_roots(doubled) == {Fraction(1): 2, Fraction(3, 2): 1}
    with pytest.raises(ParameterError):
        rational_roots(poly([0]))


def test_ci_split_polynomial_symmetric():
    h = binary_form([1, 0, 0, 0, 0, 0, 1])
    p = ci_split_polynomial(h)
    assert p.degree == 8
    assert [int(c) for c in p.coeffs] == [-4, 0, 1, 0, 0, 0, -4, 0, 1]
    assert p(2) == 0 and p(-2) == 0
    assert set(rational_roots(p)) == {Fraction(2), Fraction(-2)}


def test_ci_split_polynomial_example():
    h = binary_form([1, 0, -4, 0, 0, 0, 0])
    p = ci_split_polynomial(h)
    assert poly_text(p, "a") == "4*a^4 - 17*a^2 + 4"
    assert set(rational_roots(p)) == {
        Fraction(2),
        Fraction(-2),
        Fraction(1, 2),
        Fraction(-1, 2),
    }


def test_ci_split_polynomial_validation():
    with pytest.raises(ParameterError):
        ci_split_polynomial(binary_form([0, 0, 0]))
    with pytest.raises(ParameterError):
        ci_split_polynomial(binary_form([1, 0, 1]))


def test_factorization_certified():
    p = ci_split_polynomial(binary_form([1, 0, 0, 0, 0, 0, 1]))
    result = factor_over_rationals(p)
    assert result.complete
    texts = [(poly_text(f, "a"), k) for f, k in result.factors]
    assert texts == [("a - 2", 1), ("a + 2", 1), ("a^2 + 1", 1), ("a^4 - a^2 + 1", 1)]
    with pytest.raises(ParameterError):
        factor_over_rationals(poly(()))


def test_factorization_unresolved():
    p = ci_split_polynomial(binary_form([1, 0, 0, 0, 0, 0, 0, 0, 1]))
    result = factor_over_rationals(p)
    assert not result.complete
    assert poly_text(result.unresolved, "a") == "a^8 + 1"
    assert [(poly_text(f, "a"), k) for f, k in result.factors] == [("a - 2", 1), ("a + 2", 1)]


def _random_factor(rng, degree, lead_and_negative_const):
    coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((1, -1, 2, 3, -5))]
    if lead_and_negative_const:
        coeffs[0], coeffs[-1] = rng.randint(-9, -1), rng.randint(2, 6)
    return poly(coeffs)


def _oracle_cases(count):
    """Seeded products of integer polynomials of degree 1 to 4."""
    rng = random.Random(20261018)
    for index in range(count):
        p = poly([rng.choice((1, -1, 3))])
        for slot in range(rng.randint(1, 3)):
            p = p * _random_factor(rng, rng.randint(1, 4), (index + slot) % 3 == 0)
        if index % 4 == 0:
            square = _random_factor(rng, 2, index % 8 == 0)
            p = p * square * square
        yield p


def test_factorization_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")

    def normalized(expr):
        coeffs = [int(c) for c in reversed(sympy.Poly(expr, t).all_coeffs())]
        sign = -1 if coeffs[-1] < 0 else 1
        return tuple(sign * c for c in coeffs)

    def sympy_factors(p):
        expr = sum(int(c) * t**i for i, c in enumerate(p.coeffs))
        _, factors = sympy.factor_list(expr, t)
        return sorted(((normalized(f), k) for f, k in factors), key=lambda fk: (len(fk[0]), fk[0]))

    complete = incomplete = 0
    for p in _oracle_cases(240):
        result = factor_over_rationals(p)
        ours = [(tuple(int(c) for c in f.coeffs), k) for f, k in result.factors]
        theirs = sympy_factors(p)
        if result.complete:
            complete += 1
            assert ours == theirs, p
        else:
            incomplete += 1
            assert [fk for fk in theirs if len(fk[0]) <= 3] == [fk for fk in ours if len(fk[0]) <= 3], p
            assert min(len(f) for f, _ in sympy_factors(result.unresolved)) >= 4, p
    assert complete > 100 and incomplete > 10


def test_factorization_multiplies_back_with_its_unit():
    for base in _oracle_cases(240):
        for scale in (1, Fraction(3, 7), Fraction(-5, 2)):
            p = base * poly([scale])
            result = factor_over_rationals(p)
            product = poly([result.unit]) * (result.unresolved or poly([1]))
            for f, k in result.factors:
                ints = [int(c) for c in f.coeffs]
                assert list(f.coeffs) == ints and gcd(*ints) == 1 and ints[-1] > 0, (p, f)
                for _ in range(k):
                    product = product * f
            assert product == p, p
            linear = {Fraction(-f.coeffs[0], f.coeffs[1]): k for f, k in result.factors if f.degree == 1}
            assert rational_roots(p) == linear, p


def test_factorization_of_a_large_prime_coefficient():
    # a scan over middle coefficients up to the root bound would try about
    # 4 * 10^9 candidates here; the divisor search answers at once
    census = line_census(binary_form([1, 0, 0, 0, 10**9 + 7]), binary_form([1, 0, 1]))
    factors = [(e.source, e.factor, e.count) for e in census.split_values]
    assert factors == [("A", "1000000007*t^4 + 1", 4), ("B", "t^2 + 1", 2)]


def test_divisors_match_trial_division():
    for n in range(-12, 2001):
        assert _divisors(n) == [d for d in range(1, abs(n) + 1) if n % d == 0], n


def test_divisors_of_smooth_constants_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(22)
    primes = list(sympy.primerange(2, 1000))
    for _ in range(20):
        n = rng.choice((1, -1))
        while abs(n) < 10**22:
            n *= rng.choice(primes)
        assert _divisors(n) == sympy.divisors(n), n


def _planted_root_cases(count):
    """Seeded products of up to five factors (a t - b), a up to 12 and b of
    either sign, some repeated, times a random integer cofactor.  The
    divisor search takes O(sqrt) steps in the lead and the constant term, so
    the factors stay small."""
    rng = random.Random(4099)
    for _ in range(count):
        p = poly([rng.choice((1, -1, 2, 6))])
        linear = poly([1])
        for _ in range(5):
            if rng.random() < 0.7:
                linear = poly([-rng.randint(-12, 12), rng.randint(1, 12)])
            p = p * linear
        cofactor = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [rng.randint(1, 9)]
        yield p * poly(cofactor)


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    for p in _planted_root_cases(150):
        expr = sum(int(c) * t**i for i, c in enumerate(p.coeffs))
        theirs = {}
        for f, k in sympy.factor_list(expr, t)[1]:
            coeffs = sympy.Poly(f, t).all_coeffs()
            if len(coeffs) == 2:
                theirs[Fraction(-int(coeffs[1]), int(coeffs[0]))] = k
        assert rational_roots(p) == theirs, p


def test_is_rational_square():
    assert is_rational_square(Fraction(4))
    assert is_rational_square(Fraction(9, 4))
    assert is_rational_square(Fraction(0))
    assert not is_rational_square(Fraction(2))
    assert not is_rational_square(Fraction(-1))
    assert not is_rational_square(Fraction(8, 9))


def test_line_census_symmetric_quartic():
    census = line_census(binary_form([1, 0, 0, 0, 1]), binary_form([1, 0, 1]))
    assert census.total_lines == 12
    assert not census.includes_infinity_section
    assert all(entry.root is None for entry in census.split_values)
    factors = [(e.source, e.factor, e.count) for e in census.split_values]
    assert factors == [("A", "t^4 + 1", 4), ("B", "t^2 + 1", 2)]


def test_line_census_rational_split_values():
    census = line_census(binary_form([4, 0, -5, 0, 1]), binary_form([1, 0, 1]))
    assert census.total_lines == 12
    entries = {e.root: e for e in census.split_values if e.root is not None}
    assert set(entries) == {Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)}
    assert entries[Fraction(1)].residual == 2
    assert entries[Fraction(2)].residual == 5
    assert all(e.rational_pair is False for e in entries.values())
    b_roots = {e.root for e in census.split_values if e.source == "B" and e.root is not None}
    assert b_roots == set()


def test_line_census_infinity_section():
    census = line_census(binary_form([1, 0, 0, -1, 0]), binary_form([1, 0, 1]))
    assert census.total_lines == 12
    assert census.includes_infinity_section
    last = census.split_values[-1]
    assert last.source == "infinity"
    assert last.residual == 1
    assert last.rational_pair is True
    a_roots = {e.root for e in census.split_values if e.source == "A" and e.root is not None}
    assert a_roots == {Fraction(1)}


def test_line_census_validation():
    quartic = binary_form([1, 0, 0, 0, 1])
    with pytest.raises(ParameterError):
        line_census(binary_form([1, 0, 1]), binary_form([1, 0, 1]))
    with pytest.raises(ParameterError):
        line_census(quartic, binary_form([1, 0, 0]))
    with pytest.raises(ParameterError, match="B must have degree 2, got 3"):
        line_census(quartic, binary_form([1, 0, 0, 1]))
    square = binary_form([1, 2, 1])
    with pytest.raises(ParameterError):
        line_census(quartic, square)
    with pytest.raises(ParameterError):
        line_census(binary_form([1, 0, 2, 0, 1]), binary_form([1, 0, 1]))
    shared = binary_form([1, 0, 3, 0, 2])
    with pytest.raises(ParameterError):
        line_census(shared, binary_form([1, 0, 1]))


def _form_product(*forms):
    """Multiply binary forms given as coefficient lists, highest x power first."""
    out = [1]
    for form in forms:
        prod = [0] * (len(out) + len(form) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(form):
                prod[i + j] += a * b
        out = prod
    return out


def _census_refusal_cases(count):
    """Seeded (A, B) coefficient pairs, deg A = 4 and deg B = 2, many of them degenerate."""
    rng = random.Random(20261019)

    def coeffs(n):
        return [rng.randint(-3, 3) for _ in range(n)]

    for index in range(count):
        kind = index % 7
        if kind == 0:
            yield coeffs(5), coeffs(3)
        elif kind == 1:  # x^2 divides A
            yield _form_product(coeffs(3), [1, 0], [1, 0]), coeffs(3)
        elif kind == 2:  # x divides both
            yield _form_product(coeffs(4), [1, 0]), _form_product(coeffs(2), [1, 0])
        elif kind == 3:  # a shared linear factor
            shared = coeffs(2)
            yield _form_product(shared, coeffs(4)), _form_product(shared, coeffs(2))
        elif kind == 4:  # a shared quadratic factor
            shared = coeffs(3)
            yield _form_product(shared, coeffs(3)), _form_product(shared, [rng.choice((1, -2, 3))])
        elif kind == 5:  # a repeated factor in B
            root = coeffs(2)
            yield coeffs(5), _form_product(root, root, [rng.choice((1, -1, 2))])
        else:  # a repeated factor in A
            root = coeffs(2)
            yield _form_product(root, root, coeffs(3)), coeffs(3)


def test_line_census_refusals_match_sympy():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def homogeneous(form):
        degree = len(form) - 1
        return sympy.Poly(sum(c * x ** (degree - i) * y**i for i, c in enumerate(form)), x, y)

    def squarefree(p):
        return all(k == 1 for _, k in sympy.sqf_list(p)[1])

    def predicted(a, b):
        pa, pb = homogeneous(a), homogeneous(b)
        if pa.is_zero or pb.is_zero:
            return "A and B must be nonzero"
        if not squarefree(pa):
            return "A must be squarefree as a binary form"
        if not squarefree(pb):
            return "B must be squarefree as a binary form"
        if sympy.gcd(pa, pb).total_degree() > 0:
            return "A and B must be coprime as binary forms"
        return None

    seen = {}
    for a, b in _census_refusal_cases(700):
        expected = predicted(a, b)
        try:
            census = line_census(binary_form(a), binary_form(b))
        except ParameterError as exc:
            assert str(exc) == expected, (a, b)
        else:
            assert expected is None and census.total_lines == 12, (a, b)
        seen[expected] = seen.get(expected, 0) + 1
    assert len(seen) == 5 and min(seen.values()) >= 10, seen
