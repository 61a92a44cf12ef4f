"""Lattice models: Gram data, invariants, arithmetic."""

import random
from fractions import Fraction
from math import prod

import pytest

from dpforms import (
    HIRZEBRUCH,
    PLANE,
    BasisMismatchError,
    CurveSystem,
    DivisorClass,
    InternalInvariantError,
    ParameterError,
    SurfaceModel,
    build_model,
    anti_plurigenus_table,
    classify,
    correction_residue,
    embedding_descriptor,
    feasible_ell,
    gram_determinant,
    h0_anti_plurigenus,
    is_del_pezzo,
    is_unimodular,
    k_squared_singular,
    lattice_signature,
    q_point_forced,
    signature_of,
)
from dpforms import lattice
from dpforms.cli import run
from dpforms.lattice import _pivots


def test_hirzebruch_gram():
    model = build_model(2, 5)
    assert model.rank == 7
    assert model.basis_names == ("Q", "F", "E_1", "E_2", "E_3", "E_4", "E_5")
    q, f = model.basis_class(0), model.basis_class(1)
    assert model.intersect(q, q) == -2
    assert model.intersect(q, f) == 1
    assert model.intersect(f, f) == 0
    for i in range(2, 7):
        for j in range(2, 7):
            want = -1 if i == j else 0
            assert model.intersect(model.basis_class(i), model.basis_class(j)) == want
        assert model.intersect(q, model.basis_class(i)) == 0
        assert model.intersect(f, model.basis_class(i)) == 0


def test_plane_gram_and_distinguished():
    model = build_model(2, 6, PLANE)
    assert model.rank == 8
    diag = [model.gram[i][i] for i in range(8)]
    assert diag == [1, -1, -1, -1, -1, -1, -1, -1]
    assert all(model.gram[i][j] == 0 for i in range(8) for j in range(8) if i != j)
    named = model.distinguished
    assert named["Q"].coeffs == (2, -1, -1, -1, -1, -1, -1, 0)
    assert named["E_1"].coeffs == (0, 1, 0, 0, 0, 0, 0, 0)
    assert named["E_1'"].coeffs == (1, -1, 0, 0, 0, 0, 0, -1)
    q = named["Q"]
    assert model.intersect(q, q) == -2
    for i in range(1, 7):
        e, ep = named[f"E_{i}"], named[f"E_{i}'"]
        assert model.intersect(e, e) == -1
        assert model.intersect(ep, ep) == -1
        assert model.intersect(e, ep) == 1
        assert model.intersect(q, e) == 1
        assert model.intersect(q, ep) == 1


def test_anticanonical():
    assert build_model(2, 5).anticanonical.coeffs == (2, 4, -1, -1, -1, -1, -1)
    assert build_model(3, 4).anticanonical.coeffs == (2, 5, -1, -1, -1, -1)
    plane = build_model(2, 6, PLANE)
    mk = plane.anticanonical
    assert mk.coeffs == (3, -1, -1, -1, -1, -1, -1, -1)
    assert plane.intersect(mk, mk) == 2


def test_anticanonical_square_matches_formula():
    for m in range(2, 7):
        for n in range(1, m + 6):
            model = build_model(m, n)
            mk = model.anticanonical
            assert model.intersect(mk, mk) == 8 - n


def test_k_squared_singular():
    assert k_squared_singular(2, 5) == 3
    assert k_squared_singular(2, 1) == 7
    assert k_squared_singular(3, 7) == Fraction(4, 3)
    assert k_squared_singular(12, 16) == Fraction(1, 3)
    for m in range(2, 13):
        assert k_squared_singular(m, m + 4) == Fraction(4, m)


def test_unimodular_and_signature():
    for m in range(2, 6):
        for n in range(1, m + 6):
            model = build_model(m, n)
            assert is_unimodular(model)
            assert abs(gram_determinant(model)) == 1
            assert lattice_signature(model) == (1, model.rank - 1)
    plane = build_model(3, 7, PLANE)
    assert is_unimodular(plane)
    assert lattice_signature(plane) == (1, 8)


def test_signature_of_plain_matrix():
    assert signature_of(((2, 0), (0, -3))) == (1, 1)
    assert signature_of(((0, 1), (1, 0))) == (1, 1)
    with pytest.raises(ParameterError, match="must be square"):
        signature_of(((1, 2),))
    with pytest.raises(ParameterError, match="must be symmetric"):
        signature_of(((0, 1), (2, 0)))


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def test_signature_and_determinant_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20251)
    for trial in range(200):
        r = rng.randint(1, 6)
        a = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1):
                a[i][j] = a[j][i] = rng.randint(-3, 3)
        if trial % 4 == 1:  # zero diagonal
            for i in range(r):
                a[i][i] = 0
        elif trial % 4 == 2 and r > 1:  # singular: one row/column repeats another
            i, j = rng.sample(range(r), 2)
            for k in range(r):
                a[j][k] = a[i][k]
            for k in range(r):
                a[k][j] = a[k][i]
        elif trial % 4 == 3:  # singular: a zero row and column
            i = rng.randrange(r)
            for k in range(r):
                a[i][k] = a[k][i] = 0
        mat = sympy.Matrix(a)
        coeffs = mat.charpoly().all_coeffs()  # highest degree first
        flipped = [c * (-1) ** (r - k) for k, c in enumerate(coeffs)]
        # all eigenvalues are real, so Descartes' rule counts them exactly
        assert signature_of(a) == (_sign_changes(coeffs), _sign_changes(flipped)), a
        assert prod(_pivots(a), start=Fraction(1)) == mat.det(), a


def test_integer_pivots_match_sympy():
    # int entries stay ints until a division; every pivot is still a Fraction
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261021)
    grams = []
    for trial in range(120):
        r = rng.randint(1, 8)
        a = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1):
                a[i][j] = a[j][i] = rng.randint(-3, 3)
        if trial % 2:  # zero diagonal: the swap finds no pivot and the fold runs
            for i in range(r):
                a[i][i] = 0
        grams.append(a)
    # the models whose invariants the lattice self-check compares
    grams += [build_model(m, n).gram for m in range(2, 7) for n in range(1, m + 6)]
    grams += [build_model(m, m + 4, PLANE).gram for m in range(2, 7)]
    for a in grams:
        mat = sympy.Matrix(a)
        coeffs = mat.charpoly().all_coeffs()  # highest degree first
        while coeffs[-1] == 0:  # divide out the zero roots
            coeffs.pop()
        flipped = [c * (-1) ** (len(coeffs) - 1 - k) for k, c in enumerate(coeffs)]
        pivots = _pivots(a)
        assert all(type(p) is Fraction for p in pivots), a
        assert prod(pivots, start=Fraction(1)) == mat.det(), a
        # all roots are real, so Descartes' rule counts them exactly
        signature = (_sign_changes(coeffs), _sign_changes(flipped))
        assert signature_of(a) == signature, a
        # Fraction and float entries take the same steps at half the scale
        assert _pivots([[Fraction(x, 2) for x in row] for row in a]) == [p / 2 for p in pivots]
        assert signature_of([[x / 2 for x in row] for row in a]) == signature, a


def test_k_squared_matches_the_fraction_formula():
    # the formula 8 - n + (m-2)^2/m that m K_X^2 = (m+2)^2 - nm replaced
    for m in range(2, 101):
        for n in range(1, m + 6):
            k2 = Fraction(8 - n) + Fraction((m - 2) ** 2, m)
            assert k_squared_singular(m, n) == k2, (m, n)
            assert is_del_pezzo(m, n) is (k2 > 0), (m, n)


def test_divisor_arithmetic():
    model = build_model(2, 5)
    mk = model.anticanonical
    f = model.basis_class(1)
    combo = mk + mk - f
    assert combo.coeffs == (4, 7, -2, -2, -2, -2, -2)
    assert (combo - combo).is_zero()
    assert model.intersect(mk, f) == 2


def test_basis_mismatch_rejected():
    a = build_model(2, 5).anticanonical
    model = build_model(2, 6)
    with pytest.raises(BasisMismatchError):
        model.intersect(a, model.anticanonical)


def test_sum_and_difference_across_bases_refused():
    a, b = build_model(2, 5).anticanonical, build_model(3, 4).anticanonical
    message = "classes live in different bases: 'hirzebruch\\(m=2,n=5\\)' vs 'hirzebruch\\(m=3,n=4\\)'"
    for combine in (a.__add__, a.__sub__):
        with pytest.raises(BasisMismatchError, match=message):
            combine(b)


def test_sum_and_difference_of_unequal_lengths_refused():
    # a DivisorClass built directly can carry a model's tag with the wrong length;
    # arithmetic refuses it instead of truncating to the shorter vector
    a = build_model(2, 3).divisor((0, 1, 0, 0, 0))
    b = DivisorClass("hirzebruch(m=2,n=3)", (1,))
    for x, y, lengths in ((a, b, "5 and 1"), (b, a, "1 and 5")):
        for combine in (x.__add__, x.__sub__):
            with pytest.raises(BasisMismatchError, match=f"classes with {lengths} coefficients "
                                                         "in basis 'hirzebruch"):
                combine(y)


def test_divisor_length_checked():
    model = build_model(2, 5)
    with pytest.raises(ParameterError):
        model.divisor((1, 2, 3))


def test_pairing_refuses_a_class_of_the_wrong_length():
    # the basis tag alone lets a short class index past its end and a long
    # one pair with its extra entries dropped
    model = build_model(2, 6, PLANE)
    e1 = model.distinguished["E_1"]
    for coeffs in ((0, 0, 1), (0,) * 8 + (1,)):
        stray = DivisorClass(model.basis_tag, coeffs)
        message = f"class with {len(coeffs)} coefficients paired inside model .* of rank 8"
        for pair in (model.dual, lambda c: model.intersect(e1, c),
                     lambda c: model.intersect(c, e1), lambda c: CurveSystem(model, (e1, c))):
            with pytest.raises(BasisMismatchError, match=message):
                pair(stray)


def test_signature_and_determinant_share_one_diagonalization(monkeypatch):
    calls = []
    monkeypatch.setattr(lattice, "_pivots", lambda gram: calls.append(gram) or _pivots(gram))
    model = build_model(3, 6)
    assert lattice_signature(model) == (1, model.rank - 1)
    assert is_unimodular(model) and gram_determinant(model) == -1
    assert calls == [model.gram]
    assert model.pivots == tuple(_pivots(model.gram))


def test_divisor_coefficients_integral():
    model = build_model(2, 1)
    coeffs = model.divisor((2.0, Fraction(1), -1)).coeffs
    assert coeffs == (2, 1, -1) and all(type(x) is int for x in coeffs)
    # a bool is refused, as by `lattice.integral`, though True == 1
    for bad in ((2.5, 0, 0), ("3", 0, 0), (True, 0, 0), (1, 0, False), ("x", 0, 0),
                (None, 0, 0), (float("inf"), 0, 0), (0, float("nan"), 0)):
        with pytest.raises(ParameterError, match="^divisor class coefficient must be an integer"):
            model.divisor(bad)
    with pytest.raises(ParameterError, match=r"^divisor class coefficient must be an integer, got 2\.5$"):
        model.divisor((1, 2.5, 0))


def test_parameter_validation():
    with pytest.raises(ParameterError):
        build_model(1, 3)
    with pytest.raises(ParameterError):
        build_model(2, 0)
    with pytest.raises(ParameterError):
        build_model(2, 8)
    with pytest.raises(ParameterError):
        build_model(2, 5, PLANE)
    with pytest.raises(ParameterError):
        build_model(2, 6, "spherical")
    with pytest.raises(ParameterError):
        k_squared_singular(2, 9)
    # a model built directly is refused too: no plane basis for a surface that does not exist
    for args in ((1, 3, HIRZEBRUCH), (2, 0, HIRZEBRUCH), (2, 8, HIRZEBRUCH), (2, 5, PLANE),
                 (2, 6, "spherical"), (2, 99, PLANE)):
        with pytest.raises(ParameterError):
            SurfaceModel(*args)
    model = SurfaceModel(3.0, 4.0, "hirzebruch")
    assert (type(model.m), type(model.n), model) == (int, int, build_model(3, 4))


def test_a_model_defaults_to_the_hirzebruch_basis():
    model = SurfaceModel(3, 4)
    assert model.kind == HIRZEBRUCH and model == build_model(3, 4, HIRZEBRUCH)


def test_fractional_determinant_is_a_broken_invariant(monkeypatch, capsys):
    # an integer Gram matrix has an integer determinant: pivots that multiply
    # to a fraction are a bug, reported by the library and by the CLI (exit 2)
    monkeypatch.setattr(SurfaceModel, "pivots", (Fraction(1, 2), Fraction(-1)))
    with pytest.raises(InternalInvariantError, match="non-integer determinant"):
        gram_determinant(build_model(2, 3))
    assert run(["lattice", "--m", "2", "--n", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal invariant violated: ")


def test_one_parameter_guard():
    # every entry point taking (m, n) or m refuses with build_model's messages
    m_and_n = [build_model, k_squared_singular, is_del_pezzo, classify,
               lambda m, n: anti_plurigenus_table(m, n, 1)]
    m_only = [lambda m: correction_residue(m, 1), embedding_descriptor, q_point_forced,
              lambda m: feasible_ell(m, m + 4)]
    for call in m_and_n + [lambda m, n, f=f: f(m) for f in m_only]:
        with pytest.raises(ParameterError, match=r"^m must be >= 2, got 1$"):
            call(1, 3)
    for call in m_and_n:
        for n in (0, 9):
            with pytest.raises(ParameterError, match=rf"^n must satisfy 1 <= n <= m\+5 = 8, got {n}$"):
                call(3, n)
    with pytest.raises(ParameterError, match="ell is undefined"):
        feasible_ell(3, 9)
    # non-integral values are refused, not truncated
    for call in m_and_n + [lambda m, n, f=f: f(m) for f in m_only]:
        with pytest.raises(ParameterError, match=r"^m must be an integer, got 2\.9$"):
            call(2.9, 6)
    for call in m_and_n + [lambda m, n: feasible_ell(m, n)]:
        with pytest.raises(ParameterError, match=r"^n must be an integer, got 6\.2$"):
            call(3, 6.2)
    # a bool is not an integer, though int(True) == 1
    for call in m_and_n + [lambda m, n, f=f: f(m) for f in m_only]:
        with pytest.raises(ParameterError, match=r"^m must be an integer, got True$"):
            call(True, 6)
    for call in m_and_n + [lambda m, n: feasible_ell(m, n)]:
        with pytest.raises(ParameterError, match=r"^n must be an integer, got True$"):
            call(3, True)
    for call in (lambda j: correction_residue(3, j), lambda j: h0_anti_plurigenus(3, 7, j)):
        with pytest.raises(ParameterError, match=r"^j must be an integer, got 1\.9$"):
            call(1.9)
    # values int() refuses are refused alike, by name
    for bad, text in (("x", "'x'"), (None, "None"), (float("inf"), "inf")):
        with pytest.raises(ParameterError, match=rf"^m must be an integer, got {text}$"):
            lattice.integral("m", bad)


def test_is_del_pezzo_matches_the_table():
    # the oracle: the table the predicate K_X^2 > 0 replaced
    def table(m, n):
        return (m >= 4 and n <= m + 4) or (m in (2, 3) and n <= m + 5)

    for m in range(2, 51):
        for n in range(1, m + 6):
            assert is_del_pezzo(m, n) == table(m, n), (m, n)
