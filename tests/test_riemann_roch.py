"""Anti-plurigenus values, correction terms, and embedding descriptors."""

from fractions import Fraction

import pytest

from dpforms import lattice, riemann_roch
from dpforms import (
    InternalInvariantError,
    ParameterError,
    anti_plurigenus_table,
    correction_residue,
    correction_term,
    embedding_descriptor,
    h0_anti_plurigenus,
    k_squared_singular,
)
from dpforms.verification import embedded_h0, weighted_monomial_count


def test_correction_residue():
    assert correction_residue(3, 1) == 1
    assert correction_residue(3, 3) == 0
    assert correction_residue(4, 2) == 0
    assert correction_residue(5, 1) == 3
    assert correction_residue(2, 9) == 0


def test_correction_term_values():
    assert correction_term(2, 1) == 0
    assert correction_term(3, 1) == Fraction(-1, 3)
    assert correction_term(3, 2) == 0
    assert correction_term(4, 1) == 0
    assert correction_term(5, 1) == Fraction(1, 5)
    assert correction_term(6, 1) == Fraction(1, 3)
    for m in range(3, 9):
        assert correction_term(m, 1) == Fraction(m - 4, m)


def test_correction_periodicity():
    for m in range(2, 8):
        for j in range(0, 3 * m):
            assert correction_term(m, j) == correction_term(m, j + m)


def test_h0_small_table():
    values = {(3, 7, 1): 2, (3, 7, 2): 5, (3, 7, 3): 9, (3, 7, 4): 14}
    for (m, n, j), expected in values.items():
        assert h0_anti_plurigenus(m, n, j) == expected


def test_h0_vanishing_residue_cells():
    assert h0_anti_plurigenus(2, 6, 2) == 7
    assert h0_anti_plurigenus(2, 6, 4) == 21
    assert h0_anti_plurigenus(4, 8, 6) == 22


def test_h0_anticanonical_is_two():
    assert h0_anti_plurigenus(2, 6, 1) == 3
    for m in range(3, 13):
        assert h0_anti_plurigenus(m, m + 4, 1) == 2


def test_h0_matches_monomial_count():
    for m in range(2, 10):
        for j in range(1, 2 * m + 4):
            assert h0_anti_plurigenus(m, m + 4, j) == embedded_h0(m, j)


def test_weighted_monomial_count():
    assert weighted_monomial_count((1, 1), 3) == 4
    assert weighted_monomial_count((1, 1, 2), 2) == 4
    assert weighted_monomial_count((1, 1, 2, 3), 0) == 1
    assert weighted_monomial_count((1, 1, 2, 3), -1) == 0
    assert weighted_monomial_count((2,), 3) == 0


def test_table_rows():
    rows = anti_plurigenus_table(3, 7, 4)
    assert [row.j for row in rows] == [1, 2, 3, 4]
    assert [row.h0 for row in rows] == [2, 5, 9, 14]
    assert [row.residue for row in rows] == [1, 2, 0, 1]
    assert [row.correction for row in rows] == [Fraction(-1, 3), 0, 0, Fraction(-1, 3)]


def test_embedding_descriptors():
    assert embedding_descriptor(2).weights == (1, 1, 1, 2)
    assert embedding_descriptor(2).degrees == (4,)
    assert embedding_descriptor(3).weights == (1, 1, 2, 2, 3)
    assert embedding_descriptor(3).degrees == (4, 4)
    assert embedding_descriptor(4).weights == (1, 1, 2, 3)
    assert embedding_descriptor(4).degrees == (6,)
    assert embedding_descriptor(5).weights == (1, 1, 3, 3, 5)
    assert embedding_descriptor(5).degrees == (6, 6)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        correction_term(1, 2)
    with pytest.raises(ParameterError):
        correction_term(3, -1)
    with pytest.raises(ParameterError):
        h0_anti_plurigenus(2, 9, 1)
    with pytest.raises(ParameterError):
        anti_plurigenus_table(3, 7, 0)
    with pytest.raises(ParameterError, match="max_j must be an integer"):
        anti_plurigenus_table(3, 7, 2.5)
    assert anti_plurigenus_table(3, 7, 2.0) == anti_plurigenus_table(3, 7, 2)
    with pytest.raises(ParameterError):
        embedding_descriptor(1)


def test_invariant_guard_fires_outside_range(monkeypatch):
    with pytest.raises(ParameterError, match=r"\(m, n\) = \(12, 17\) has K_X\^2 = -2/3$"):
        h0_anti_plurigenus(12, 17, 3)
    # a broken correction makes chi fractional on a del Pezzo surface
    monkeypatch.setattr(riemann_roch, "_scaled_correction", lambda m, t: 1)
    with pytest.raises(InternalInvariantError, match="is not an integer"):
        h0_anti_plurigenus(3, 7, 1)


def test_invariant_guard_fires_on_negative_chi(monkeypatch):
    # a scaled correction of -4m is c = -2, so chi(j = 0) = 1 - 2 = -1
    monkeypatch.setattr(riemann_roch, "_scaled_correction", lambda m, t: -4 * m)
    with pytest.raises(InternalInvariantError, match=r"chi\(m=3, n=7, j=0\) = -1 is negative$"):
        h0_anti_plurigenus(3, 7, 0)
    # tables start at j = 1: K_X^2 = 2 on (2, 6), so c = -4 gives chi(1) = 1 + 2 - 4 = -1
    monkeypatch.setattr(riemann_roch, "_scaled_correction", lambda m, t: -8 * m)
    with pytest.raises(InternalInvariantError, match=r"chi\(m=2, n=6, j=1\) = -1 is negative$"):
        anti_plurigenus_table(2, 6, 3)


def test_arguments_are_checked_once_per_call(monkeypatch):
    # counted in both modules, so the del Pezzo test's own check counts too
    calls = []
    original = lattice.check_mn

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lattice, "check_mn", counted)
    monkeypatch.setattr(riemann_roch, "check_mn", counted)
    for max_j in (1, 2, 1000):
        calls.clear()
        assert len(anti_plurigenus_table(12, 16, max_j)) == max_j
        assert len(calls) <= 2, (max_j, len(calls))
    calls.clear()
    h0_anti_plurigenus(12, 16, 5)
    assert len(calls) <= 2, len(calls)


def test_integer_h0_equals_the_fraction_formula():
    # the del Pezzo cells match the formula; every other cell, e.g. (12, 17, 3), is refused
    refused = 0
    for m in range(2, 31):
        for n in range(1, m + 6):
            for j in range(41):
                if k_squared_singular(m, n) <= 0:
                    refused += 1
                    with pytest.raises(ParameterError, match="need K_X\\^2 > 0"):
                        h0_anti_plurigenus(m, n, j)
                    continue
                value = (1 + Fraction(j * (j + 1), 2) * k_squared_singular(m, n)
                         + correction_term(m, j))
                got = h0_anti_plurigenus(m, n, j)
                assert type(got) is int and got == value, (m, n, j)
    assert refused
