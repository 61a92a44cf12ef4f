"""Decision table, feasibility sets, and tri-state plumbing."""

import pytest

from dpforms import (
    InfeasibleEllError,
    ParameterError,
    TriState,
    classify,
    feasible_ell,
    is_del_pezzo,
    parse_tristate,
)


def test_tristate_parsing():
    assert parse_tristate("yes") is TriState.YES
    assert parse_tristate("no") is TriState.NO
    assert parse_tristate("unknown") is TriState.OPEN
    assert parse_tristate("open") is TriState.OPEN
    assert parse_tristate(" Yes ") is TriState.YES
    assert parse_tristate("UNKNOWN") is TriState.OPEN
    assert str(TriState.YES) == "yes"
    assert str(TriState.OPEN) == "open"
    with pytest.raises(ParameterError):
        parse_tristate("maybe")


def test_is_del_pezzo():
    assert is_del_pezzo(2, 7)
    assert is_del_pezzo(3, 8)
    assert is_del_pezzo(5, 9)
    assert not is_del_pezzo(4, 9)
    assert not is_del_pezzo(6, 11)


def test_feasible_ell():
    assert feasible_ell(2, 6) == frozenset({0, 1, 2, 3, 4, 6})
    assert feasible_ell(3, 7) == frozenset({0, 1, 2, 3, 4, 5, 7})
    assert feasible_ell(2, 7) == frozenset({1, 2, 3, 4, 5, 7, 8})
    with pytest.raises(ParameterError):
        feasible_ell(3, 5)


def test_intermediate_range():
    v = classify(2, 3, q_point="yes")
    assert (v.rational, v.cylindrical) == (TriState.YES, TriState.YES)
    assert v.citations == ("thm:intermediate(1)",)

    v = classify(2, 3, q_point="no")
    assert (v.rational, v.cylindrical) == (TriState.NO, TriState.YES)

    v = classify(2, 4, q_point="unknown")
    assert (v.rational, v.cylindrical) == (TriState.OPEN, TriState.OPEN)
    assert v.citations == ("thm:intermediate(2)",)

    v = classify(2, 5)
    assert (v.rational, v.cylindrical) == (TriState.YES, TriState.OPEN)
    assert v.citations == ("thm:intermediate(3)",)


def test_odd_m_upgrade():
    v = classify(3, 4)
    assert (v.rational, v.cylindrical) == (TriState.YES, TriState.YES)
    assert any("odd" in note for note in v.notes)

    v = classify(3, 4, q_point="no")
    assert (v.rational, v.cylindrical) == (TriState.YES, TriState.YES)
    assert any("overridden" in note for note in v.notes)

    v = classify(3, 4, q_point="yes")
    assert v.notes == ()


def test_boundary_m_plus_4():
    v = classify(3, 7, ell=4)
    assert (v.rational, v.cylindrical) == (TriState.YES, TriState.YES)
    assert v.citations == ("thm:m+4(3)",)

    v = classify(2, 6, ell=0, q_point="no")
    assert (v.rational, v.cylindrical) == (TriState.NO, TriState.NO)
    assert v.citations == ("thm:m+4(1)",)

    v = classify(2, 6, ell=4, q_point="yes")
    assert (v.rational, v.cylindrical) == (TriState.YES, TriState.YES)
    assert v.citations == ("thm:m+4(4)",)

    v = classify(2, 6, ell=6)
    assert (v.rational, v.cylindrical) == (TriState.OPEN, TriState.OPEN)
    assert v.citations == ("thm:m+4(5)",)

    v = classify(3, 7, ell=7)
    assert (v.rational, v.cylindrical) == (TriState.YES, TriState.YES)
    assert v.citations == ("thm:m+4(5)",)


def test_boundary_m_plus_5():
    v = classify(2, 7, ell=3)
    assert (v.rational, v.cylindrical) == (TriState.NO, TriState.NO)
    assert v.citations == ("thm:m+5(1)",)

    v = classify(2, 7, ell=4)
    assert (v.rational, v.cylindrical) == (TriState.YES, TriState.YES)
    assert v.citations == ("thm:m+5(3)",)

    v = classify(2, 7, ell=8)
    assert (v.rational, v.cylindrical) == (TriState.YES, TriState.YES)
    assert v.citations == ("thm:m+5(3)",)

    v = classify(2, 7, ell=5, q_point="unknown")
    assert (v.rational, v.cylindrical) == (TriState.OPEN, TriState.OPEN)
    assert v.citations == ("thm:m+5(4)",)

    v = classify(2, 7, ell=7, q_point="no")
    assert (v.rational, v.cylindrical) == (TriState.YES, TriState.OPEN)
    assert v.citations == ("thm:m+5(5)",)

    v = classify(3, 8, ell=8, q_point="no")
    assert (v.rational, v.cylindrical) == (TriState.YES, TriState.YES)


def test_ell_requirements():
    with pytest.raises(ParameterError):
        classify(2, 5, ell=3)
    with pytest.raises(ParameterError):
        classify(2, 6)
    with pytest.raises(InfeasibleEllError) as info:
        classify(2, 6, ell=5)
    assert info.value.feasible == frozenset({0, 1, 2, 3, 4, 6})
    with pytest.raises(InfeasibleEllError):
        classify(2, 7, ell=6)
    with pytest.raises(InfeasibleEllError):
        classify(2, 7, ell=0)


def test_ell_and_n_must_be_integers():
    # an integral float is the integer; a string, a bool or a non-integral
    # float is refused as non-integral, not as infeasible
    assert classify(3, 7, ell=2.0) == classify(3, 7, ell=2)
    assert feasible_ell(3, 7.0) == feasible_ell(3, 7)
    for ell in ("2", True, False, 2.5):
        with pytest.raises(ParameterError, match=rf"^ell must be an integer, got {ell!r}$"):
            classify(3, 7, ell=ell)
    for n in (7.5, "7"):
        with pytest.raises(ParameterError, match=rf"^n must be an integer, got {n!r}$"):
            feasible_ell(3, n)


def test_outside_range_notes():
    v = classify(4, 9, ell=5)
    assert any("outside" in note for note in v.notes)
    v = classify(6, 11, ell=2)
    assert any("outside" in note for note in v.notes)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        classify(1, 2)
    with pytest.raises(ParameterError):
        classify(2, 8, ell=1)
    with pytest.raises(ParameterError):
        classify(2, 4, q_point="perhaps")
