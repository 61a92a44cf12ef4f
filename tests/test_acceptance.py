"""Acceptance battery: one test per published criterion.

Each criterion is verified by the corresponding self-check from
dpforms.verification, which re-derives the claimed values through an
independent route (search oracle, binomial identity, monomial count,
clause-by-clause verdict recoding, exhaustive ell enumeration).  One
pass/fail line is printed per criterion; stated runtime budgets are
enforced where the criterion gives one.
"""

import dataclasses
import time
from fractions import Fraction
from operator import mul

from dpforms import verification
from dpforms.curves import distinguished_e0
from dpforms.galois import EllResult, GaloisAction, build_curve_system, standard_curve_system
from dpforms.lattice import HIRZEBRUCH, PLANE, build_model
from dpforms.verdicts import TriState
from dpforms.verification import (
    _witness_ok,
    check_anti_plurigenus,
    check_census_equivalence,
    check_ell_engine,
    check_embedding,
    check_incidence_law,
    check_lattice,
    check_plane_census,
    check_sections,
    check_verdict_table,
)


def _run(check, budget=None):
    start = time.perf_counter()
    result = check()
    elapsed = time.perf_counter() - start
    status = "PASS" if result.passed else "FAIL"
    line = f"criterion {result.number} {status}: {result.title} ({result.detail}"
    if budget is not None:
        line += f"; {elapsed:.2f}s of {budget:.0f}s budget"
    line += ")"
    print(line)
    assert result.passed, f"criterion {result.number} failed: {result.detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {result.number} took {elapsed:.2f}s (budget {budget}s)"


def test_criterion_1_census_equivalence():
    # 26 (m, n) pairs, each budgeted at 10 s
    _run(check_census_equivalence, budget=260.0)


def test_criterion_2_plane_census():
    _run(check_plane_census, budget=10.0)


def test_criterion_3_incidence_law():
    _run(check_incidence_law)


def test_criterion_4_anti_plurigenus_tables():
    _run(check_anti_plurigenus, budget=1.0)


def test_criterion_5_embedding_descriptors():
    _run(check_embedding)


def test_criterion_6_verdict_table():
    _run(check_verdict_table, budget=1.0)


def test_criterion_7_ell_engine():
    _run(check_ell_engine, budget=30.0)


def test_criterion_8_sections():
    _run(check_sections, budget=1.0)


def test_criterion_9_lattice_hygiene():
    _run(check_lattice)


def test_census_checks_fail_on_corrupted_input(monkeypatch):
    census = verification._solve
    h0 = verification.h0_anti_plurigenus

    def drop_one_meeting(model, box=None):
        vectors = census(model, box)
        q = model.dual(model.distinguished["Q"])
        k = next(i for i, v in enumerate(vectors) if sum(map(mul, q, v)) >= 1)
        return vectors[:k] + vectors[k + 1:]

    def add_fiber(model, box=None):
        return census(model, box) + [model.distinguished["F"].coeffs]

    monkeypatch.setattr(verification, "_solve", drop_one_meeting)
    result = check_plane_census()
    assert not result.passed and "Q-meeting classes, expected" in result.detail

    # F.E_0 = F.Q = 1
    monkeypatch.setattr(verification, "_solve", add_fiber)
    result = check_incidence_law()
    assert not result.passed and "(E.E_0, E.Q) = (1, 1)" in result.detail

    monkeypatch.setattr(verification, "_solve", census)
    monkeypatch.setattr(verification, "h0_anti_plurigenus", lambda m, n, j: h0(m, n, j) + 1)
    result = check_anti_plurigenus()
    assert not result.passed and "h0(-K) != 2 at m=3" in result.detail


def _fails(check, detail):
    result = check()
    assert not result.passed and detail in result.detail, result.detail


def test_check_1_fails_when_the_closed_form_drops_a_member(monkeypatch):
    family_classes = verification.family_classes
    monkeypatch.setattr(verification, "family_classes", lambda fams: family_classes(fams)[:-1])
    _fails(check_census_equivalence, "(m=2, n=1): closed form has 1 classes, search has 2")


def test_check_5_fails_on_an_extra_degree(monkeypatch):
    descriptor = verification.embedding_descriptor

    def extra_degree(m):
        desc = descriptor(m)
        return dataclasses.replace(desc, degrees=desc.degrees + (1,))

    monkeypatch.setattr(verification, "embedding_descriptor", extra_degree)
    _fails(check_embedding, "m=2: descriptor ((1, 1, 1, 2), (4, 1)), expected ((1, 1, 1, 2), (4,))")


def test_check_6_fails_on_a_wrong_verdict(monkeypatch):
    classify = verification.classify

    def open_at_4_5(m, n, ell=None, q_point=TriState.OPEN):
        verdict = classify(m, n, ell, q_point)
        return dataclasses.replace(verdict, rational=TriState.OPEN) if (m, n) == (4, 5) else verdict

    monkeypatch.setattr(verification, "classify", open_at_4_5)
    _fails(check_verdict_table, "classify(4, 5, q=yes) = open/yes")


def test_check_7_fails_on_a_wrong_ell_or_witness(monkeypatch):
    ell = verification._ell

    def one_too_many(system, action):
        result = ell(system, action)
        return dataclasses.replace(result, ell=result.ell + 1)

    def foreign_curve(system, action):
        result = ell(system, action)
        foreign = next(i for i in range(len(system)) if i not in result.witness)
        return dataclasses.replace(result, witness=result.witness[:-1] + (foreign,))

    monkeypatch.setattr(verification, "_ell", one_too_many)
    _fails(check_ell_engine, "plane m=2 trivial: search 7 != oracle 6")
    monkeypatch.setattr(verification, "_ell", foreign_curve)
    _fails(check_ell_engine, "plane m=2 trivial: witness fails its own definition")


def test_check_7_reports_an_invalid_constructed_action(monkeypatch):
    random_action = verification._random_plane_action
    draws = []

    def unpaired_first(rng, half, generator_count):
        # the first draw sends E_1 and E_2 to each other's images while E_1'
        # and E_2' keep theirs, so E_1.E_1' = 1 is not preserved
        action = random_action(rng, half, generator_count)
        draws.append(action)
        if len(draws) > 1:
            return action
        gen = list(action.generators[0])
        gen[0], gen[1] = gen[1], gen[0]
        return GaloisAction(action.degree, (tuple(gen),) + action.generators[1:])

    monkeypatch.setattr(verification, "_random_plane_action", unpaired_first)
    result = check_ell_engine()
    assert not result.passed
    assert result.detail.startswith("trial 0: constructed action invalid: generator 1: curves (1,")
    assert ";" not in result.detail, result.detail


def test_check_8_fails_on_an_extra_root(monkeypatch):
    rational_roots = verification.rational_roots
    monkeypatch.setattr(verification, "rational_roots",
                        lambda p: {**rational_roots(p), Fraction(0): 1})
    _fails(check_sections, "expected {-2, 2}")


def test_check_9_fails_on_wrong_invariants(monkeypatch):
    signature = verification.lattice_signature
    monkeypatch.setattr(verification, "is_unimodular", lambda model: False)
    _fails(check_lattice, "hirzebruch(m=2,n=1): not unimodular")
    monkeypatch.undo()
    monkeypatch.setattr(verification, "lattice_signature",
                        lambda model: (signature(model)[0] + 1, signature(model)[1] - 1))
    _fails(check_lattice, "hirzebruch(m=2,n=1): signature (2, 1)")


def test_witness_check_refuses_each_broken_witness():
    plane = standard_curve_system(build_model(2, 6, PLANE))  # E_1..E_6, then E_1'..E_6'
    trivial = GaloisAction.trivial(12)
    singles = tuple((i,) for i in range(6))
    assert _witness_ok(plane, trivial, EllResult(6, tuple(range(6)), singles))
    # the length differs from ell
    assert not _witness_ok(plane, trivial, EllResult(5, tuple(range(6)), singles))
    # the orbits do not partition the witness
    assert not _witness_ok(plane, trivial, EllResult(6, tuple(range(6)), singles[:5]))
    # E_1 meets E_1'
    assert not _witness_ok(plane, trivial, EllResult(2, (0, 6), ((0,), (6,))))
    # the six-cycle moves E_1 off the witness
    cycle = GaloisAction(12, ((2, 3, 4, 5, 6, 1, 8, 9, 10, 11, 12, 7),))
    assert not _witness_ok(plane, cycle, EllResult(1, (0,), ((0,),)))
    # check 7's Hirzebruch (2,7) system: E_0, the F - E_i, then the E_i, which miss Q
    model = build_model(2, 7, HIRZEBRUCH)
    named = model.distinguished
    curves = [distinguished_e0(model)] + [named["F"] - named[f"E_{i}"] for i in range(1, 8)]
    curves += [named[f"E_{i}"] for i in range(1, 8)]
    system = build_curve_system(model, curves)
    assert system.q_incidence[8] == 0
    assert not _witness_ok(system, GaloisAction.trivial(15), EllResult(1, (8,), ((8,),)))
