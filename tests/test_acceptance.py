"""Acceptance battery: one test per published criterion.

Each criterion is verified by the corresponding self-check from
dpforms.verification, which re-derives the claimed values through an
independent route (search oracle, binomial identity, monomial count,
clause-by-clause verdict recoding, exhaustive ell enumeration).  One
pass/fail line is printed per criterion; stated runtime budgets are
enforced where the criterion gives one.
"""

import time

from dpforms import verification
from dpforms.verification import (
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
    census = verification.brute_force_minus_one_classes
    h0 = verification.h0_anti_plurigenus

    def drop_one_meeting(model, box=None):
        classes = census(model, box)
        q = model.distinguished["Q"]
        k = next(i for i, c in enumerate(classes) if model.intersect(c, q) >= 1)
        return classes[:k] + classes[k + 1:]

    def add_fiber(model, box=None):
        return census(model, box) + (model.distinguished["F"],)

    monkeypatch.setattr(verification, "brute_force_minus_one_classes", drop_one_meeting)
    result = check_plane_census()
    assert not result.passed and "Q-meeting classes, expected" in result.detail

    # F.E_0 = F.Q = 1
    monkeypatch.setattr(verification, "brute_force_minus_one_classes", add_fiber)
    result = check_incidence_law()
    assert not result.passed and "(E.E_0, E.Q) = (1, 1)" in result.detail

    monkeypatch.setattr(verification, "brute_force_minus_one_classes", census)
    monkeypatch.setattr(verification, "h0_anti_plurigenus", lambda m, n, j: h0(m, n, j) + 1)
    result = check_anti_plurigenus()
    assert not result.passed and "h0(-K) != 2 at m=3" in result.detail
