"""Curve censuses: closed forms, the search oracle, and its certificate."""

from itertools import product
from math import comb

import pytest

from dpforms import (
    DELTA,
    E_ZERO,
    EXCEPTIONAL,
    FIBER_RESIDUAL,
    PLANE,
    PLANE_DEGREE,
    Q_SECTION,
    BoxTooSmallError,
    SearchBox,
    UnsupportedModelError,
    anticanonical_class,
    brute_force_minus_one_classes,
    build_model,
    closed_form_minus_one_classes,
    curves_meeting_q,
    default_search_box,
    delta_class,
    distinguished_e0,
    family_classes,
    minus_one_census,
)


def _is_minus_one(model, c) -> bool:
    mk = anticanonical_class(model)
    return model.intersect(c, c) == -1 and model.intersect(c, mk) == 1


def test_small_census_counts():
    expected = {(2, 1): 2, (2, 5): 21, (3, 4): 9, (3, 6): 28, (4, 7): 36}
    for (m, n), count in expected.items():
        model = build_model(m, n)
        census = brute_force_minus_one_classes(model)
        assert len(census) == count
        assert all(_is_minus_one(model, c) for c in census)


def test_closed_form_families_3_4():
    model = build_model(3, 4)
    families = closed_form_minus_one_classes(model)
    by_label = {fam.label: fam for fam in families}
    assert set(by_label) == {EXCEPTIONAL, FIBER_RESIDUAL, Q_SECTION}
    assert len(by_label[EXCEPTIONAL]) == 4
    assert len(by_label[FIBER_RESIDUAL]) == 4
    assert by_label[Q_SECTION].members[0].coeffs == (1, 3, -1, -1, -1, -1)
    assert [c.coeffs for c in family_classes(families)] == [
        c.coeffs for c in brute_force_minus_one_classes(model)
    ]


def test_delta_appears_exactly_at_m_plus_3():
    model = build_model(2, 5)
    families = closed_form_minus_one_classes(model)
    by_label = {fam.label: fam for fam in families}
    assert by_label[DELTA].members[0].coeffs == delta_class(model).coeffs
    assert delta_class(model).coeffs == (1, 3, -1, -1, -1, -1, -1)
    shallow = closed_form_minus_one_classes(build_model(2, 4))
    assert DELTA not in {fam.label for fam in shallow}


def test_q_section_threshold():
    labels = {fam.label for fam in closed_form_minus_one_classes(build_model(3, 3))}
    assert Q_SECTION not in labels
    labels = {fam.label for fam in closed_form_minus_one_classes(build_model(3, 4))}
    assert Q_SECTION in labels


def test_plane_census_m2():
    model = build_model(2, 6, PLANE)
    meeting = curves_meeting_q(model)
    assert len(meeting) == 12
    census = brute_force_minus_one_classes(model)
    assert len(census) == 44
    q = model.distinguished["Q"]
    avoiding = [c for c in census if model.intersect(c, q) == 0]
    assert len(avoiding) == 32
    assert sum(comb(6, 2 * d) for d in range(4)) == 32
    degrees = sorted({c.coeffs[0] for c in avoiding})
    assert degrees == [0, 1, 2, 3]
    for c in avoiding:
        d = c.coeffs[0]
        assert c.coeffs[7] == -(d - 1)
        assert list(c.coeffs[1:7]).count(-1) == 2 * d


def test_plane_closed_form_matches_search():
    for m in (2, 3):
        model = build_model(m, m + 4, PLANE)
        closed = [c.coeffs for c in family_classes(closed_form_minus_one_classes(model))]
        assert closed == [c.coeffs for c in brute_force_minus_one_classes(model)]


def test_plane_degree_families_labeled():
    model = build_model(3, 7, PLANE)
    families = closed_form_minus_one_classes(model)
    degree_counts = {fam.degree: len(fam) for fam in families if fam.label == PLANE_DEGREE}
    assert degree_counts == {0: 1, 1: comb(7, 2), 2: comb(7, 4), 3: comb(7, 6)}


def test_closed_form_unsupported_past_m_plus_3():
    with pytest.raises(UnsupportedModelError):
        closed_form_minus_one_classes(build_model(2, 6))


def test_custom_box_census():
    model = build_model(3, 4)
    box = SearchBox(((0, 2), (0, 8), (-2, 2), (-2, 2), (-2, 2), (-2, 2)))
    census = brute_force_minus_one_classes(model, box=box)
    assert len(census) == 9


def test_certificate_failure_has_witness():
    model = build_model(2, 7)
    with pytest.raises(BoxTooSmallError) as info:
        brute_force_minus_one_classes(model, certify=True)
    witness = info.value.witness
    assert witness is not None
    assert _is_minus_one(model, witness)
    assert witness.coeffs == (3, 6, -2, -2, -2, -2, -1, -1, -1)


def test_empty_box_certificate():
    model = build_model(2, 1)
    empty = SearchBox(((1, 0), (1, 0), (1, 0)))
    assert brute_force_minus_one_classes(model, box=empty, certify=False) == ()
    with pytest.raises(BoxTooSmallError):
        brute_force_minus_one_classes(model, box=empty, certify=True)


def test_certify_refuses_an_empty_box():
    # enlarging this box by 1 leaves it empty, so the search finds nothing
    # outside it; an empty box still certifies nothing
    model = build_model(2, 1)
    box = default_search_box(model).enlarged(-2)
    assert box.is_empty
    assert brute_force_minus_one_classes(model, box=box, certify=False) == ()
    with pytest.raises(BoxTooSmallError) as info:
        brute_force_minus_one_classes(model, box=box, certify=True)
    assert info.value.witness is None


def test_census_route():
    families, certified = minus_one_census(build_model(3, 4))
    assert certified
    assert [fam.label for fam in families] == [EXCEPTIONAL, FIBER_RESIDUAL, Q_SECTION]
    families, certified = minus_one_census(build_model(2, 7))
    assert not certified
    assert [(fam.label, len(fam)) for fam in families] == [("search_window", 134)]
    model = build_model(2, 7)
    wide = default_search_box(model).enlarged(1)
    assert minus_one_census(model, wide)[0][0].members == brute_force_minus_one_classes(
        model, box=wide, certify=False
    )


def test_meeting_q_matches_certified_search():
    # the product's Q-meeting lists come from the closed form; the certified
    # search stays their oracle
    models = [build_model(m, n) for m in range(2, 9) for n in range(1, m + 4)]
    models += [build_model(m, m + 4, PLANE) for m in range(2, 9)]
    for model in models:
        q = model.distinguished["Q"]
        searched = [c.coeffs for c in brute_force_minus_one_classes(model)
                    if model.intersect(c, q) >= 1]
        assert [c.coeffs for c in curves_meeting_q(model)] == searched, model.basis_tag


def test_window_census_semantics():
    model = build_model(2, 7)
    base = brute_force_minus_one_classes(model, certify=False)
    widened = brute_force_minus_one_classes(
        model, box=default_search_box(model).enlarged(1), certify=False
    )
    assert len(base) == 134
    assert len(widened) == 176
    assert {c.coeffs for c in base} <= {c.coeffs for c in widened}
    # (m, n): window counts on the default box and on the box enlarged by 2
    expected = {(3, 8): (339, 683), (4, 9): (820, 2404), (5, 10): (1878, 6798),
                (6, 11): (4137, 4137), (5, 9): (237, 273)}
    for (m, n), counts in expected.items():
        model = build_model(m, n)
        box = default_search_box(model)
        got = tuple(
            len(brute_force_minus_one_classes(model, box=b, certify=False))
            for b in (box, box.enlarged(2))
        )
        assert got == counts, (m, n)


def _scan(model, box):
    """The (-1)-classes of the box straight from the definition, by exhaustive scan."""
    def dual(c):
        return [sum(g * x for g, x in zip(row, c.coeffs)) for row in model.gram]

    named = model.distinguished
    if model.kind == PLANE:
        effective = [named[f"e_{j}"] for j in range(model.rank)] + [named["Q"]]
    else:
        effective = [named["Q"], named["F"]] + [named[f"E_{i}"] for i in range(1, model.n + 1)]
        if model.n <= model.m + 3:
            effective.append(delta_class(model))
        if model.n == model.m + 5:
            effective.append(distinguished_e0(model))
    anti = dual(anticanonical_class(model))
    tests = [(c.coeffs, dual(c)) for c in effective]
    out = []
    for v in product(*(range(lo, hi + 1) for lo, hi in box.intervals)):
        if sum(map(int.__mul__, v, anti)) != 1:
            continue
        if any(sum(map(int.__mul__, v, u)) < 0 and v != c for c, u in tests):
            continue
        if model.intersect(model.divisor(v), model.divisor(v)) == -1:
            out.append(v)
    return out


def test_census_matches_exhaustive_scan():
    # non-uniform boxes, with room for positive entries on some coordinates
    cases = [
        (build_model(3, 4), ((0, 1), (-1, 4), (-2, 1), (-1, 0), (-1, 2), (-3, 0)), 7),
        (build_model(2, 6, PLANE),
         ((0, 2), (-1, 1), (-2, 0), (-1, 1), (0, 1), (-2, 1), (-1, 0), (-2, 2)), 25),
        (build_model(4, 8, PLANE),
         ((-1, 3), (-1, 0), (-2, 0), (-1, 1), (-1, 0), (-2, 0), (-1, 0), (-1, 1), (-1, 0),
          (-2, 1)), 137),
    ]
    for model, intervals, count in cases:
        box = SearchBox(intervals)
        census = [c.coeffs for c in brute_force_minus_one_classes(model, box=box, certify=False)]
        assert census == _scan(model, box)
        assert len(census) == count


def test_boundary_census_is_stable_at_m_plus_4():
    census = brute_force_minus_one_classes(build_model(2, 6), certify=True)
    assert len(census) == 44


def test_meeting_q_window():
    model = build_model(2, 7)
    meeting = curves_meeting_q(model)
    assert len(meeting) == 50
    q = model.distinguished["Q"]
    assert all(model.intersect(c, q) >= 1 for c in meeting)
    e0 = distinguished_e0(model)
    assert e0.coeffs in {c.coeffs for c in meeting}
    assert model.intersect(e0, q) == 2


def test_e0_only_at_m_plus_5():
    with pytest.raises(UnsupportedModelError):
        distinguished_e0(build_model(2, 6))
    with pytest.raises(UnsupportedModelError):
        delta_class(build_model(2, 6))


def test_search_box_geometry():
    box = SearchBox(((0, 1), (-1, 1)))
    assert not box.is_empty
    grown = box.enlarged(2)
    assert grown.intervals == ((-2, 3), (-3, 3))
    assert SearchBox(((2, 1),)).is_empty
