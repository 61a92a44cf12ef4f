"""Curve censuses: closed forms, the search oracle, and its complete box."""

from itertools import product
from math import comb

import pytest

from dpforms import (
    DELTA,
    EXCEPTIONAL,
    FIBER_RESIDUAL,
    PLANE,
    PLANE_DEGREE,
    Q_SECTION,
    HIRZEBRUCH,
    ParameterError,
    SearchBox,
    UnsupportedModelError,
    brute_force_minus_one_classes,
    build_model,
    closed_form_minus_one_classes,
    curves_meeting_q,
    default_search_box,
    delta_class,
    distinguished_e0,
    family_classes,
    is_del_pezzo,
    minus_one_census,
)
from dpforms.curves import _complete_box


def _widened(box, margin):
    return SearchBox(tuple((lo - margin, hi + margin) for lo, hi in box.intervals))


def _is_minus_one(model, c) -> bool:
    mk = model.anticanonical
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


def test_box_of_the_wrong_length_refused():
    model = build_model(2, 6)
    with pytest.raises(ParameterError, match="search box has 3 intervals, model rank is 8"):
        brute_force_minus_one_classes(model, SearchBox(((0, 1),) * 3))


def test_certificate_failure_has_witness():
    # a (-1)-class outside the default window box: the window misses it,
    # the complete census holds it
    model = build_model(2, 7)
    witness = (3, 6, -2, -2, -2, -2, -1, -1, -1)
    assert _is_minus_one(model, model.divisor(witness))
    window = brute_force_minus_one_classes(model, default_search_box(model))
    assert witness not in {c.coeffs for c in window}
    assert witness in {c.coeffs for c in brute_force_minus_one_classes(model)}


def test_complete_census_past_the_closed_form():
    # 126 + 56 + 1: the Q-avoiding, D.Q = 1 and D.Q = 2 (E_0) classes
    model = build_model(2, 7)
    census = brute_force_minus_one_classes(model)
    assert len(census) == 183
    assert all(_is_minus_one(model, c) for c in census)
    q = model.distinguished["Q"]
    assert sum(1 for c in census if model.intersect(c, q) >= 1) == 57


def test_complete_box_holds_every_solution():
    # every K_X^2 > 0 model with m <= 6, in both bases
    models = [build_model(m, n) for m in range(2, 7) for n in range(1, m + 6)
              if is_del_pezzo(m, n)]
    models += [build_model(m, m + 4, PLANE) for m in range(2, 7)]
    for model in models:
        wider = brute_force_minus_one_classes(model, _widened(_complete_box(model), 2))
        assert wider == brute_force_minus_one_classes(model), model.basis_tag


def test_no_complete_census_where_k_squared_is_not_positive():
    for m, n in ((4, 9), (5, 10)):
        with pytest.raises(UnsupportedModelError, match=rf"\(m, n\) = \({m}, {n}\)"):
            brute_force_minus_one_classes(build_model(m, n))
    with pytest.raises(UnsupportedModelError):
        default_search_box(build_model(2, 6, PLANE))


def _to_plane(m, coeffs):
    """The isometry hirzebruch(m, m+4) -> plane(m, m+4): Q -> 2e_0 - e_1 - ... - e_{m+4},
    F -> e_0 - e_1, E_i -> e_0 - e_1 - e_{i+1} (i <= m+3), E_{m+4} -> e_{m+5}."""
    images = [(2,) + (-1,) * (m + 4) + (0,), (1, -1) + (0,) * (m + 4)]
    for i in range(1, m + 4):
        images.append(tuple(1 if j == 0 else -1 if j in (1, i + 1) else 0
                            for j in range(m + 6)))
    images.append((0,) * (m + 5) + (1,))
    return tuple(sum(x * image[j] for x, image in zip(coeffs, images)) for j in range(m + 6))


def test_hirzebruch_and_plane_censuses_agree_at_m_plus_4():
    for m in range(2, 9):
        hirz, plane = build_model(m, m + 4, HIRZEBRUCH), build_model(m, m + 4, PLANE)
        basis = [hirz.basis_class(i) for i in range(hirz.rank)]
        images = [plane.divisor(_to_plane(m, c.coeffs)) for c in basis]
        assert [[plane.intersect(x, y) for y in images] for x in images] == [
            list(row) for row in hirz.gram
        ]
        assert _to_plane(m, hirz.anticanonical.coeffs) == plane.anticanonical.coeffs
        assert _to_plane(m, hirz.distinguished["Q"].coeffs) == plane.distinguished["Q"].coeffs
        mapped = sorted(_to_plane(m, c.coeffs) for c in brute_force_minus_one_classes(hirz))
        assert mapped == [c.coeffs for c in brute_force_minus_one_classes(plane)], m


def test_empty_box_certificate():
    # an empty window finds nothing; the complete census takes no window
    model = build_model(2, 1)
    empty = SearchBox(((1, 0), (1, 0), (1, 0)))
    assert brute_force_minus_one_classes(model, box=empty) == ()
    assert len(brute_force_minus_one_classes(model)) == 2


def test_certify_refuses_an_empty_box():
    # narrowing the default box by 2 leaves it empty, so its window finds
    # nothing; a certified census takes no box and stays complete
    model = build_model(2, 1)
    box = _widened(default_search_box(model), -2)
    assert any(lo > hi for lo, hi in box.intervals)
    assert brute_force_minus_one_classes(model, box=box) == ()
    families = minus_one_census(model)
    assert [fam.label for fam in families] == [EXCEPTIONAL, FIBER_RESIDUAL]
    assert family_classes(families) == brute_force_minus_one_classes(model)
    assert all(lo <= hi for lo, hi in _complete_box(model).intervals)


def test_census_route():
    families = minus_one_census(build_model(3, 4))
    assert [fam.label for fam in families] == [EXCEPTIONAL, FIBER_RESIDUAL, Q_SECTION]
    families = minus_one_census(build_model(2, 7))
    assert [(fam.label, len(fam)) for fam in families] == [("search", 183)]
    # K_X^2 = 0 at (4, 9): the window of the default box
    model = build_model(4, 9)
    families = minus_one_census(model)
    assert [(fam.label, len(fam)) for fam in families] == [("search_window", 820)]
    box = default_search_box(model)
    assert families[0].members == brute_force_minus_one_classes(model, box)


def test_census_route_grid():
    # complete exactly where del Pezzo: the closed form, else the no-box
    # search; elsewhere the window of the default box
    models = [build_model(m, n) for m in range(2, 9) for n in range(1, m + 6)]
    models += [build_model(m, m + 4, PLANE) for m in range(2, 9)]
    for model in models:
        families = minus_one_census(model)
        window = families[0].label == "search_window"
        assert window == (not is_del_pezzo(model.m, model.n)), model.basis_tag
        if families[0].label == "search":
            assert families[0].members == brute_force_minus_one_classes(model)
        elif window:
            box = default_search_box(model)
            assert families[0].members == brute_force_minus_one_classes(model, box)
        else:
            assert families == closed_form_minus_one_classes(model)


def test_meeting_q_matches_certified_search():
    # the product's Q-meeting lists come from the closed form; the certified
    # search stays their oracle (as sets: the plane lists come in census order)
    models = [build_model(m, n) for m in range(2, 9) for n in range(1, m + 4)]
    models += [build_model(m, m + 4, PLANE) for m in range(2, 9)]
    for model in models:
        q = model.distinguished["Q"]
        searched = [c.coeffs for c in brute_force_minus_one_classes(model)
                    if model.intersect(c, q) >= 1]
        assert sorted(c.coeffs for c in curves_meeting_q(model)) == searched, model.basis_tag


def test_window_census_semantics():
    model = build_model(2, 7)
    base = brute_force_minus_one_classes(model, default_search_box(model))
    widened = brute_force_minus_one_classes(model, _widened(default_search_box(model), 1))
    assert len(base) == 134
    assert len(widened) == 176
    assert {c.coeffs for c in base} <= {c.coeffs for c in widened}
    # (m, n): window counts on the default box and on the box widened by 2
    expected = {(3, 8): (339, 683), (4, 9): (820, 2404), (5, 10): (1878, 6798),
                (6, 11): (4137, 4137), (5, 9): (237, 273)}
    for (m, n), counts in expected.items():
        model = build_model(m, n)
        box = default_search_box(model)
        got = tuple(
            len(brute_force_minus_one_classes(model, box=b))
            for b in (box, _widened(box, 2))
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
    anti = dual(model.anticanonical)
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
        census = [c.coeffs for c in brute_force_minus_one_classes(model, box=box)]
        assert census == _scan(model, box)
        assert len(census) == count


def test_boundary_census_is_stable_at_m_plus_4():
    model = build_model(2, 6)
    census = brute_force_minus_one_classes(model)
    assert len(census) == 44
    assert brute_force_minus_one_classes(model, _widened(_complete_box(model), 1)) == census


def test_meeting_q_window():
    # complete at (2, 7), where K_X^2 > 0; the default window at (4, 9)
    for (m, n), count in {(2, 7): 57, (4, 9): 172}.items():
        model = build_model(m, n)
        meeting = curves_meeting_q(model)
        assert len(meeting) == count
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
    assert box.intervals == ((0, 1), (-1, 1))
    assert SearchBox(((0.0, 1), (-1, 1.0))) == box
    # bounds are refused, not truncated: a half bound does not quietly become 0
    for bad in (((0, 2.5),), (("1", 2),), ((0, True),)):
        with pytest.raises(ParameterError, match="search box bound must be an integer"):
            SearchBox(bad)
    for bad in (((0, 1, 2),), (5,), ((0,),), 5):
        with pytest.raises(ParameterError, match=r"^search box intervals must be \(lo, hi\) pairs, got "):
            SearchBox(bad)
