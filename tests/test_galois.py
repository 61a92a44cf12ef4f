"""Curve systems, action validation, and the two ell solvers."""

import gc
import random
import struct
from itertools import combinations
from operator import mul

import pytest

from dpforms import (
    PLANE,
    BasisMismatchError,
    CurveSystem,
    EllResult,
    GaloisAction,
    InvalidActionError,
    ParameterError,
    SystemSizeError,
    ValidationReport,
    brute_force_ell,
    brute_force_minus_one_classes,
    build_curve_system,
    build_model,
    compute_ell,
    curves_meeting_q,
    distinguished_e0,
    family_classes,
    minus_one_census,
    orbit_partition,
    q_point_forced,
    signature_of,
    standard_curve_system,
    validate_action,
)
from dpforms import lattice
from dpforms.lattice import _products
from dpforms.verification import _random_plane_action


def _plane_system(m=2):
    return standard_curve_system(build_model(m, m + 4, PLANE))


def test_standard_plane_system():
    system = _plane_system()
    assert len(system) == 12
    assert system.q_incidence == (1,) * 12
    named = system.model.distinguished
    assert system.curves[0].coeffs == named["E_1"].coeffs
    assert system.curves[6].coeffs == named["E_1'"].coeffs
    assert system.pair_gram[0][6] == 1
    assert system.pair_gram[0][7] == 0
    assert system.pair_gram[0][0] == -1


def test_standard_hirzebruch_system():
    system = standard_curve_system(build_model(3, 4))
    assert len(system) == 4
    assert all(v == 1 for v in system.q_incidence)


def test_build_curve_system_rejects_bad_members():
    model = build_model(2, 6, PLANE)
    with pytest.raises(ParameterError):
        build_curve_system(model, [model.anticanonical])
    e1 = model.distinguished["E_1"]
    with pytest.raises(ParameterError):
        build_curve_system(model, [e1, e1])
    with pytest.raises(ParameterError):
        build_curve_system(model, [])
    # a directly built system is checked too: the rank - 1 cap of compute_ell
    # holds only for (-1)-classes, and twelve copies of F (F^2 = 0) would
    # give the cap, 7, where the exhaustive oracle gives 12
    hirzebruch = build_model(2, 6)
    with pytest.raises(ParameterError, match="curve 1 has self-intersection 0, expected -1"):
        CurveSystem(hirzebruch, (hirzebruch.distinguished["F"],) * 12)


def test_curve_system_refusals_name_the_curve():
    plane = build_model(2, 6, PLANE)
    # -e_1 has square -1 but degree -1; the conic 2e_0 - e_1 - ... - e_5 is a
    # (-1)-class with Q-incidence 4 - 5 = -1
    for coeffs, message in (((0, -1, 0, 0, 0, 0, 0, 0),
                             "curve 2 has anticanonical degree -1, expected 1"),
                            ((2, -1, -1, -1, -1, -1, 0, 0),
                             "curve 2 has negative Q-incidence -1")):
        with pytest.raises(ParameterError, match=message):
            CurveSystem(plane, (plane.distinguished["E_1"], plane.divisor(coeffs)))
    for degree in (0, -3):
        with pytest.raises(ParameterError, match=f"degree must be >= 1, got {degree}"):
            GaloisAction(degree, ())


def test_validate_action_reports_q_incidence():
    # E_1 misses Q and F - E_1 meets it once, so swapping them is refused
    model = build_model(2, 6)
    e1, f = model.distinguished["E_1"], model.distinguished["F"]
    system = build_curve_system(model, [e1, f - e1])
    assert system.q_incidence == (0, 1)
    report = validate_action(system, GaloisAction(2, ((2, 1),)))
    assert report.violations == (
        "generator 1: curve 1 has Q-incidence 0 but its image 2 has 1",
        "generator 1: curve 2 has Q-incidence 1 but its image 1 has 0",
    )


def test_curve_system_refusal_order():
    # every basis first; then curve by curve square, degree, repeat; then Q-incidence
    plane = build_model(2, 6, PLANE)
    e1, k = plane.distinguished["E_1"], plane.anticanonical
    minus_e1 = plane.divisor((0, -1, 0, 0, 0, 0, 0, 0))
    conic = plane.divisor((2, -1, -1, -1, -1, -1, 0, 0))
    foreign = build_model(2, 6).distinguished["E_1"]
    for curves, error, message in (
        ((e1, k, foreign), BasisMismatchError, "class in basis 'hirzebruch"),
        ((e1, k, minus_e1), ParameterError, "curve 2 has self-intersection 2, expected -1"),
        ((e1, e1, k), ParameterError, "curve 2 duplicates an earlier curve"),
        ((e1, conic, minus_e1), ParameterError, "curve 3 has anticanonical degree -1"),
        ((e1, conic, e1), ParameterError, "curve 3 duplicates an earlier curve"),
    ):
        with pytest.raises(error, match=message):
            CurveSystem(plane, curves)


def test_curve_system_finds_a_repeat_among_hash_alike_vectors():
    # the (3,8) window vectors differ in -1/-2 entries, and CPython hashes
    # -1 and -2 alike; a repeat is named at its second occurrence
    model = build_model(3, 8)
    census = list(curves_meeting_q(model))
    for at, copied in ((len(census), 0), (100, 150), (1, 240)):
        curves = census[:at] + [census[copied]] + census[at:]
        later = max(at, copied + (copied >= at)) + 1
        with pytest.raises(ParameterError, match=f"curve {later} duplicates an earlier curve"):
            CurveSystem(model, tuple(curves))


def _pairwise_validation(system, action):
    """`validate_action` as one loop over every generator and pair (i < j),
    the reference for its reports."""
    gram, qinc = system.pair_gram, system.q_incidence
    violations = []
    for k, gen in enumerate(action.generators):
        p = [img - 1 for img in gen]
        for i in range(len(p)):
            if qinc[p[i]] != qinc[i]:
                violations.append(
                    f"generator {k + 1}: curve {i + 1} has Q-incidence {qinc[i]} "
                    f"but its image {p[i] + 1} has {qinc[p[i]]}"
                )
        for i, j in combinations(range(len(p)), 2):
            if gram[p[i]][p[j]] != gram[i][j]:
                violations.append(
                    f"generator {k + 1}: curves ({i + 1},{j + 1}) intersect in {gram[i][j]} "
                    f"but their images ({p[i] + 1},{p[j] + 1}) intersect in {gram[p[i]][p[j]]}"
                )
    return ValidationReport(ok=not violations, violations=tuple(violations))


def test_validate_action_matches_the_pairwise_loop():
    rng = random.Random(19)
    hirzebruch = build_model(2, 6)
    e1, e2, f = (hirzebruch.distinguished[name] for name in ("E_1", "E_2", "F"))
    # E_i <-> F - E_i keeps every pairing and moves Q-incidence 0 to 1
    q_only = build_curve_system(hirzebruch, [e1, e2, f - e1, f - e2])
    q_swap = GaloisAction(4, ((3, 4, 1, 2), (1, 2, 3, 4), (3, 2, 1, 4)))
    report = validate_action(q_only, q_swap)
    assert len(report.violations) == 6
    assert sum("Q-incidence" in v for v in report.violations) == 6
    one = build_curve_system(hirzebruch, [e1])
    cases = [(q_only, q_swap), (one, GaloisAction(1, ((1,), (1,))))]
    plane, window = _plane_system(), standard_curve_system(build_model(3, 8))
    for system, valid in ((plane, lambda: _realizable_plane_action(rng, 6).generators[0]),
                          (window, lambda: _point_action(window, rng).generators[0])):
        n = len(system)
        for _ in range(12):
            gens = []
            for _ in range(rng.randint(1, 3)):
                gen = list(valid())
                kind = rng.randrange(3)
                if kind == 1:  # a valid image list with two images exchanged
                    a, b = rng.sample(range(n), 2)
                    gen[a], gen[b] = gen[b], gen[a]
                elif kind == 2:
                    rng.shuffle(gen)
                gens.append(tuple(gen))
            cases.append((system, GaloisAction(n, tuple(gens))))
    outcomes = set()
    for system, action in cases:
        report = validate_action(system, action)
        assert report == _pairwise_validation(system, action)
        outcomes.add((len(system), report.ok))
    assert outcomes == {(1, True), (4, False), (12, True), (12, False), (241, True), (241, False)}


def test_searches_leave_no_cyclic_garbage():
    # each search frees what it builds by reference counting alone
    system = _plane_system(3)
    census_model = build_model(3, 8)
    gc.collect()
    gc.disable()
    try:
        brute_force_minus_one_classes(build_model(3, 7, PLANE))
        minus_one_census(census_model)
        assert gc.collect() == 0
        compute_ell(system, GaloisAction.trivial(len(system)))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_brute_force_shares_no_mask_with_the_search(monkeypatch):
    system = _plane_system()
    action = GaloisAction.trivial(len(system))
    brute, search = brute_force_ell(system, action), compute_ell(system, action)
    assert brute == search
    # with every curve meeting every other, no two curves are disjoint
    monkeypatch.setattr(CurveSystem, "masks", property(lambda s: ((1 << len(s)) - 1,) * len(s)))
    assert brute_force_ell(system, action) == brute
    assert compute_ell(system, action) != search


def test_action_validation():
    with pytest.raises(ParameterError):
        GaloisAction(3, ((1, 1, 2),))
    with pytest.raises(ParameterError):
        GaloisAction(3, ((1, 2),))
    action = GaloisAction.from_one_based(3, [[2, 3, 1]])
    assert action.generators == ((2, 3, 1),)
    assert GaloisAction.trivial(2).generators == ()
    assert GaloisAction.trivial(2).degree == 2
    # integral floats are read as integers; other values are refused, True included
    assert GaloisAction(2.0, ()) == GaloisAction.trivial(2)
    assert GaloisAction(3, ((2.0, 3, 1),)) == action
    for bad in (2.5, "2", True):
        with pytest.raises(ParameterError, match="must be an integer"):
            GaloisAction(3, ((bad, 3, 1),))
    with pytest.raises(ParameterError, match="must be an integer"):
        GaloisAction(2.5, ())
    system = _plane_system()
    swap = (7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 5, 6)
    floats = GaloisAction(12, ((7.0,) + swap[1:],))
    for solve in (compute_ell, brute_force_ell):
        assert solve(system, floats) == solve(system, GaloisAction(12, (swap,)))


def _union_find_orbits(action):
    parent = list(range(action.degree))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for gen in action.generators:
        for i, img in enumerate(gen):
            a, b = find(i), find(img - 1)
            if a != b:
                parent[b] = a
    groups = {}
    for i in range(action.degree):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for g in sorted(groups.values()))


def test_orbit_partition():
    action = GaloisAction(6, ((2, 1, 4, 3, 5, 6), (1, 2, 3, 4, 6, 5)))
    assert orbit_partition(action) == ((0, 1), (2, 3), (4, 5))
    assert orbit_partition(GaloisAction.trivial(3)) == ((0,), (1,), (2,))
    # seeded random actions, and the benchmark's cycle types on the (5,10) window
    rng = random.Random(308)
    actions = []
    for degree in (1, 2, 3, 5, 8, 13, 40, 97, 308):
        for count in range(4):
            gens = []
            for _ in range(count):
                # a random permutation, or one with few moved points
                moved = rng.sample(range(degree), rng.choice((degree, min(degree, 3))))
                perm = list(range(1, degree + 1))
                for a, b in zip(moved, rng.sample(moved, len(moved))):
                    perm[a] = b + 1
                gens.append(tuple(perm))
            actions.append(GaloisAction(degree, tuple(gens)))
    window = standard_curve_system(build_model(5, 10))
    actions += [_cycle_action(window, rng, cycle_types)
                for cycle_types in ((), ((2,),), ((3,), (2,)))]
    for action in actions:
        assert orbit_partition(action) == _union_find_orbits(action), action.degree


def test_validate_action_reports():
    system = _plane_system()
    ok = validate_action(system, GaloisAction.trivial(12))
    assert ok.ok and ok.violations == ()
    swap_all = GaloisAction(12, ((7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 5, 6),))
    assert validate_action(system, swap_all).ok
    transpose = GaloisAction(12, ((2, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),))
    report = validate_action(system, transpose)
    assert not report.ok
    assert len(report.violations) == 4
    with pytest.raises(ParameterError):
        validate_action(system, GaloisAction.trivial(5))


def test_compute_rejects_invalid_action():
    system = _plane_system()
    bad = GaloisAction(12, ((2, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),))
    with pytest.raises(InvalidActionError) as info:
        compute_ell(system, bad)
    assert info.value.report is not None
    assert not info.value.report.ok


def test_structured_ell_values():
    system = _plane_system()
    trivial = compute_ell(system, GaloisAction.trivial(12))
    assert trivial.ell == 6
    assert trivial.witness == (0, 1, 2, 3, 4, 5)
    assert trivial.witness_orbits == ((0,), (1,), (2,), (3,), (4,), (5,))

    swap = GaloisAction(12, ((7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 5, 6),))
    swapped = compute_ell(system, swap)
    assert swapped.ell == 0 and swapped.witness == ()

    cycle = GaloisAction(12, ((2, 3, 4, 5, 6, 1, 8, 9, 10, 11, 12, 7),))
    cycled = compute_ell(system, cycle)
    assert cycled.ell == 6
    assert cycled.witness_orbits == ((0, 1, 2, 3, 4, 5),)

    half = GaloisAction(12, ((7, 2, 3, 4, 5, 6, 1, 8, 9, 10, 11, 12),))
    assert compute_ell(system, half).ell == 5


def test_structured_hirzebruch_m_plus_5():
    model = build_model(2, 7)
    named = model.distinguished
    curves = [distinguished_e0(model)]
    curves += [named["F"] - named[f"E_{i}"] for i in range(1, 8)]
    curves += [named[f"E_{i}"] for i in range(1, 8)]
    system = build_curve_system(model, curves)
    result = compute_ell(system, GaloisAction.trivial(15))
    assert result.ell == 8
    assert result.witness == (0, 1, 2, 3, 4, 5, 6, 7)
    assert brute_force_ell(system, GaloisAction.trivial(15)).ell == 8


def test_curves_off_q_never_count():
    # E_1..E_7 miss Q and are pairwise disjoint, so they would outweigh
    # F - E_1, the one curve meeting Q, if they were admissible
    model = build_model(2, 7)
    named = model.distinguished
    system = build_curve_system(
        model, [named[f"E_{i}"] for i in range(1, 8)] + [named["F"] - named["E_1"]])
    for action in (GaloisAction.trivial(8), GaloisAction(8, ((1, 3, 2, 4, 5, 6, 7, 8),))):
        result = compute_ell(system, action)
        assert result == brute_force_ell(system, action)
        assert result.ell == 1 and result.witness == (7,)


def test_window_system_reaches_theoretical_maximum():
    # the complete Q-meeting systems at n = m+5, m = 2, 3 reach ell = m+6
    for m, count in ((2, 57), (3, 241)):
        system = standard_curve_system(build_model(m, m + 5))
        assert len(system) == count
        assert compute_ell(system, GaloisAction.trivial(count)).ell == m + 6


def test_standard_system_follows_census_order():
    # plane: E_1..E_{m+4} then E_1'..E_{m+4}'; Hirzebruch: the sorted census
    for m in range(2, 9):
        model = build_model(m, m + 4, PLANE)
        named = model.distinguished
        want = [named[f"E_{i}"] for i in range(1, m + 5)]
        want += [named[f"E_{i}'"] for i in range(1, m + 5)]
        assert standard_curve_system(model).curves == tuple(want), m
        for n in range(1, m + 6):
            model = build_model(m, n)
            q = model.distinguished["Q"]
            census = family_classes(minus_one_census(model))
            want = tuple(c for c in census if model.intersect(c, q) >= 1)
            assert standard_curve_system(model).curves == want, model.basis_tag


def test_brute_force_limit():
    system = standard_curve_system(build_model(2, 7))
    with pytest.raises(SystemSizeError):
        brute_force_ell(system, GaloisAction.trivial(50))


def test_solvers_agree_randomized():
    rng = random.Random(1729)
    for m in (2, 3):
        system = _plane_system(m)
        for _ in range(15):
            action = _random_plane_action(rng, m + 4, rng.randint(1, 3))
            assert validate_action(system, action).ok
            fast = compute_ell(system, action)
            slow = brute_force_ell(system, action)
            assert fast.ell == slow.ell


def test_random_plane_actions_flip_an_even_number_of_pairs():
    # a lattice isometry fixing K and Q swaps E_i <-> E_i' in an even number of slots
    for seed in range(40):
        rng = random.Random(seed)
        for half in (6, 7, 8):
            for gen in _random_plane_action(rng, half, 3).generators:
                flipped = sum((gen[i] - 1 >= half) for i in range(half))
                assert flipped % 2 == 0, (seed, half, gen)


def test_ell_monotone_under_coarsening():
    rng = random.Random(42)
    system = _plane_system()
    trivial_ell = compute_ell(system, GaloisAction.trivial(12)).ell
    for _ in range(10):
        one = _random_plane_action(rng, 6, 1)
        two = GaloisAction(12, one.generators + _random_plane_action(rng, 6, 1).generators)
        assert compute_ell(system, two).ell <= compute_ell(system, one).ell <= trivial_ell


def _double_sum(gram, v, w):
    return sum(v[a] * gram[a][b] * w[b] for a in range(len(v)) for b in range(len(w)))


def test_pair_gram_is_the_double_sum():
    rng = random.Random(11)
    models = [build_model(3, n) for n in (2, 5, 7, 8)]
    models += [build_model(m, m + 4, PLANE) for m in (2, 5)]
    for model in models:
        census = family_classes(minus_one_census(model))
        curves = rng.sample(census, min(len(census), 40))
        system = build_curve_system(model, curves)
        gram, q = model.gram, model.distinguished["Q"].coeffs
        assert system.pair_gram == tuple(
            tuple(_double_sum(gram, a.coeffs, b.coeffs) for b in curves) for a in curves
        ), model.basis_tag
        assert system.q_incidence == tuple(_double_sum(gram, c.coeffs, q) for c in curves)


def _dot_table(lefts, rights):
    return tuple(tuple(sum(map(mul, d, w)) for w in rights) for d in lefts)


def _nonzero_masks(table):
    return tuple(sum(1 << j for j, x in enumerate(row) if x) for row in table)


def test_products_are_the_dot_products(monkeypatch):
    # the largest |entry| lands on the top of a W-byte signed digit (W = 1,
    # 2, 4, 8) or one past it, which takes the next width or the plain sums;
    # a coordinate every left row zeroes holds entries up to the bound, or up
    # to 2^70, which takes the plain sums
    codes = []  # the word code of every column `_products` packs; none for W = 0
    monkeypatch.setattr(lattice, "pack", lambda fmt, *xs: codes.append(fmt[-1]) or
                        struct.pack(fmt, *xs))

    def checked(lefts, rights):
        """The table of `_products`, checked with its masks, and the W it packed at."""
        codes.clear()
        table, masks = _products(lefts, rights)
        assert table == _dot_table(lefts, rights)
        assert masks == _nonzero_masks(table)
        assert len(set(codes)) <= 1
        return table, struct.calcsize(codes[0]) if codes else 0

    rng = random.Random(12)
    widths = set()
    for bits in (7, 15, 31, 63):
        for bound in ((1 << bits) - 1, 1 << bits):
            for _ in range(10):
                rank = rng.randint(1, 6)
                d = [rng.choice((-1, 1)) for _ in range(rank)] + [0]
                cuts = sorted(rng.randint(0, bound) for _ in range(rank - 1))
                tops = [b - a for a, b in zip([0] + cuts, cuts + [bound])]
                spare = rng.choice((bound, 1 << 70))
                edge = [x * t for x, t in zip(d, tops)] + [rng.randint(-spare, spare)]
                rights = [edge, [-x for x in edge]]
                rights += [[rng.randint(-t, t) for t in tops] + [rng.randint(-spare, spare)]
                           for _ in range(rng.randint(0, 8))]
                rng.shuffle(rights)
                lefts = [d] + [[x * rng.choice((-1, 0, 1)) for x in d]
                               for _ in range(rng.randint(0, 5))]
                rng.shuffle(lefts)
                table, width = checked(lefts, rights)
                assert max(abs(x) for row in table for x in row) == bound, (bits, bound)
                widths.add(width)
    assert widths == {0, 1, 2, 4, 8}
    # entries whose one nonzero byte is byte k of their word, for each k
    for width in (1, 2, 4, 8):
        rights = [[0], [(1 << (8 * width - 1)) - 1]] + [[1 << (8 * k)] for k in range(width)]
        assert checked([[1]], rights)[1] == width


def test_pair_gram_on_the_window_systems():
    for m, count in ((5, 308), (6, 529)):
        model = build_model(m, m + 5)
        system = standard_curve_system(model)
        assert len(system) == count
        duals = [model.dual(c) for c in system.curves]
        assert system.pair_gram == _dot_table(duals, [c.coeffs for c in system.curves])
        assert system.masks == _nonzero_masks(system.pair_gram)
        assert all(mask >> i & 1 for i, mask in enumerate(system.masks))


def test_pair_gram_refuses_a_foreign_curve():
    plane, hirzebruch = build_model(2, 6, PLANE), build_model(2, 6)
    curves = (plane.distinguished["E_1"], hirzebruch.distinguished["E_1"])
    with pytest.raises(BasisMismatchError):
        CurveSystem(plane, curves).pair_gram
    with pytest.raises(BasisMismatchError):
        CurveSystem(plane, curves).q_incidence


def _reference_ell(system, action):
    """compute_ell's search order, prune test and tie rule on plain lists:
    orbit conflicts by any() over the cross pairs, the bound summed afresh."""
    gram, qinc = system.pair_gram, system.q_incidence
    admissible = [o for o in orbit_partition(action)
                  if all(qinc[i] >= 1 for i in o)
                  and all(gram[i][j] == 0 for i, j in combinations(o, 2))]
    cands = sorted(admissible, key=lambda o: (-len(o), o))
    compat = [[not any(gram[i][j] for i in a for j in b) for b in cands] for a in cands]
    best = [0, ()]

    def walk(avail, weight, chosen):
        if weight > best[0]:
            best[:] = [weight, chosen]
        remaining = sum(len(cands[i]) for i in avail)
        for pos, i in enumerate(avail):
            if weight + remaining <= best[0]:
                return
            walk([j for j in avail[pos + 1:] if compat[i][j]], weight + len(cands[i]),
                 chosen + (i,))
            remaining -= len(cands[i])

    walk(list(range(len(cands))), 0, ())
    picked = tuple(cands[i] for i in sorted(best[1], key=lambda i: cands[i]))
    return EllResult(best[0], tuple(sorted(i for o in picked for i in o)), picked)


def _point_action(system, rng):
    """Generators permuting some of the blown-up points E_1..E_n."""
    index = {c.coeffs: k for k, c in enumerate(system.curves)}
    n = system.model.n
    gens = []
    for _ in range(rng.randint(1, 2)):
        moved = rng.sample(range(2, n + 2), rng.randint(2, n))
        target = dict(zip(moved, rng.sample(moved, len(moved))))
        gens.append(tuple(
            index[tuple(c.coeffs[target.get(i, i)] for i in range(len(c.coeffs)))] + 1
            for c in system.curves
        ))
    return GaloisAction(len(system), tuple(gens))


def test_compute_ell_matches_the_reference_search():
    rng = random.Random(2024)
    for m, count in ((2, 57), (3, 241)):
        system = standard_curve_system(build_model(m, m + 5))
        assert len(system) == count
        for _ in range(8):
            action = _point_action(system, rng)
            assert validate_action(system, action).ok
            assert compute_ell(system, action) == _reference_ell(system, action)


def _cycle_action(system, rng, cycle_types):
    """One generator per cycle type, each cycling disjoint blown-up points E_i."""
    index = {c.coeffs: k for k, c in enumerate(system.curves)}
    points = rng.sample(range(system.model.n), system.model.n)
    gens = []
    for cycles in cycle_types:
        source = list(range(system.model.n))
        for length in cycles:
            cycle, points = points[:length], points[length:]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                source[b] = a
        gens.append(tuple(index[c.coeffs[:2] + tuple(c.coeffs[2 + s] for s in source)] + 1
                          for c in system.curves))
    return GaloisAction(len(system), tuple(gens))


def test_compute_ell_matches_the_reference_on_the_five_ten_window():
    # the cycle types of the benchmark's ell jobs: none, a 2-cycle, a
    # 3-cycle and a disjoint 2-cycle
    system = standard_curve_system(build_model(5, 10))
    assert len(system) == 308
    rng = random.Random(510)
    for cycle_types in ((), ((2,),), ((3,), (2,))):
        action = _cycle_action(system, rng, cycle_types)
        assert validate_action(system, action).ok
        result = compute_ell(system, action)
        assert result.ell == system.model.rank - 1
        assert result == _reference_ell(system, action), cycle_types


def test_q_point_forced():
    assert q_point_forced(3)
    assert q_point_forced(5)
    assert not q_point_forced(2)
    assert not q_point_forced(6)


def _realizable_plane_action(rng, half):
    """One generator: permute the pair slots and flip an even number of them,
    so that an integral isometry fixing K and Q induces it."""
    sigma = rng.sample(range(half), half)
    flips = [rng.random() < 0.5 for _ in range(half)]
    flips[0] ^= sum(flips) % 2 == 1
    image = [0] * (2 * half)
    for i, (s, flip) in enumerate(zip(sigma, flips)):
        image[i], image[i + half] = (s + half, s) if flip else (s, s + half)
    return GaloisAction(2 * half, (tuple(i + 1 for i in image),))


def test_compute_ell_matches_the_reference_where_the_cap_binds():
    # ell reaches rank - 1 on the (4,9) window, so the cap ends the search
    system = standard_curve_system(build_model(4, 9))
    assert len(system) == 172
    action = GaloisAction.trivial(172)
    result = compute_ell(system, action)
    assert result.ell == system.model.rank - 1 == 10
    assert result == _reference_ell(system, action)


def _pair_swap(half, flipped):
    """Swap E_i <-> E_i' in the first `flipped` pair slots (an even number):
    each swapped pair is one orbit whose two members meet."""
    image = [i + half if i < flipped else i for i in range(half)]
    image += [i if i < flipped else i + half for i in range(half)]
    return GaloisAction(2 * half, (tuple(i + 1 for i in image),))


def test_compute_ell_matches_the_reference_where_the_cap_does_not_bind():
    # plane (m, m+4): ell <= m+4 < rank - 1 = m+5, so the full search runs
    for m in range(2, 6):
        system = _plane_system(m)
        half = m + 4
        # the README swap, on an even number of pairs
        swap = _pair_swap(half, half - half % 2)
        for action in (GaloisAction.trivial(2 * half), swap):
            result = compute_ell(system, action)
            assert result.ell < system.model.rank - 1, m
            assert result == _reference_ell(system, action), m


def test_compute_ell_matches_brute_force_on_small_plane_systems():
    # every plane system with at most BRUTE_FORCE_LIMIT curves; the oracle
    # exhausts 2^orbits unions, so the trivial action runs up to 20 curves
    # (m <= 6) and the random actions keep at most 16 orbits
    rng = random.Random(31)
    for m in range(2, 9):
        system = _plane_system(m)
        assert len(system) <= 24
        actions = [GaloisAction.trivial(len(system))] if len(system) <= 20 else []
        while len(actions) < 5:
            action = _realizable_plane_action(rng, m + 4)
            if len(orbit_partition(action)) <= 16:
                actions.append(action)
        for action in actions:
            assert compute_ell(system, action) == brute_force_ell(system, action), m


def _literal_oracle(system, action):
    """The definition of ell read literally, on lists: every union of orbits
    in the order of its orbit bitmask, each member checked against Q and each
    pair of members against pair_gram, the first largest kept."""
    orbits = orbit_partition(action)
    gram = system.pair_gram
    qinc = system.q_incidence
    best = EllResult(ell=0, witness=(), witness_orbits=())
    for mask in range(1, 1 << len(orbits)):
        chosen = [orb for t, orb in enumerate(orbits) if mask >> t & 1]
        members = sorted(i for orb in chosen for i in orb)
        if any(qinc[i] < 1 for i in members):
            continue
        if any(gram[i][j] != 0 for i, j in combinations(members, 2)):
            continue
        if len(members) > best.ell:
            best = EllResult(
                ell=len(members), witness=tuple(members), witness_orbits=tuple(chosen)
            )
    return best


def test_brute_force_is_the_literal_definition():
    cases = []
    rng = random.Random(77)
    for m in range(2, 6):
        system, half = _plane_system(m), m + 4
        actions = [_pair_swap(half, half - half % 2), _pair_swap(half, half - half % 2 - 2)]
        while len(actions) < 5:
            action = _realizable_plane_action(rng, half)
            if len(orbit_partition(action)) <= 10:
                actions.append(action)
        cases += [(system, action) for action in actions]
    # the E_i have Q-incidence 0, so the optimum of 8 leaves them out
    model = build_model(2, 7)
    named = model.distinguished
    curves = [distinguished_e0(model)]
    curves += [named["F"] - named[f"E_{i}"] for i in range(1, 8)]
    curves += [named[f"E_{i}"] for i in range(1, 8)]
    cases.append((build_curve_system(model, curves), GaloisAction.trivial(15)))
    # the whole (2,4) census: 12 curves, 8 of them off Q
    model = build_model(2, 4)
    census = build_curve_system(model, family_classes(minus_one_census(model)))
    assert census.q_incidence.count(0) == 8
    cases += [(census, GaloisAction.trivial(12))]
    cases += [(census, _point_action(census, rng)) for _ in range(3)]
    for system, action in cases:
        assert validate_action(system, action).ok
        assert brute_force_ell(system, action) == _literal_oracle(system, action), action
    # at m = 2 all six pairs swap, so no orbit is admissible
    assert brute_force_ell(*cases[0]).ell == 0
    assert [brute_force_ell(*c).ell for c in cases[-5:]] == [8, 4, 4, 4, 4]


def test_six_eleven_window_reaches_the_cap():
    system = standard_curve_system(build_model(6, 11))
    assert len(system) == 529
    result = compute_ell(system, GaloisAction.trivial(529))
    assert result.ell == system.model.rank - 1 == 12
    assert result.witness == tuple(range(11)) + (66,)


def test_picard_lattice_is_hyperbolic():
    # the cap in compute_ell rests on signature (1, rank - 1)
    for m in range(2, 13):
        models = [build_model(m, n) for n in range(1, m + 6)]
        models.append(build_model(m, m + 4, PLANE))
        for model in models:
            assert signature_of(model.gram) == (1, model.rank - 1), model.basis_tag
