"""Self-verification battery.

Nine checks re-derive the package's key values through independent routes:
closed-form curve families against the certified coefficient search, census
counts against binomial identities, anti-plurigenus tables against monomial
counts of the anticanonical embedding and of the weighted plane P(1, 1, m),
the verdict table against its clause-by-clause restatement, the
branch-and-bound ell solver against exhaustive enumeration, and the exact
section analysis against hand-checked values.  The command line exposes the
battery as `verify`; the test suite runs the same functions.

Everything here is deterministic: randomized comparisons draw from a fixed
seed, so repeated runs produce identical output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul

from .curves import (
    PLANE_DEGREE,
    _solve,
    closed_form_minus_one_classes,
    default_search_box,
    distinguished_e0,
    family_classes,
)
from .errors import InfeasibleEllError, InternalInvariantError
from .galois import (
    CurveSystem,
    EllResult,
    GaloisAction,
    _brute_ell,
    _ell,
    build_curve_system,
    compute_ell,
    standard_curve_system,
    validate_action,
)
from .lattice import (
    HIRZEBRUCH,
    PLANE,
    _products,
    build_model,
    is_del_pezzo,
    is_unimodular,
    k_squared_singular,
    lattice_signature,
)
from .riemann_roch import embedding_descriptor, h0_anti_plurigenus
from .sections import binary_form, ci_split_polynomial, line_census, rational_roots
from .verdicts import TriState, classify, feasible_ell


@dataclass(frozen=True)
class CheckResult:
    number: int
    tag: str
    title: str
    passed: bool
    detail: str


def _result(number: int, tag: str, title: str, problems: list[str], checked: int) -> CheckResult:
    if problems:
        shown = "; ".join(problems[:3])
        if len(problems) > 3:
            shown += f" (+{len(problems) - 3} more)"
        return CheckResult(number, tag, title, False, shown)
    return CheckResult(number, tag, title, True, f"{checked} comparisons")


def check_census_equivalence() -> CheckResult:
    """Closed-form families equal the certified coefficient search, m in 2..5, n up to m+3."""
    problems: list[str] = []
    checked = 0
    for m in range(2, 6):
        for n in range(1, m + 4):
            model = build_model(m, n, HIRZEBRUCH)
            closed = [c.coeffs for c in family_classes(closed_form_minus_one_classes(model))]
            brute = _solve(model)
            checked += 1
            if closed != brute:
                problems.append(
                    f"(m={m}, n={n}): closed form has {len(closed)} classes, search has {len(brute)}"
                )
    return _result(1, "lem:middle-curves", "curve census: closed form equals certified search",
                   problems, checked)


def check_plane_census() -> CheckResult:
    """Plane-basis counts: 2m+8 Q-meeting classes with the delta pairing, binomial Q-avoiding census."""
    problems: list[str] = []
    checked = 0
    for m in range(2, 7):
        model = build_model(m, m + 4, PLANE)
        named = model.distinguished
        q = named["Q"]
        e = [named[f"E_{i}"] for i in range(1, m + 5)]
        ep = [named[f"E_{i}'"] for i in range(1, m + 5)]
        census = _solve(model)
        # one row each for Q, E_1..E_{m+4}, E_1'..E_{m+4}': its pairings with the census
        table = _products([model.dual(w) for w in [q, *e, *ep]], census)[0]
        q_row, e_rows, ep_rows = table[0], table[1 : m + 5], table[m + 5 :]
        meeting = [c for c, x in zip(census, q_row) if x >= 1]
        if len(meeting) != 2 * m + 8:
            problems.append(f"m={m}: {len(meeting)} Q-meeting classes, expected {2 * m + 8}")
        meeting_set = set(meeting)
        cross = _products([model.dual(x) for x in e], [x.coeffs for x in ep])[0]
        for i in range(m + 4):
            if e[i].coeffs not in meeting_set or ep[i].coeffs not in meeting_set:
                problems.append(f"m={m}: distinguished pair {i + 1} missing from census")
            for j in range(m + 4):
                want = 1 if i == j else 0
                if cross[i][j] != want:
                    problems.append(f"m={m}: E_{i + 1}.E_{j + 1}' != {want}")
                checked += 1
        avoiding = [k for k, x in enumerate(q_row) if x == 0]
        closed_avoiding = [
            c for fam in closed_form_minus_one_classes(model) if fam.label == PLANE_DEGREE
            for c in fam.members
        ]
        if sorted(census[k] for k in avoiding) != sorted(c.coeffs for c in closed_avoiding):
            problems.append(f"m={m}: Q-avoiding search disagrees with closed form")
        expected = sum(comb(m + 4, 2 * d) for d in range(m // 2 + 3))
        if len(avoiding) != expected:
            problems.append(f"m={m}: {len(avoiding)} Q-avoiding classes, expected {expected}")
        checked += 1
        for k in avoiding:
            c = census[k]
            d = c[0]
            middles = c[1 : m + 5]
            if c[m + 5] != -(d - 1):
                problems.append(f"m={m}: class {c} violates the last-coefficient law")
            if sorted(set(middles) - {0, -1}) or middles.count(-1) != 2 * d:
                problems.append(f"m={m}: class {c} is not a 2d-subset class")
            for i in range(m + 4):
                if e_rows[i][k] + ep_rows[i][k] != 1:
                    problems.append(f"m={m}: class {c} breaks E.(E_i + E_i') = 1")
            checked += 1
    return _result(2, "lem:(-1)curves", "plane-basis census: pairing law and binomial counts",
                   problems, checked)


def check_incidence_law() -> CheckResult:
    """At n = m+5 every class except E_0 hits exactly one of E_0, Q; and -K = Q + E_0."""
    problems: list[str] = []
    checked = 0
    for m in (2, 3, 4):
        model = build_model(m, m + 5, HIRZEBRUCH)
        coeffs = _solve(model, default_search_box(model))
        e0 = distinguished_e0(model)
        q = model.distinguished["Q"]
        if not (model.anticanonical - q - e0).is_zero():
            problems.append(f"m={m}: -K - Q - E_0 is nonzero")
        # a list scans by equality: a set of these vectors would hash many alike
        if e0.coeffs not in coeffs:
            problems.append(f"m={m}: E_0 missing from the census window")
        e0_row, q_row = model.dual(e0), model.dual(q)
        for c in coeffs:
            if c == e0.coeffs:
                continue
            checked += 1
            pair = (sum(map(mul, e0_row, c)), sum(map(mul, q_row, c)))
            if pair not in ((1, 0), (0, 1)):
                problems.append(f"m={m}: class {c} has (E.E_0, E.Q) = {pair}")
    return _result(3, "lem:e0", "n = m+5 incidence law against E_0", problems, checked)


def weighted_monomial_count(weights: tuple[int, ...], degree: int) -> int:
    """Number of monomials of the given weighted degree."""
    if degree < 0:
        return 0
    ways = [0] * (degree + 1)
    ways[0] = 1
    for w in weights:
        for k in range(w, degree + 1):
            ways[k] += ways[k - w]
    return ways[degree]


def embedded_h0(m: int, j: int) -> int:
    """h^0(-jK) computed from the anticanonical model, independently of Riemann-Roch.

    Hypersurface of degree d: count(j) - count(j - d).  Complete intersection
    of degrees (d1, d2): count(j) - count(j - d1) - count(j - d2)
    + count(j - d1 - d2).
    """
    desc = embedding_descriptor(m)

    def count(t: int) -> int:
        return weighted_monomial_count(desc.weights, t)

    if len(desc.degrees) == 1:
        return count(j) - count(j - desc.degrees[0])
    d1, d2 = desc.degrees
    return count(j) - count(j - d1) - count(j - d2) + count(j - d1 - d2)


def check_anti_plurigenus() -> CheckResult:
    """Anti-plurigenus tables, cross-checked cell by cell against monomial counts.

    The three table cells where the correction residue vanishes (m=2 at
    j in {2, 4} and m=4 at j=6) take the t=0 branch; their values 7, 21, 22
    are confirmed by the independent monomial count.
    """
    problems: list[str] = []
    checked = 0
    for m in range(3, 13):
        checked += 1
        if h0_anti_plurigenus(m, m + 4, 1) != 2:
            problems.append(f"h0(-K) != 2 at m={m}")
    # the stated (m, j, h0) values: odd m = 2u-1, then even m = 2u
    stated = [(2 * u - 1, j, h0) for u in range(2, 7)
              for j, h0 in ((u, u + 3), (2 * u - 1, 4 * u + 1), (2 * u, 4 * u + 6))]
    stated += [(2 * u, j, h0) for u in range(1, 7)
               for j, h0 in ((u, u + 2), (u + 1, u + 5), (2 * u + 2, 4 * u + 13))]
    adjusted = {(2, 2): 7, (2, 4): 21, (4, 6): 22}
    for m, j, h0 in stated:
        expected = adjusted.get((m, j), h0)
        checked += 1
        got = h0_anti_plurigenus(m, m + 4, j)
        model_value = embedded_h0(m, j)
        if got != expected or model_value != expected:
            problems.append(f"m={m}, j={j}: h0={got}, model={model_value}, expected {expected}")
    for m in range(2, 9):
        for j in range(1, 2 * m + 5):
            checked += 1
            if h0_anti_plurigenus(m, m + 4, j) != embedded_h0(m, j):
                problems.append(f"m={m}, j={j}: formula and monomial count disagree")
    # X blows up P(1, 1, m) at n general points, -K_X pulls back from O(m+2) and
    # h^1(-jK) = 0, so h^0(-jK) = N_m(j(m+2)) - n j(j+1)/2, N_m counting monomials
    for m in range(2, 13):
        del_pezzo = [n for n in range(1, m + 6) if is_del_pezzo(m, n)]
        for j in range(1, 13):
            monomials = weighted_monomial_count((1, 1, m), j * (m + 2))
            for n in del_pezzo:
                checked += 1
                try:
                    got = h0_anti_plurigenus(m, n, j)
                except InternalInvariantError as exc:
                    problems.append(f"m={m}, n={n}, j={j}: {exc}")
                    continue
                expected = monomials - n * j * (j + 1) // 2
                if got != expected:
                    problems.append(f"m={m}, n={n}, j={j}: h0={got}, weighted plane {expected}")
    return _result(4, "lem:correction", "anti-plurigenus tables with monomial cross-check",
                   problems, checked)


def check_embedding() -> CheckResult:
    """Parity-split anticanonical model descriptors for m in 2..12."""
    problems: list[str] = []
    checked = 0
    for m in range(2, 13):
        desc = embedding_descriptor(m)
        if m % 2 == 0:
            u = m // 2
            want = ((1, 1, u, u + 1), (2 * u + 2,))
        else:
            u = (m + 1) // 2
            want = ((1, 1, u, u, 2 * u - 1), (2 * u, 2 * u))
        checked += 1
        if (desc.weights, desc.degrees) != want:
            problems.append(f"m={m}: descriptor {(desc.weights, desc.degrees)}, expected {want}")
    return _result(5, "thm:embedding", "anticanonical embedding descriptors", problems, checked)


def _expected_verdict(m: int, n: int, ell: int | None, q: TriState) -> tuple[TriState, TriState]:
    eff = TriState.YES if m % 2 == 1 else q
    yes, no, open_ = TriState.YES, TriState.NO, TriState.OPEN
    if n <= m + 1:
        return eff, yes
    if n == m + 2:
        both = yes if eff is yes else open_
        return both, both
    if n == m + 3:
        return yes, yes if eff is yes else open_
    assert ell is not None
    if n == m + 4:
        if ell <= m:
            return no, no
        if ell == m + 1:
            return yes, yes
        if ell == m + 2:
            both = yes if eff is yes else open_
            return both, both
        both = yes if m % 2 == 1 else open_
        return both, both
    if ell <= m + 1:
        return no, no
    if ell in (m + 2, m + 6):
        return yes, yes
    if ell == m + 3:
        both = yes if eff is yes else open_
        return both, both
    return yes, yes if eff is yes else open_


def check_verdict_table() -> CheckResult:
    """Full verdict grid for m in 2..8, plus the odd-m threshold identities."""
    problems: list[str] = []
    checked = 0
    states = (TriState.YES, TriState.NO, TriState.OPEN)
    for m in range(2, 9):
        for q in states:
            for n in range(1, m + 4):
                v = classify(m, n, None, q)
                checked += 1
                if (v.rational, v.cylindrical) != _expected_verdict(m, n, None, q):
                    problems.append(f"classify({m}, {n}, q={q}) = {v.rational}/{v.cylindrical}")
                if (v.rational is not TriState.OPEN or v.cylindrical is not TriState.OPEN) and not v.citations:
                    problems.append(f"classify({m}, {n}, q={q}) has no citation")
            for n in (m + 4, m + 5):
                for ell in sorted(feasible_ell(m, n)):
                    v = classify(m, n, ell, q)
                    checked += 1
                    if (v.rational, v.cylindrical) != _expected_verdict(m, n, ell, q):
                        problems.append(
                            f"classify({m}, {n}, ell={ell}, q={q}) = {v.rational}/{v.cylindrical}"
                        )
        if m % 2 == 1:
            for n in range(1, m + 4):
                v = classify(m, n)
                checked += 1
                if (v.rational, v.cylindrical) != (TriState.YES, TriState.YES):
                    problems.append(f"odd-m identity fails at ({m}, {n})")
            for ell in sorted(feasible_ell(m, m + 4)):
                v = classify(m, m + 4, ell)
                both_yes = v.rational is TriState.YES and v.cylindrical is TriState.YES
                checked += 1
                if both_yes != (ell >= m + 1):
                    problems.append(f"threshold identity fails at ({m}, {m + 4}, ell={ell})")
        for n, bad in ((m + 4, m + 3), (m + 5, m + 4)):
            checked += 1
            try:
                classify(m, n, bad, TriState.YES)
                problems.append(f"infeasible ell {bad} accepted at ({m}, {n})")
            except InfeasibleEllError:
                pass
    for ell in sorted(feasible_ell(3, 8)):
        v = classify(3, 8, ell)
        both_yes = v.rational is TriState.YES and v.cylindrical is TriState.YES
        checked += 1
        if both_yes != (ell >= 5):
            problems.append(f"m=3 boundary threshold fails at ell={ell}")
    return _result(6, "thm:intermediate/m+4/m+5", "verdict table and threshold identities",
                   problems, checked)


def _witness_ok(system: CurveSystem, action: GaloisAction, res: EllResult) -> bool:
    members = set(res.witness)
    if len(res.witness) != res.ell or len(members) != res.ell:
        return False
    if sorted(i for orb in res.witness_orbits for i in orb) != sorted(res.witness):
        return False
    if any(system.q_incidence[i] < 1 for i in members):
        return False
    gram = system.pair_gram
    if any(gram[i][j] != 0 for i, j in combinations(sorted(members), 2)):
        return False
    for gen in action.generators:
        if any(gen[i] - 1 not in members for i in members):
            return False
    return True


def _random_plane_action(rng: random.Random, half: int, generator_count: int) -> GaloisAction:
    """A random symmetry of the plane-basis pairing: permute the m+4 pair slots
    and swap E_i with E_i' inside an even number of them, since a lattice
    isometry fixing K and Q flips an even number of pairs (the last draw is
    toggled when the count comes out odd)."""
    gens = []
    for _ in range(generator_count):
        sigma = list(range(half))
        rng.shuffle(sigma)
        flips = [rng.random() < 0.5 for _ in range(half)]
        flips[-1] ^= sum(flips) % 2 == 1
        image = [0] * (2 * half)
        for i, flip in enumerate(flips):
            image[i] = (sigma[i] + half if flip else sigma[i]) + 1
            image[i + half] = (sigma[i] if flip else sigma[i] + half) + 1
        gens.append(tuple(image))
    return GaloisAction(degree=2 * half, generators=tuple(gens))


def check_ell_engine() -> CheckResult:
    """Branch-and-bound ell equals the exhaustive oracle, structured and randomized."""
    problems: list[str] = []
    checked = 0

    def agree(system: CurveSystem, action: GaloisAction, expect: int | None,
              label: str) -> EllResult | None:
        nonlocal checked
        report = validate_action(system, action)
        if not report.ok:
            problems.append(f"{label}: constructed action invalid: {report.violations[0]}")
            return None
        fast = _ell(system, action)
        slow = _brute_ell(system, action)
        checked += 1
        if fast.ell != slow.ell:
            problems.append(f"{label}: search {fast.ell} != oracle {slow.ell}")
        if expect is not None and fast.ell != expect:
            problems.append(f"{label}: ell = {fast.ell}, expected {expect}")
        if not _witness_ok(system, action, fast) or not _witness_ok(system, action, slow):
            problems.append(f"{label}: witness fails its own definition")
        return fast

    plane2 = standard_curve_system(build_model(2, 6, PLANE))
    trivial_result = agree(plane2, GaloisAction.trivial(12), 6, "plane m=2 trivial")
    if set(trivial_result.witness) != set(range(6)):
        problems.append(f"plane m=2 trivial witness {trivial_result.witness}")
    swap = GaloisAction(12, ((7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 5, 6),))
    agree(plane2, swap, 0, "plane m=2 pairing swap")
    cycle = GaloisAction(12, ((2, 3, 4, 5, 6, 1, 8, 9, 10, 11, 12, 7),))
    agree(plane2, cycle, 6, "plane m=2 six-cycle")

    model7 = build_model(2, 7, HIRZEBRUCH)
    named = model7.distinguished
    curves = [distinguished_e0(model7)]
    curves += [named["F"] - named[f"E_{i}"] for i in range(1, 8)]
    curves += [named[f"E_{i}"] for i in range(1, 8)]
    system7 = build_curve_system(model7, curves)
    result7 = agree(system7, GaloisAction.trivial(15), 8, "hirzebruch (2,7) trivial")
    if set(result7.witness) != set(range(8)):
        problems.append(f"hirzebruch (2,7) witness {result7.witness}")

    rng = random.Random(20250818)
    systems = {m: standard_curve_system(build_model(m, m + 4, PLANE)) for m in (2, 3)}
    for trial in range(100):
        m = 2 if trial % 2 == 0 else 3
        system = systems[m]
        action = _random_plane_action(rng, m + 4, rng.randint(1, 3))
        agree(system, action, None, f"trial {trial}")
    # every coarsening trial on a system shares the bound of its trivial action
    trivial_ell = {m: compute_ell(system, GaloisAction.trivial(len(system))).ell
                   for m, system in systems.items()}
    for m, ell in trivial_ell.items():
        if ell != m + 4:
            problems.append(f"plane m={m}: trivial ell {ell} != {m + 4}")
    for trial in range(20):
        m = 2 if trial % 2 == 0 else 3
        system = systems[m]
        base = _random_plane_action(rng, m + 4, 1)
        extra = _random_plane_action(rng, m + 4, 1)
        coarser = GaloisAction(base.degree, base.generators + extra.generators)
        ell_base = compute_ell(system, base).ell
        ell_coarse = compute_ell(system, coarser).ell
        checked += 1
        if not ell_coarse <= ell_base <= trivial_ell[m]:
            problems.append(
                f"coarsening trial {trial}: {ell_coarse} <= {ell_base} <= {trivial_ell[m]} fails"
            )
    for trial in range(10):
        m = 2 if trial % 2 == 0 else 3
        system = systems[m]
        action = _random_plane_action(rng, m + 4, 2)
        relabel = _random_plane_action(rng, m + 4, 1).generators[0]
        conjugated = []
        for gen in action.generators:
            image = [0] * len(gen)  # relabel o gen o relabel^-1: relabel(i) -> relabel(gen(i))
            for i, g in enumerate(gen):
                image[relabel[i] - 1] = relabel[g - 1]
            conjugated.append(image)
        checked += 1
        a = compute_ell(system, action).ell
        b = compute_ell(system, GaloisAction(action.degree, conjugated)).ell
        if a != b:
            problems.append(f"conjugation trial {trial}: {a} != {b}")
    return _result(7, "def:ell", "ell solver equals exhaustive oracle", problems, checked)


def check_sections() -> CheckResult:
    """Splitting polynomial roots, the 12-line census, and the boundary example verdict."""
    problems: list[str] = []
    checked = 0
    for m in (2, 3, 4):
        h = binary_form([1] + [0] * (2 * m - 1) + [1])
        p = ci_split_polynomial(h)
        roots = rational_roots(p)
        checked += 1
        if set(roots) != {Fraction(2), Fraction(-2)}:
            problems.append(f"m={m}: rational roots {sorted(roots)}, expected {{-2, 2}}")
        if p.degree != 2 * m + 2 or p(2) != 0 or p(-2) != 0:
            problems.append(f"m={m}: splitting polynomial malformed (degree {p.degree})")

    census = line_census(binary_form((1, 0, 0, 0, 1)), binary_form((1, 0, 1)))
    checked += 1
    if census.total_lines != 12:
        problems.append(f"census total {census.total_lines}, expected 12")
    if any(e.root is not None for e in census.split_values) or census.includes_infinity_section:
        problems.append("census reports rational split values where none exist")

    rational_census = line_census(binary_form((4, 0, -5, 0, 1)), binary_form((1, 0, 1)))
    roots = {e.root: e.residual for e in rational_census.split_values if e.root is not None}
    checked += 1
    if set(roots) != {Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)}:
        problems.append(f"rational census roots {sorted(roots)}")
    if {roots.get(Fraction(1)), roots.get(Fraction(-1))} != {Fraction(2)} or {
        roots.get(Fraction(2)),
        roots.get(Fraction(-2)),
    } != {Fraction(5)}:
        problems.append("rational census residuals off")
    if rational_census.total_lines != 12 or any(
        e.rational_pair for e in rational_census.split_values if e.root is not None
    ):
        problems.append("rational census pair flags off")

    verdict = classify(2, 6, ell=0, q_point=TriState.NO)
    checked += 1
    if (verdict.rational, verdict.cylindrical) != (TriState.NO, TriState.NO):
        problems.append(f"boundary example verdict {verdict.rational}/{verdict.cylindrical}")
    if "thm:m+4(1)" not in verdict.citations:
        problems.append("boundary example cites the wrong clause")
    return _result(8, "ex:sections", "section splitting and the 12-line census", problems, checked)


def check_lattice() -> CheckResult:
    """Unimodularity, signature, anticanonical degree, singular degree for the test grid."""
    problems: list[str] = []
    checked = 0
    models = [build_model(m, n, HIRZEBRUCH) for m in range(2, 7) for n in range(1, m + 6)]
    models += [build_model(m, m + 4, PLANE) for m in range(2, 7)]
    for model in models:
        checked += 1
        if not is_unimodular(model):
            problems.append(f"{model.basis_tag}: not unimodular")
        if lattice_signature(model) != (1, model.rank - 1):
            problems.append(f"{model.basis_tag}: signature {lattice_signature(model)}")
        mk = model.anticanonical
        if model.intersect(mk, mk) != 8 - model.n:
            problems.append(f"{model.basis_tag}: (-K)^2 != {8 - model.n}")
    for m in range(2, 13):
        checked += 1
        if k_squared_singular(m, m + 4) != Fraction(4, m):
            problems.append(f"k_squared_singular({m}, {m + 4}) != 4/{m}")
    return _result(9, "lattice", "lattice invariants on the test grid", problems, checked)


ALL_CHECKS = (
    check_census_equivalence,
    check_plane_census,
    check_incidence_law,
    check_anti_plurigenus,
    check_embedding,
    check_verdict_table,
    check_ell_engine,
    check_sections,
    check_lattice,
)


def run_all() -> tuple[CheckResult, ...]:
    return tuple(check() for check in ALL_CHECKS)
