"""Census of (-1)-curve classes on the resolved surfaces.

``minus_one_census`` is the one route to a census: the closed form
``closed_form_minus_one_classes`` where it exists (Hirzebruch basis for
n <= m+3, plane basis for n = m+4), else the complete search wherever the
surface is del Pezzo (K_X^2 > 0, ``lattice.is_del_pezzo``), both certified,
and else a window census from the search of the default box, not certified.
``curves_meeting_q`` keeps the classes meeting Q, in census order.

``brute_force_minus_one_classes`` is the search, and the closed forms'
oracle.  It finds all integer vectors D with D^2 = -1 and D.(-K) = 1 that
pair non-negatively with the known effective classes, each "unless D is that
class itself": F, Q, each E_i, Delta when n <= m+3 and E_0 when n = m+5 in
the Hirzebruch basis; the line e_0, each e_j and Q in the plane basis.
Permuting the block of exceptional coordinates (E_1..E_n, or e_1..e_{m+4} on
the conic) fixes the Gram matrix, K and every other tested class.  So the
search loops over the head coordinates outside the block, which fix the
block's sum and sum of squares, finds each block as a nonincreasing tuple
(its entries are -D.E_i <= 0 unless D = E_i), expands it into the orderings
that fit the box, and adds the tested classes that are themselves
(-1)-classes.  Its kernel ``_solve`` returns the sorted coefficient
vectors, which the verification battery compares without building classes.

Without a box the search runs once on ``_complete_box``, which holds every
solution by a Cauchy-Schwarz bound wherever K_X^2 > 0 (the del Pezzo range),
so that census is complete by proof.  Where K_X^2 <= 0 (m >= 4, n = m+5) the
solutions are unbounded and only a window census of a given box has meaning.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import isqrt
from operator import mul

from .errors import ParameterError, UnsupportedModelError
from .lattice import HIRZEBRUCH, DivisorClass, SurfaceModel, _m_k_squared, integral, is_del_pezzo

EXCEPTIONAL = "exceptional"
FIBER_RESIDUAL = "fiber_residual"
Q_SECTION = "q_section"
DELTA = "delta"
PLANE_DEGREE = "plane_degree"


@dataclass(frozen=True)
class SearchBox:
    """Per-coordinate integer intervals for the stored coefficient vector.

    Intervals must be finite; an interval with lo > hi is empty and the box
    then enumerates nothing.
    """

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        try:
            pairs = [(lo, hi) for lo, hi in self.intervals]
        except (TypeError, ValueError):
            raise ParameterError(
                f"search box intervals must be (lo, hi) pairs, got {self.intervals!r}") from None
        object.__setattr__(self, "intervals", tuple(
            (integral("search box bound", lo), integral("search box bound", hi))
            for lo, hi in pairs))


def default_search_box(model: SurfaceModel) -> SearchBox:
    """The box of a window census, Hirzebruch basis only.

    Q-coefficient a in [0, 2], F-coefficient b in [0, 2m+3] (covering
    Q-degrees d = D.Q = b - ma in [0, 3] for every admissible a),
    E-coefficients in [-3, 2] (multiplicities c_i = -coeff in [-2, 3]).
    """
    if model.kind != HIRZEBRUCH:
        raise UnsupportedModelError("window boxes exist only in the Hirzebruch basis")
    return SearchBox(((0, 2), (0, 2 * model.m + 3)) + ((-3, 2),) * model.n)


def delta_class(model: SurfaceModel) -> DivisorClass:
    """The section class Delta = Q + (m+1)F - (E_1 + ... + E_n), n <= m+3 only."""
    if model.kind != HIRZEBRUCH or model.n > model.m + 3:
        raise UnsupportedModelError(
            "Delta is effective only in the Hirzebruch basis with n <= m+3"
        )
    return model.divisor((1, model.m + 1) + (-1,) * model.n)


def distinguished_e0(model: SurfaceModel) -> DivisorClass:
    """The distinguished class E_0 = Q + (m+2)F - (E_1 + ... + E_{m+5}), n = m+5 only.

    Satisfies E_0^2 = -1, E_0.Q = 2, E_0.(-K) = 1 and -K = Q + E_0.
    """
    if model.kind != HIRZEBRUCH or model.n != model.m + 5:
        raise UnsupportedModelError("E_0 is defined only in the Hirzebruch basis with n = m+5")
    return model.divisor((1, model.m + 2) + (-1,) * model.n)


@dataclass(frozen=True)
class CurveFamily:
    """A labelled family of (-1)-classes; degree is set for plane Q-avoiding families."""

    label: str
    members: tuple[DivisorClass, ...]
    degree: int | None = None

    def __len__(self) -> int:
        return len(self.members)


def closed_form_minus_one_classes(model: SurfaceModel) -> tuple[CurveFamily, ...]:
    """The complete (-1)-class census, by family.

    Hirzebruch, n <= m+3: the exceptional classes E_i, the fiber residuals
    F - E_i, the sections Q + mF - (m+1 of the E_i) when n >= m+1, and the
    single section Delta when n = m+3.

    Plane (n = m+4): the Q-meeting classes E_i = e_i and
    E_i' = e_0 - e_i - e_{m+5} (2m+8 in total), plus for each degree
    0 <= d <= floor(m/2) + 2 the Q-avoiding classes
    d.e_0 - (2d of the e_i) - (d-1).e_{m+5}.

    For the Hirzebruch basis with n in {m+4, m+5} there is no closed form;
    use the brute-force census.
    """
    named = model.distinguished
    families: list[CurveFamily] = []
    if model.kind == HIRZEBRUCH:
        m, n = model.m, model.n
        if n > m + 3:
            raise UnsupportedModelError(
                f"no closed form in the Hirzebruch basis for n = {n} > m+3 = {m + 3}; "
                "use brute_force_minus_one_classes"
            )
        exceptional = tuple(named[f"E_{i}"] for i in range(1, n + 1))
        families.append(CurveFamily(EXCEPTIONAL, exceptional))
        fiber = named["F"]
        families.append(CurveFamily(FIBER_RESIDUAL, tuple(fiber - e for e in exceptional)))
        if n >= m + 1:
            members = []
            for subset in combinations(range(n), m + 1):
                coeffs = [1, m] + [0] * n
                for i in subset:
                    coeffs[2 + i] = -1
                members.append(model.divisor(coeffs))
            families.append(CurveFamily(Q_SECTION, tuple(members)))
        if n == m + 3:
            families.append(CurveFamily(DELTA, (delta_class(model),)))
        return tuple(families)

    m = model.m
    exceptional = tuple(named[f"E_{i}"] for i in range(1, m + 5))
    families.append(CurveFamily(EXCEPTIONAL, exceptional))
    families.append(
        CurveFamily(FIBER_RESIDUAL, tuple(named[f"E_{i}'"] for i in range(1, m + 5)))
    )
    last = model.rank - 1
    for d in range(m // 2 + 3):
        members = []
        for subset in combinations(range(1, m + 5), 2 * d):
            coeffs = [0] * model.rank
            coeffs[0] = d
            for j in subset:
                coeffs[j] = -1
            coeffs[last] = -(d - 1)
            members.append(model.divisor(coeffs))
        families.append(CurveFamily(PLANE_DEGREE, tuple(members), degree=d))
    return tuple(families)


def family_classes(families) -> tuple[DivisorClass, ...]:
    """All members of the given families, sorted by coefficient vector."""
    out = [c for fam in families for c in fam.members]
    return tuple(sorted(out, key=lambda c: c.coeffs))


# --- brute-force oracle ------------------------------------------------------

def _blocks(size, total, squares, lo, hi):
    """Nonincreasing tuples of `size` integers in [lo, min(hi, 0)] with the
    given sum and sum of squares.  Each entry bounds the rest of the tuple
    from above, so interval arithmetic on the sum and the squares plus
    Cauchy-Schwarz prune every branch that cannot close."""
    out: list[tuple[int, ...]] = []
    _extend(out, [], lo, size, total, squares, min(hi, 0))
    return out


def _extend(out, cur, lo, left, total, squares, top) -> None:
    """Append to out each completion of the prefix cur by `left` entries in
    [lo, top], nonincreasing, with the given sum and sum of squares."""
    if left == 0:
        out.append(tuple(cur))
        return
    rest = left - 1
    for v in range(top, lo - 1, -1):
        t, s = total - v, squares - v * v
        # the rest lies in [lo, v] with lo <= v <= 0
        if (rest * lo <= t <= rest * v and rest * v * v <= s <= rest * lo * lo
                and t * t <= rest * s):
            cur.append(v)
            _extend(out, cur, lo, rest, t, s, v)
            cur.pop()


def _orderings(block, intervals):
    """The distinct orderings of the multiset `block` whose i-th entry lies in intervals[i]."""
    values = sorted(set(block))
    out: list[tuple[int, ...]] = []
    _place(out, [], values, [block.count(v) for v in values], intervals)
    return out


def _place(out, cur, values, counts, intervals) -> None:
    """Append to out each completion of the prefix cur that spends counts[k]
    more copies of values[k], entry i in intervals[i]."""
    i = len(cur)
    if i == len(intervals):
        out.append(tuple(cur))
        return
    lo, hi = intervals[i]
    for k, v in enumerate(values):
        if counts[k] and lo <= v <= hi:
            counts[k] -= 1
            cur.append(v)
            _place(out, cur, values, counts, intervals)
            cur.pop()
            counts[k] += 1


def _solve(model: SurfaceModel, box: SearchBox | None = None) -> list[tuple[int, ...]]:
    """The census kernel: the sorted coefficient vectors of the solutions in
    the box, by default ``_complete_box(model)``."""
    if box is None:
        box = _complete_box(model)
    if len(box.intervals) != model.rank:
        raise ParameterError(
            f"search box has {len(box.intervals)} intervals, model rank is {model.rank}"
        )
    m, n, iv = model.m, model.n, box.intervals
    # heads are (prefix, suffix, block sum, block sum of squares), the block
    # targets following from D.(-K) = 1 and D^2 = -1
    heads = []
    if model.kind == HIRZEBRUCH:
        start, stop = 2, model.rank
        special = (
            (delta_class(model),) if n <= m + 3
            else (distinguished_e0(model),) if n == m + 5 else ()
        )
        # D.C = u.D with u the dual row of C, constant on the block for Delta
        # and E_0, so D.C = u0*a + u1*b + u2*(block sum) is fixed by the head
        duals = [model.dual(c)[:3] for c in special]
        (a_lo, a_hi), (b_lo, b_hi) = iv[0], iv[1]
        for a in range(max(a_lo, 0), a_hi + 1):  # D.F = a >= 0
            for b in range(max(b_lo, m * a), b_hi + 1):  # D.Q = b - m*a >= 0
                total = (m - 2) * a - 2 * b + 1
                if all(u0 * a + u1 * b + u2 * total >= 0 for u0, u1, u2 in duals):
                    heads.append(((a, b), (), total, -m * a * a + 2 * a * b + 1))
    else:
        start, stop, special = 1, model.rank - 1, ()
        (d_lo, d_hi), (w_lo, w_hi) = iv[0], iv[-1]
        for d in range(max(d_lo, 0), d_hi + 1):  # degree >= 0
            # w = coefficient of e_{m+5}: D.e_{m+5} = -w >= 0 and D.Q = 1 - d - w >= 0
            for w in range(w_lo, min(w_hi, 0, 1 - d) + 1):
                heads.append(((d,), (w,), 1 - 3 * d - w, d * d + 1 - w * w))
    # a tested class that is itself a (-1)-class passes every other test, so
    # it is a solution exactly when it lies in the box
    exempt = [model.basis_class(i) for i in range(start, model.rank)]
    exempt += [c for c in special if model.intersect(c, c) == -1]
    sols = [c.coeffs for c in exempt if all(lo <= x <= hi for x, (lo, hi) in zip(c.coeffs, iv))]
    block_iv = iv[start:stop]
    floor = min(lo for lo, _ in block_iv)
    ceiling = max(hi for _, hi in block_iv)
    for prefix, suffix, total, squares in heads:
        for block in _blocks(stop - start, total, squares, floor, ceiling):
            sols.extend(prefix + v + suffix for v in _orderings(block, block_iv))
    return sorted(sols)


def _complete_box(model: SurfaceModel) -> SearchBox:
    """A box that holds every solution, by proof; it needs K_X^2 > 0.

    Off the exempt classes each block entry c_i = D.E_i (D.e_j in the plane
    basis) is >= 0, so c_i <= isqrt(q) and, by Cauchy-Schwarz, s^2 <= N q for
    the block's sum s, sum of squares q and length N.  Hirzebruch: the head
    (a, d) = (D.F, D.Q) has a, d >= 0, s = (m+2)a + 2d - 1, q = m a^2 + 2ad + 1,
    and s^2 <= nq reads 4d^2 + (Ba - 4)d + A a^2 - 2(m+2)a - (n-1) <= 0 with
    A = (m+2)^2 - nm = m K_X^2 > 0 and B = 4m + 8 - 2n > 0.  Once Ba >= 4,
    Aa > m+2 and A a^2 > 2(m+2)a + n - 1, no d >= 0 passes for a or any larger
    a.  Plane: the head (d, u) = (degree, D.e_{m+5}) has d - 1 <= u <= isqrt(d^2 + 1)
    (D.Q >= 0, q >= 0), s = 3d - u - 1 and q = d^2 + 1 - u^2; for d >= 1,
    s >= 2d - 1 and q <= 2d, so no head passes once (2d - 1)^2 > 2(m+4)d.
    Block coefficients lie in [-isqrt(q), 1], the 1 admitting the exempt E_i
    and e_j; Delta and E_0 have every c_i = 1 and pass as ordinary heads.
    """
    m, n = model.m, model.n
    if not is_del_pezzo(m, n):
        raise UnsupportedModelError(
            f"no complete census for (m, n) = ({m}, {n}), where K_X^2 <= 0; pass a box")
    if model.kind != HIRZEBRUCH:
        # the largest d with (2d - 1)^2 <= 2(m+4)d; then u <= d and q <= 2d
        d = (2 * m + 12 + isqrt((2 * m + 12) ** 2 - 16)) // 8
        return SearchBox(((0, d),) + ((-isqrt(2 * d), 1),) * (m + 4) + ((-d, 1),))
    big_a, big_b = _m_k_squared(m, n), 4 * m + 8 - 2 * n
    heads, a = [], 0
    while True:
        p, r = big_b * a - 4, big_a * a * a - 2 * (m + 2) * a - (n - 1)
        if p >= 0 and r > 0 and big_a * a > m + 2:
            break
        if p * p >= 16 * r and isqrt(p * p - 16 * r) >= p:  # some d >= 0 has 4d^2 + pd + r <= 0
            heads.append((a, (isqrt(p * p - 16 * r) - p) // 8))  # the largest such d
        a += 1
    top = isqrt(max(m * a * a + 2 * a * d + 1 for a, d in heads))
    head = ((0, max(a for a, _ in heads)), (0, max(m * a + d for a, d in heads)))
    return SearchBox(head + ((-top, 1),) * n)


def brute_force_minus_one_classes(
    model: SurfaceModel, box: SearchBox | None = None
) -> tuple[DivisorClass, ...]:
    """All (-1)-class solutions of the arithmetic constraint system, sorted.

    Without a box, the complete census: one search of ``_complete_box``,
    which raises UnsupportedModelError where K_X^2 <= 0.  With a box, exactly
    the solutions inside it (a window census).
    """
    return tuple(model.divisor(v) for v in _solve(model, box))


def minus_one_census(model: SurfaceModel) -> tuple[CurveFamily, ...]:
    """The (-1)-class census by family.

    Complete by proof exactly where K_X^2 > 0 (``lattice.is_del_pezzo``): the
    closed form where one exists, else one "search" family from the complete
    search.  Elsewhere (m >= 4, n = m+5) one "search_window" family from the
    default box.
    """
    try:
        return closed_form_minus_one_classes(model)
    except UnsupportedModelError:
        pass
    if is_del_pezzo(model.m, model.n):
        return (CurveFamily("search", brute_force_minus_one_classes(model)),)
    window = brute_force_minus_one_classes(model, default_search_box(model))
    return (CurveFamily("search_window", window),)


def curves_meeting_q(model: SurfaceModel) -> tuple[DivisorClass, ...]:
    """The classes of ``minus_one_census(model)`` that meet Q (D.Q >= 1),
    in census order: the list that ell's "auto" curves index.

    Plane basis: E_1..E_{m+4} then E_1'..E_{m+4}'; Hirzebruch basis: sorted.
    Complete exactly where K_X^2 > 0.
    """
    q = model.dual(model.distinguished["Q"])
    families = minus_one_census(model)
    return tuple(c for fam in families for c in fam.members if sum(map(mul, q, c.coeffs)) >= 1)
