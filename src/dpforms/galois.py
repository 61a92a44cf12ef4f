"""Permutation actions on curve systems and the invariant ell.

A curve system indexes a finite list of (-1)-classes on one surface model and
caches their pairwise intersections together with each curve's intersection
number against the negative section Q.  Every curve's basis and length are
checked first; its dual row (gram . v), its anticanonical degree and its
Q-incidence then come from `lattice._products` tables over all curves at
once, and every pairing is a dual row times a raw coefficient vector: the
whole Gram table is one more `lattice._products` call, which packs the
coefficient vectors by Kronecker substitution and reads, from the same
packed bytes, each curve's mask: its own bit plus the bits of the curves it
meets (``CurveSystem.masks``).

A Galois action is given by finitely many generators, each a permutation of
the curve indices written as a 1-based image list (an infinite Galois group
acts through the finite quotient the generators present).  `validate_action`
checks a generator p by whole rows: row i of the Gram table is preserved iff
``itemgetter(*p)(gram[p[i]]) == gram[i]``, and only a row that differs is
scanned pair by pair to name its violations.

ell is the largest size of a generator-invariant set of curves that all meet
Q and are pairwise disjoint.  Invariant sets are unions of orbits, so the
search runs over orbits, which `orbit_partition` finds in one sweep.
Admissibility and conflicts both come from the curve masks: an orbit is
admissible when its members miss the curves off Q and each member's mask
meets the orbit in that member alone, two orbits conflict when the OR of
one's member masks meets the other's members, and ell is the maximum weight
independent set in that conflict graph with orbit sizes as weights.
`compute_ell` solves this exactly by branch and bound, and builds an orbit's
row of that graph only when the search first branches on it;
`brute_force_ell` re-derives it by exhausting all unions of orbits and exists
purely as a cross-check.  It shares no mask with the search: it derives its
own from ``pair_gram`` and tabulates, for every subset of each half of the
orbits, the union U of their members and the union N of the curves those
members meet, and tests each union of orbits by the two defining conditions,
U inside the curves that meet Q and U & N == 0, with no pruning.

ell never exceeds rank(Pic) - 1: pairwise disjoint (-1)-curves have Gram
matrix -I, so they span a negative definite subspace, and Pic has signature
(1, rank - 1) by the Hodge index theorem.  `compute_ell` stops there.

Curve indices inside this module are 0-based positions into
``system.curves``; the command line presents them 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, pairwise
from operator import itemgetter, mul, or_

from .curves import curves_meeting_q
from .errors import InvalidActionError, ParameterError, SystemSizeError
from .lattice import DivisorClass, SurfaceModel, _products, integral

BRUTE_FORCE_LIMIT = 24


@dataclass(frozen=True)
class CurveSystem:
    """An indexed family of (-1)-classes with cached intersection data.

    Construction refuses an empty family; then any member of another basis or
    length; then, curve by curve, a member that is not a (-1)-class
    (self-intersection -1, anticanonical degree 1) or repeats an earlier one;
    then negative Q-incidence.  Dual rows, degrees and Q-incidences are
    `_products` tables over all members; ``pair_gram`` and ``masks`` are
    the table and the masks of one more."""

    model: SurfaceModel
    curves: tuple[DivisorClass, ...]
    q_incidence: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _duals: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.curves:
            raise ParameterError("curve system must contain at least one curve")
        model = self.model
        for c in self.curves:
            model._owned(c)
        coeffs = [c.coeffs for c in self.curves]
        duals = tuple(zip(*_products(model.gram, coeffs)[0]))
        degrees, q_incidence = _products(
            [model.dual(model.anticanonical), model.dual(model.distinguished["Q"])], coeffs)[0]
        # a stable sort puts each repeat right after its first occurrence; a
        # set would hash vectors that differ by -1/-2 entries alike
        order = sorted(range(len(coeffs)), key=coeffs.__getitem__)
        repeats = {b for a, b in pairwise(order) if coeffs[a] == coeffs[b]}
        for i, (d, c, degree) in enumerate(zip(duals, coeffs, degrees)):
            square = sum(map(mul, d, c))
            if square != -1:
                raise ParameterError(f"curve {i + 1} has self-intersection {square}, expected -1")
            if degree != 1:
                raise ParameterError(f"curve {i + 1} has anticanonical degree {degree}, expected 1")
            if i in repeats:
                raise ParameterError(f"curve {i + 1} duplicates an earlier curve")
        for i, q in enumerate(q_incidence):
            if q < 0:
                raise ParameterError(f"curve {i + 1} has negative Q-incidence {q}")
        object.__setattr__(self, "_duals", duals)
        object.__setattr__(self, "q_incidence", q_incidence)

    def __len__(self) -> int:
        return len(self.curves)

    @cached_property
    def pair_gram(self) -> tuple[tuple[int, ...], ...]:
        return self._gram_and_masks[0]

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per curve, the bits of the curves it meets, its own bit included
        (the diagonal of ``pair_gram`` is -1)."""
        return self._gram_and_masks[1]

    @cached_property
    def _gram_and_masks(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        return _products(self._duals, [c.coeffs for c in self.curves])


def build_curve_system(model: SurfaceModel, curves: list[DivisorClass]) -> CurveSystem:
    """Assemble a curve system; `CurveSystem` checks its members."""
    return CurveSystem(model=model, curves=tuple(curves))


def standard_curve_system(model: SurfaceModel) -> CurveSystem:
    """The system of "auto" curves: ``curves_meeting_q`` in census order,
    complete and Galois-stable wherever K_X^2 > 0, a window elsewhere."""
    return build_curve_system(model, list(curves_meeting_q(model)))


@dataclass(frozen=True)
class GaloisAction:
    """Finitely many permutation generators, each a 1-based image list."""

    degree: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", integral("degree", self.degree))
        if self.degree < 1:
            raise ParameterError(f"degree must be >= 1, got {self.degree}")
        gens = tuple(map(tuple, self.generators))
        # one pass over the types when every image is an int; else an
        # integral value (2.0) is converted and a bool, 2.5 or "2" refused
        if {*map(type, chain.from_iterable(gens))} - {int}:
            gens = tuple(tuple(integral(f"generator {k + 1} image", x) for x in gen)
                         for k, gen in enumerate(gens))
        object.__setattr__(self, "generators", gens)
        expected = list(range(1, self.degree + 1))
        for k, gen in enumerate(gens):
            if sorted(gen) != expected:
                raise ParameterError(
                    f"generator {k + 1} is not a permutation of 1..{self.degree}: {gen}"
                )

    @classmethod
    def trivial(cls, degree: int) -> GaloisAction:
        return cls(degree=degree, generators=())

    @classmethod
    def from_one_based(cls, degree: int, generators: list[list[int]]) -> GaloisAction:
        return cls(degree=degree, generators=tuple(tuple(g) for g in generators))


def orbit_partition(action: GaloisAction) -> tuple[tuple[int, ...], ...]:
    """Orbits of the generated group, as sorted 0-based index tuples sorted by minimum.

    One sweep: each orbit grows from the lowest point not yet seen by
    following the generators' images, which reaches the whole orbit because
    every inverse of a permutation of a finite set is one of its powers."""
    images = [[img - 1 for img in gen] for gen in action.generators]
    seen = bytearray(action.degree)
    orbits = []
    for start in range(action.degree):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        for x in orbit:  # the list grows while it is read
            for p in images:
                y = p[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        orbit.sort()
        orbits.append(tuple(orbit))
    return tuple(orbits)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_action(system: CurveSystem, action: GaloisAction) -> ValidationReport:
    """Check that every generator preserves the intersection data.

    A generator g is admissible iff pair_gram[g(i)][g(j)] = pair_gram[i][j]
    for all pairs and q_incidence[g(i)] = q_incidence[i] for all i.  All
    violations are reported, not just the first, in the pair order of
    `itertools.combinations`; rows are compared whole, and only a row that
    differs is scanned pair by pair.
    """
    if action.degree != len(system):
        raise ParameterError(
            f"action degree {action.degree} does not match curve count {len(system)}"
        )
    gram = system.pair_gram
    qinc = system.q_incidence
    n = len(qinc)
    if n == 1:  # the one permutation of one curve fixes it; itemgetter(0) gives no tuple
        return ValidationReport(ok=True, violations=())
    violations: list[str] = []
    for k, gen in enumerate(action.generators):
        p = [img - 1 for img in gen]
        moved = itemgetter(*p)
        if moved(qinc) != qinc:
            for i in range(n):
                if qinc[p[i]] != qinc[i]:
                    violations.append(
                        f"generator {k + 1}: curve {i + 1} has Q-incidence {qinc[i]} "
                        f"but its image {p[i] + 1} has {qinc[p[i]]}"
                    )
        for i, row in enumerate(gram):
            image = gram[p[i]]
            if moved(image) == row:
                continue
            for j in range(i + 1, n):
                if image[p[j]] != row[j]:
                    violations.append(
                        f"generator {k + 1}: curves ({i + 1},{j + 1}) intersect in {row[j]} "
                        f"but their images ({p[i] + 1},{p[j] + 1}) intersect in {image[p[j]]}"
                    )
    return ValidationReport(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class EllResult:
    """ell with a witness: the witness is a union of orbits, every member
    meets Q, members are pairwise disjoint, and |witness| = ell."""

    ell: int
    witness: tuple[int, ...]
    witness_orbits: tuple[tuple[int, ...], ...]


def _require_valid(system: CurveSystem, action: GaloisAction) -> None:
    report = validate_action(system, action)
    if not report.ok:
        raise InvalidActionError(
            f"action violates the intersection form ({len(report.violations)} violations)",
            report=report,
        )


def compute_ell(system: CurveSystem, action: GaloisAction) -> EllResult:
    """Exact ell by branch and bound over the orbit conflict graph.

    Admissible orbits are sorted by decreasing size; the search includes or
    skips each in turn and prunes a branch as soon as the current weight plus
    everything still available, capped at rank - 1, cannot beat the best
    found.  The cap holds because a witness's curves have Gram matrix -I and
    so span a negative definite subspace of Pic, whose signature is
    (1, rank - 1); it needs the (-1)-classes that `CurveSystem` checks on
    construction.  Once the best found reaches the cap, every frame returns.
    The first optimum in this fixed order is returned, so results are
    deterministic.
    """
    _require_valid(system, action)
    masks = system.masks
    off_q = sum(1 << i for i, q in enumerate(system.q_incidence) if q < 1)
    # admissible: every member meets Q, and no member meets another
    cands, members = [], []
    for orb in sorted(orbit_partition(action), key=lambda o: (-len(o), o)):
        mem = sum(1 << i for i in orb)
        if not mem & off_q and all(masks[i] & mem == 1 << i for i in orb):
            cands.append(orb)
            members.append(mem)
    k = len(cands)
    sizes = [len(o) for o in cands]
    compat = _Compatible(cands, members, masks)
    # the bound is the total size of the orbits still available, counted by size
    by_size: dict[int, int] = {}
    for i, size in enumerate(sizes):
        by_size[size] = by_size.get(size, 0) | 1 << i

    best_weight, best_choice = _walk((1 << k) - 1, 0, (), (0, ()), compat, sizes,
                                     tuple(by_size.items()), system.model.rank - 1)
    picked = tuple(cands[i] for i in sorted(best_choice, key=lambda i: cands[i]))
    witness = tuple(sorted(i for orb in picked for i in orb))
    return EllResult(ell=best_weight, witness=witness, witness_orbits=picked)


class _Compatible(dict):
    """compat[i], built when the search first branches on orbit i: the mask
    of the candidate orbits that do not conflict with it (two orbits
    conflict when one meets a member of the other)."""

    def __init__(self, cands, members, masks) -> None:
        self.cands, self.members, self.masks = cands, members, masks

    def __missing__(self, i: int) -> int:
        reach = reduce(or_, (self.masks[c] for c in self.cands[i]))
        row = self[i] = sum(1 << j for j, mem in enumerate(self.members) if not reach & mem)
        return row


def _walk(avail, weight, chosen, best, compat, sizes, groups, cap) -> tuple[int, tuple[int, ...]]:
    """The best (weight, choice) of `compute_ell`'s search below one branch:
    best, unless a choice that extends `chosen` by orbits in `avail`, taken
    lowest index first, weighs more.  groups pairs each orbit size with the
    mask of the orbits of that size; cap bounds every weight."""
    if weight > best[0]:
        best = (weight, chosen)
    remaining = sum(size * (avail & mask).bit_count() for size, mask in groups)
    while avail:
        if min(weight + remaining, cap) <= best[0]:
            return best
        i = (avail & -avail).bit_length() - 1
        avail &= avail - 1
        best = _walk(avail & compat[i], weight + sizes[i], chosen + (i,), best,
                     compat, sizes, groups, cap)
        remaining -= sizes[i]
    return best


def _subset_unions(masks: list[int]) -> list[int]:
    """The OR of every subset of masks, at the index whose bit t marks masks[t]."""
    unions = [0]
    for mask in masks:
        unions += [u | mask for u in unions]
    return unions


def brute_force_ell(system: CurveSystem, action: GaloisAction) -> EllResult:
    """Independent oracle: exhaust every union of orbits.

    A curve's mask marks the other curves it meets (not itself: the
    diagonal is -1), and an orbit's "meets" mask ORs its members' masks.
    Each half of the orbits gets a table of the union U of members and the
    union N of meets over each of its subsets; with the high half outside,
    the unions come in orbit-bitmask order 1 .. 2^k - 1.  U is admissible
    iff it has no curve off Q and U & N == 0.  No pruning beyond the size
    guard: every union is tested, and the first largest is the witness.
    """
    if len(system) > BRUTE_FORCE_LIMIT:
        raise SystemSizeError(
            f"brute force supports at most {BRUTE_FORCE_LIMIT} curves, got {len(system)}"
        )
    _require_valid(system, action)
    orbits = orbit_partition(action)
    gram = system.pair_gram
    meets = [sum(1 << j for j, x in enumerate(row) if x != 0 and j != i)
             for i, row in enumerate(gram)]
    outside_q = ~sum(1 << i for i, q in enumerate(system.q_incidence) if q >= 1)
    members = [sum(1 << i for i in orb) for orb in orbits]
    orbit_meets = [reduce(or_, (meets[i] for i in orb)) for orb in orbits]
    half = (len(orbits) + 1) // 2
    low = list(zip(_subset_unions(members[:half]), _subset_unions(orbit_meets[:half])))
    high = zip(_subset_unions(members[half:]), _subset_unions(orbit_meets[half:]))
    best, best_index = 0, 0
    for hi, (high_u, high_n) in enumerate(high):
        for lo, (low_u, low_n) in enumerate(low):
            u = high_u | low_u
            if u & outside_q or u & (high_n | low_n):
                continue
            if u.bit_count() > best:
                best, best_index = u.bit_count(), hi << half | lo
    chosen = tuple(orb for t, orb in enumerate(orbits) if best_index >> t & 1)
    witness = tuple(sorted(i for orb in chosen for i in orb))
    return EllResult(ell=best, witness=witness, witness_orbits=chosen)
