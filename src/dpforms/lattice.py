"""Exact Picard-lattice models for the resolved surfaces studied by this package.

The surfaces are indexed by integers m >= 2 and 1 <= n <= m+5.  The minimal
resolution Y of such a surface is a Hirzebruch surface of degree m blown up in
n general points; the singular surface itself is obtained by contracting the
negative section Q.  Two integral bases for Pic(Y) are supported:

* ``hirzebruch`` (any n): basis (Q, F, E_1, ..., E_n) where Q is the negative
  section (Q^2 = -m), F a ruling fiber (F^2 = 0, Q.F = 1) and E_i the
  exceptional curves of the n blow-ups.  Rank n + 2.

* ``plane`` (only n = m+4): Y is also a blow-up of the projective plane in
  m+4 points on a conic plus one extra point.  Basis (e_0, e_1, ..., e_{m+5})
  with e_0 a line and e_j exceptional, Gram matrix diag(1, -1, ..., -1).
  Rank m + 6.  Here Q = 2e_0 - e_1 - ... - e_{m+4} (the strict transform of
  the conic) and the last blow-up e_{m+5} sits off the conic.

Coefficient order in every serialized class matches the basis order above.
All arithmetic is exact: integer coefficient vectors, Fraction-valued
invariants, no floating point anywhere in this module.

Bulk pairings of dual rows (``SurfaceModel.dual``) with coefficient vectors go
through `_products`, by Kronecker substitution (von zur Gathen & Gerhard,
*Modern Computer Algebra*, 8.4): coordinate k of all N vectors packs into one
integer, a W-byte digit per vector, so a row of pairings is one short sum of
big integers read back as W-byte words.  A column packs in C: one
``struct.pack`` writes its entries, each offset by 2^(8W-1), as unsigned
native W-byte words, and those bytes, read as one integer, lose the N offsets
in one subtraction.  Entries and coefficients that may pass 8 bytes (from
about 2^28 up) take a dot product each.  `_products` is the one kernel, and
only it knows the byte layout: from each packed row it reads the row's words
as ints and the bitmask of its nonzero entries (``CurveSystem.masks``), so
it returns every table with its masks, and a caller that needs only the
table drops them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import prod
from operator import mul, or_
from struct import pack

from .errors import BasisMismatchError, InternalInvariantError, ParameterError

HIRZEBRUCH = "hirzebruch"
PLANE = "plane"
KINDS = (HIRZEBRUCH, PLANE)
_WORD_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}  # struct codes of signed W-byte words
_NONZERO = b"0" + b"1" * 255  # a bytes.translate table: byte 0 -> "0", any other -> "1"


@dataclass(frozen=True)
class DivisorClass:
    """An integral divisor class written in the basis of a fixed model.

    basis is an opaque tag identifying that model; mixing bases raises
    BasisMismatchError instead of silently producing garbage.
    """

    basis: str
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", integers("divisor class coefficient", self.coeffs))

    def _matched(self, other: "DivisorClass") -> None:
        if self.basis != other.basis:
            raise BasisMismatchError(
                f"classes live in different bases: {self.basis!r} vs {other.basis!r}"
            )
        if len(self.coeffs) != len(other.coeffs):
            raise BasisMismatchError(f"classes with {len(self.coeffs)} and {len(other.coeffs)} "
                                     f"coefficients in basis {self.basis!r}")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._matched(other)
        return DivisorClass(self.basis, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._matched(other)
        return DivisorClass(self.basis, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)


@dataclass(frozen=True)
class SurfaceModel:
    """A Picard-lattice model of resolved (m, n), Hirzebruch basis by default; construction
    refuses what `check_mn` refuses, kinds outside KINDS and a plane basis off n = m+4."""

    m: int
    n: int
    kind: str = HIRZEBRUCH

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ParameterError(f"unknown basis kind {self.kind!r}; expected one of {KINDS}")
        m, n = check_mn(self.m, self.n)
        if self.kind == PLANE and n != m + 4:
            raise ParameterError(f"plane basis requires n = m+4 = {m + 4}, got n = {n}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    @property
    def rank(self) -> int:
        return self.n + 2 if self.kind == HIRZEBRUCH else self.m + 6

    @cached_property
    def basis_tag(self) -> str:
        return f"{self.kind}(m={self.m},n={self.n})"

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        r = self.rank
        g = [[0] * r for _ in range(r)]
        if self.kind == HIRZEBRUCH:
            g[0][0] = -self.m
            g[0][1] = g[1][0] = 1
            for i in range(2, r):
                g[i][i] = -1
        else:
            g[0][0] = 1
            for i in range(1, r):
                g[i][i] = -1
        return tuple(tuple(row) for row in g)

    @cached_property
    def basis_names(self) -> tuple[str, ...]:
        if self.kind == HIRZEBRUCH:
            return ("Q", "F") + tuple(f"E_{i}" for i in range(1, self.n + 1))
        return tuple(f"e_{j}" for j in range(self.m + 6))

    def divisor(self, coeffs) -> DivisorClass:
        coeffs = tuple(coeffs)
        if len(coeffs) != self.rank:
            raise ParameterError(
                f"expected {self.rank} coefficients for {self.basis_tag}, got {len(coeffs)}"
            )
        return DivisorClass(self.basis_tag, coeffs)

    def basis_class(self, index: int) -> DivisorClass:
        return self.divisor(tuple(1 if i == index else 0 for i in range(self.rank)))

    def _owned(self, cls: DivisorClass) -> None:
        if cls.basis != self.basis_tag:
            raise BasisMismatchError(
                f"class in basis {cls.basis!r} paired inside model {self.basis_tag!r}"
            )
        if len(cls.coeffs) != self.rank:
            raise BasisMismatchError(
                f"class with {len(cls.coeffs)} coefficients paired inside model "
                f"{self.basis_tag!r} of rank {self.rank}"
            )

    @cached_property
    def pivots(self) -> tuple[Fraction, ...]:
        """The pivots of `_pivots` on the Gram matrix, computed once per model:
        signature and determinant both read them."""
        return tuple(_pivots(self.gram))

    def dual(self, cls: DivisorClass) -> tuple[int, ...]:
        """The dual row gram . v of a class v of this model: v.w is
        ``sum(map(mul, dual(v), w.coeffs))`` for every class w of this model."""
        self._owned(cls)
        return tuple(sum(map(mul, row, cls.coeffs)) for row in self.gram)

    def intersect(self, a: DivisorClass, b: DivisorClass) -> int:
        row = self.dual(a)
        self._owned(b)
        return sum(map(mul, row, b.coeffs))

    @cached_property
    def anticanonical(self) -> DivisorClass:
        if self.kind == HIRZEBRUCH:
            return self.divisor((2, self.m + 2) + (-1,) * self.n)
        return self.divisor((3,) + (-1,) * (self.m + 5))

    @cached_property
    def distinguished(self) -> dict[str, DivisorClass]:
        """Named classes in this basis.

        Hirzebruch: Q, F, E_1..E_n.  Plane: e_0..e_{m+5}, Q, E_1..E_{m+4}
        (aliases of e_i) and the conic-fibration residuals E_i' = e_0 - e_i - e_{m+5}.
        """
        named: dict[str, DivisorClass] = {}
        if self.kind == HIRZEBRUCH:
            named["Q"] = self.basis_class(0)
            named["F"] = self.basis_class(1)
            for i in range(1, self.n + 1):
                named[f"E_{i}"] = self.basis_class(i + 1)
        else:
            e = [self.basis_class(j) for j in range(self.rank)]
            named.update((f"e_{j}", c) for j, c in enumerate(e))
            named["Q"] = self.divisor([2] + [-1] * (self.m + 4) + [0])
            for i in range(1, self.m + 5):
                named[f"E_{i}"] = e[i]
                named[f"E_{i}'"] = e[0] - e[i] - e[-1]
        return named


build_model = SurfaceModel


def _products(lefts, rights) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(table, masks): the table of ``sum(map(mul, d, w))`` over d in lefts
    and w in rights and, per row, the int whose bit j is set iff entry j is
    nonzero.  W is the least of 1, 2, 4, 8 bytes that holds every entry and
    every coefficient as a signed digit, and entry j of a packed row is the
    two's complement W-byte word at bytes [jW, (j+1)W) in native order.  A
    mask reads the same bytes: the OR of their W byte-strided slices has one
    byte per entry, which `_NONZERO` spells as binary digits, last entry
    first.  Past 8 bytes W is 0 and each entry is a dot product."""
    tops = [max(map(abs, col)) for col in zip(*rights)]
    bound = max(max(sum(map(mul, map(abs, d), tops)) for d in lefts), *tops)
    width = next((w for w in (1, 2, 4, 8) if bound < 1 << (8 * w - 1)), 0)
    if not width:
        table = tuple(tuple(sum(map(mul, d, w)) for w in rights) for d in lefts)
        return table, tuple(sum(1 << j for j, x in enumerate(row) if x) for row in table)
    n, half, code = len(rights), 1 << (8 * width - 1), _WORD_CODES[width]
    # +2^(8W-1) per digit leaves none negative: bias is that offset on all n digits
    bias = int.from_bytes((b"\x80" + bytes(width - 1)) * n, "big")
    packed = [int.from_bytes(pack(f"{n}{code.upper()}", *map(half.__add__, col)),
                             sys.byteorder) - bias for col in zip(*rights)]
    table, masks = [], []
    for d in lefts:
        # the XOR turns each biased digit of the row into its W-byte two's complement
        row = ((sum(map(mul, d, packed)) + bias) ^ bias).to_bytes(n * width, sys.byteorder)
        table.append(tuple(memoryview(row).cast(code)))
        if width > 1:
            row = reduce(or_, (int.from_bytes(row[k::width], "little") for k in range(width))
                         ).to_bytes(n, "little")
        masks.append(int(row.translate(_NONZERO)[::-1], 2))
    return tuple(table), tuple(masks)


def _m_k_squared(m: int, n: int) -> int:
    """m K_X^2 = (m+2)^2 - nm, an integer: K_X^2 = 8 - n + (m-2)^2/m."""
    return (m + 2) ** 2 - n * m


def integral(name: str, value) -> int:
    """value as an int, refused unless it is one: 3 and 3.0 pass, 3.5, "3"
    and True do not."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        as_int = None
    if as_int is None or as_int != value or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return as_int


def integers(name: str, values) -> tuple[int, ...]:
    """values as a tuple of ints: one type scan when all are ints, else `integral` on each."""
    values = tuple(values)
    if {*map(type, values)} - {int}:
        values = tuple(integral(name, x) for x in values)
    return values


def check_mn(m: int, n: int | None = None) -> tuple[int, int | None]:
    """(m, n) as integers, refused unless both are integral, m >= 2 and, when
    n is given, 1 <= n <= m+5."""
    m = integral("m", m)
    if m < 2:
        raise ParameterError(f"m must be >= 2, got {m}")
    if n is not None:
        n = integral("n", n)
        if not 1 <= n <= m + 5:
            raise ParameterError(f"n must satisfy 1 <= n <= m+5 = {m + 5}, got {n}")
    return m, n


def k_squared_singular(m: int, n: int) -> Fraction:
    """Self-intersection of the anticanonical class on the singular surface.

    Exact value 8 - n + (m-2)^2/m.  For n = m+4 this collapses to 4/m.
    """
    m, n = check_mn(m, n)
    return Fraction(_m_k_squared(m, n), m)


def is_del_pezzo(m: int, n: int) -> bool:
    """Whether the contracted surface is del Pezzo, K_X^2 > 0: for every
    n <= m+4, and at n = m+5 only for m = 2, 3."""
    m, n = check_mn(m, n)
    return _m_k_squared(m, n) > 0


def _require_del_pezzo(m: int, n: int, what: str) -> tuple[int, int]:
    """(m, n) checked, refused with a ParameterError naming K_X^2 unless K_X^2 > 0."""
    m, n = check_mn(m, n)
    if (mk2 := _m_k_squared(m, n)) <= 0:
        raise ParameterError(f"{what} need K_X^2 > 0; (m, n) = ({m}, {n}) has "
                             f"K_X^2 = {Fraction(mk2, m)}")
    return m, n


def _pivots(gram) -> list[Fraction]:
    """Diagonal of an exact symmetric congruence diagonalization, as Fractions.

    Int entries stay ints until a division makes a Fraction; any other entry
    becomes a Fraction first.  A row and column that are already zero are
    skipped and contribute a 0 pivot, and a zero entry below a pivot is
    skipped before any division, so a nearly diagonal integer matrix costs
    few Fraction operations.  Every step (swap, fold, elimination) is a
    congruence by a matrix of determinant +-1, so the determinant is the
    product of the pivots.
    """
    a = [[x if type(x) is int else Fraction(x) for x in row] for row in gram]
    r = len(a)
    for row in a:
        if len(row) != r:
            raise ParameterError("gram matrix must be square")
    for i in range(r):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ParameterError("gram matrix must be symmetric")
    pivots = []
    for k in range(r):
        if a[k][k] == 0:
            pivot = next((l for l in range(k + 1, r) if a[l][l] != 0), None)
            if pivot is not None:
                a[k], a[pivot] = a[pivot], a[k]
                for row in a:
                    row[k], row[pivot] = row[pivot], row[k]
            else:
                off = next((l for l in range(k + 1, r) if a[k][l] != 0), None)
                if off is None:
                    pivots.append(Fraction(0))  # zero row and column
                    continue
                # fold row/col `off` into k to create a nonzero diagonal entry
                for j in range(r):
                    a[k][j] += a[off][j]
                for i in range(r):
                    a[i][k] += a[i][off]
        d = a[k][k]
        pivots.append(Fraction(d))
        for i in range(k + 1, r):
            if not a[i][k]:
                continue
            f = Fraction(a[i][k]) / d
            for j in range(r):
                a[i][j] -= f * a[k][j]
            for i2 in range(r):
                a[i2][i] -= f * a[i2][k]
    return pivots


def _signature(pivots) -> tuple[int, int]:
    return sum(p > 0 for p in pivots), sum(p < 0 for p in pivots)


def signature_of(gram) -> tuple[int, int]:
    """Signature (positive, negative) of a symmetric rational matrix.

    Exact symmetric congruence diagonalization over the rationals; no eigenvalues,
    no floating point.
    """
    return _signature(_pivots(gram))


def lattice_signature(model: SurfaceModel) -> tuple[int, int]:
    return _signature(model.pivots)


def gram_determinant(model: SurfaceModel) -> int:
    """Exact determinant of the model's Gram matrix, the product of its cached
    pivots; a fractional product breaks an invariant (InternalInvariantError)."""
    det = prod(model.pivots, start=Fraction(1))
    if det.denominator != 1:
        raise InternalInvariantError("integer matrix produced non-integer determinant")
    return int(det)


def is_unimodular(model: SurfaceModel) -> bool:
    return abs(gram_determinant(model)) == 1

