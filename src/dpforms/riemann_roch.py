"""Orbifold Riemann-Roch for the singular surfaces.

The contracted surface has a single quotient singularity of type (1/m)(1, 1).
For the anti-plurigenus h^0(-jK) the Euler characteristic picks up a periodic
correction c(m, j) from that point, determined by the residue
t = -2j mod m:

    c = 0                                             if t = 0
    c = (1/m) * ( -(m-1)/2 + (m-t+1)(t-1)/2 )         if 1 <= t <= m-1

The t = 0 branch is genuinely needed: for m = 2 every correction vanishes
(t is always 0), and for m = 4 the nonzero residue t = 2 also evaluates to 0,
so generic-looking closed forms that assume t != 0 fail exactly there.

h^0 is exact integer arithmetic: 2m * chi = 2m + j(j+1) m K_X^2 + 2m c, with
m K_X^2 = (m+2)^2 - nm from `lattice._m_k_squared`, must divide by 2m into a
non-negative quotient, and anything else raises InternalInvariantError.
chi is h^0 only where K_X^2 > 0, so every other (m, n) is refused with a
ParameterError first.  Fractions remain only for the reported correction c.
Each public function checks its arguments once, then calls unchecked cores
(`_residue`, `_correction`, `_h0`) on the checked ints, once per table row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariantError, ParameterError
from .lattice import _m_k_squared, _require_del_pezzo, check_mn, integral


def _nonnegative_j(j) -> int:
    j = integral("j", j)
    if j < 0:
        raise ParameterError(f"j must be >= 0, got {j}")
    return j


def _residue(m: int, j: int) -> int:
    return (-2 * j) % m


def _scaled_correction(m: int, t: int) -> int:
    """2m * c for the residue t: the correction over the common denominator 2m."""
    if t == 0:
        return 0
    return (m - t + 1) * (t - 1) - (m - 1)


def _correction(m: int, j: int) -> Fraction:
    return Fraction(_scaled_correction(m, _residue(m, j)), 2 * m)


def _h0(m: int, n: int, j: int) -> int:
    """h^0(-jK) for checked (m, n) with K_X^2 > 0 and a checked j >= 0."""
    scale = 2 * m
    scaled = scale + j * (j + 1) * _m_k_squared(m, n) + _scaled_correction(m, _residue(m, j))
    h0, rest = divmod(scaled, scale)
    if rest:
        raise InternalInvariantError(
            f"anti-plurigenus chi(m={m}, n={n}, j={j}) = {Fraction(scaled, scale)} "
            "is not an integer"
        )
    if h0 < 0:
        raise InternalInvariantError(
            f"anti-plurigenus chi(m={m}, n={n}, j={j}) = {h0} is negative"
        )
    return h0


def correction_residue(m: int, j: int) -> int:
    """The residue t = -2j mod m, normalized to 0 <= t <= m-1."""
    m, _ = check_mn(m)
    return _residue(m, _nonnegative_j(j))


def correction_term(m: int, j: int) -> Fraction:
    """Correction to chi(-jK) from the (1/m)(1,1) point.  Periodic: c(m, j) = c(m, j+m)."""
    m, _ = check_mn(m)
    return _correction(m, _nonnegative_j(j))


def h0_anti_plurigenus(m: int, n: int, j: int) -> int:
    """h^0 of -jK on the singular surface: 1 + j(j+1)/2 * K^2 + c(m, j).

    Refused where K_X^2 <= 0.  On the del Pezzo surfaces the result is a
    dimension, so a non-integral or negative value can only mean a broken
    invariant, and the guard raises InternalInvariantError rather than rounding.
    """
    m, n = _require_del_pezzo(m, n, "anti-plurigenera")
    return _h0(m, n, _nonnegative_j(j))


@dataclass(frozen=True)
class EmbeddingDescriptor:
    """Weights and hypersurface degrees of the anticanonical model of the n = m+4 surface."""

    m: int
    weights: tuple[int, ...]
    degrees: tuple[int, ...]


def embedding_descriptor(m: int) -> EmbeddingDescriptor:
    """Anticanonical model of the surface with n = m+4.

    m = 2u:   hypersurface of degree 2u+2 in P(1, 1, u, u+1).
    m = 2u-1: complete intersection of two degree-2u hypersurfaces
              in P(1, 1, u, u, 2u-1).
    """
    m, _ = check_mn(m)
    if m % 2 == 0:
        u = m // 2
        return EmbeddingDescriptor(m=m, weights=(1, 1, u, u + 1), degrees=(2 * u + 2,))
    u = (m + 1) // 2
    return EmbeddingDescriptor(m=m, weights=(1, 1, u, u, 2 * u - 1), degrees=(2 * u, 2 * u))


@dataclass(frozen=True)
class TableRow:
    j: int
    residue: int
    correction: Fraction
    h0: int


def anti_plurigenus_table(m: int, n: int, max_j: int) -> tuple[TableRow, ...]:
    """Rows (j, t, c, h^0) for j = 1..max_j.  Refused where K_X^2 <= 0, where
    the Riemann-Roch value is not h^0 (it turns negative)."""
    max_j = integral("max_j", max_j)
    if max_j < 1:
        raise ParameterError(f"max_j must be >= 1, got {max_j}")
    m, n = _require_del_pezzo(m, n, "anti-plurigenus tables")
    return tuple(TableRow(j=j, residue=_residue(m, j), correction=_correction(m, j), h0=_h0(m, n, j))
                 for j in range(1, max_j + 1))
