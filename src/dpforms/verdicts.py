"""Tri-state rationality and cylindricity verdicts.

The decision table maps (m, n, ell, q_point) to a pair of verdicts, where
q_point records whether the negative section has a rational point.  Open
means "not determined", never "error": every combination the classification
theorems leave untouched comes back Open rather than guessed.

Citations are clause tags: "thm:intermediate(k)" for the n <= m+3 cases,
"thm:m+4(k)" and "thm:m+5(k)" for the two boundary cases, numbering clauses
in statement order (the value-constraint clause of each boundary theorem is
clause 2 and is cited by feasible_ell, not by classify).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import InfeasibleEllError, ParameterError
from .lattice import check_mn, integral, is_del_pezzo


class TriState(enum.Enum):
    YES = "yes"
    NO = "no"
    OPEN = "open"

    def __str__(self) -> str:
        return self.value


def parse_tristate(text: str) -> TriState:
    """Parse yes/no/open; "unknown" is accepted as a synonym for open."""
    key = text.strip().lower()
    try:
        return TriState("open" if key == "unknown" else key)
    except ValueError:
        raise ParameterError(f"expected yes, no, or unknown, got {text!r}") from None


@dataclass(frozen=True)
class Verdict:
    rational: TriState
    cylindrical: TriState
    citations: tuple[str, ...]
    notes: tuple[str, ...]


def q_point_forced(m: int) -> bool:
    """Whether the negative section always carries a rational point.

    For odd m the section has odd anticanonical degree 2 - m, so its Galois
    orbit structure forces a rational point; even m has no such guarantee.
    """
    m, _ = check_mn(m)
    return m % 2 == 1


def feasible_ell(m: int, n: int) -> frozenset[int]:
    """The values ell can take.  Defined only for n = m+4 and n = m+5.

    n = m+4: {0..m+2} and m+4 (m+3 never occurs).
    n = m+5: {1..m+3} and m+5, m+6 (ell >= 1 always; m+4 never occurs).
    """
    m, _ = check_mn(m)
    n = integral("n", n)
    if n == m + 4:
        return frozenset(range(0, m + 3)) | {m + 4}
    if n == m + 5:
        return frozenset(range(1, m + 4)) | {m + 5, m + 6}
    raise ParameterError(f"ell is undefined for n = {n} (needs n = m+4 or n = m+5)")


def classify(
    m: int,
    n: int,
    ell: int | None = None,
    q_point: TriState | str = TriState.OPEN,
) -> Verdict:
    """Decision table for rationality and cylindricity.

    ell must be supplied exactly when n is m+4 or m+5, and must be feasible.
    For odd m the q_point input is upgraded to yes (the negative section is
    forced to carry a rational point); a note records the upgrade.
    """
    if isinstance(q_point, str):
        q_point = parse_tristate(q_point)
    m, n = check_mn(m, n)

    notes: list[str] = []
    if not is_del_pezzo(m, n):
        notes.append(
            f"(m, n) = ({m}, {n}) lies outside the del Pezzo range; "
            "the classification is applied formally"
        )
    if q_point_forced(m) and q_point is not TriState.YES:
        if q_point is TriState.NO:
            notes.append(
                "q_point no is impossible for odd m and was overridden"
            )
        notes.append("m is odd, so the negative section has a rational point; q_point set to yes")
        q_point = TriState.YES

    if ell is None:
        if n >= m + 4:
            raise ParameterError(f"ell is required for n = {n}")
    else:
        allowed = feasible_ell(m, n)
        ell = integral("ell", ell)
        if ell not in allowed:
            raise InfeasibleEllError(
                f"ell = {ell} is not feasible for (m, n) = ({m}, {n}); "
                f"allowed values: {sorted(allowed)}",
                feasible=allowed,
            )

    yes, no, open_ = TriState.YES, TriState.NO, TriState.OPEN
    yes_if_q_point = yes if q_point is yes else open_

    if n <= m + 1:
        return Verdict(q_point, yes, ("thm:intermediate(1)",), tuple(notes))
    if n == m + 2:
        return Verdict(yes_if_q_point, yes_if_q_point, ("thm:intermediate(2)",), tuple(notes))
    if n == m + 3:
        return Verdict(yes, yes_if_q_point, ("thm:intermediate(3)",), tuple(notes))

    assert ell is not None
    if n == m + 4:
        if ell <= m:
            return Verdict(no, no, ("thm:m+4(1)",), tuple(notes))
        if ell == m + 1:
            return Verdict(yes, yes, ("thm:m+4(3)",), tuple(notes))
        if ell == m + 2:
            return Verdict(yes_if_q_point, yes_if_q_point, ("thm:m+4(4)",), tuple(notes))
        both = yes if m % 2 == 1 else open_
        return Verdict(both, both, ("thm:m+4(5)",), tuple(notes))

    if ell <= m + 1:
        return Verdict(no, no, ("thm:m+5(1)",), tuple(notes))
    if ell in (m + 2, m + 6):
        return Verdict(yes, yes, ("thm:m+5(3)",), tuple(notes))
    if ell == m + 3:
        return Verdict(yes_if_q_point, yes_if_q_point, ("thm:m+5(4)",), tuple(notes))
    return Verdict(yes, yes_if_q_point, ("thm:m+5(5)",), tuple(notes))
