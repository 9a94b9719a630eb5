"""Classical extremal sizes for sum-free sets in prime-power groups.

For p = 1 mod 3 the largest sum-free subset of Z_p^s has exactly
k * p^(s-1) elements with k = (p-1)/3 (Rhemtulla and Street).  At p = 7
that density meets the 2/7 guarantee exactly, which is what makes the
guarantee unimprovable in general.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import GroupSpec
from .oracle import SumFreeWitness, max_sum_free
from .primes import is_prime

#: Largest s * bit_length(p) accepted, so p^s has at most 617 decimal
#: digits: below 640, the least int-to-str digit limit Python can be set
#: to, so the report prints whatever that setting is.
MAX_ORDER_BITS = 2048


def rhemtulla_street_bound(p: int, s: int) -> int:
    """Largest sum-free subset size in Z_p^s, p prime, p = 1 mod 3.

    Refused before p^(s-1) is built when s * bit_length(p) is above
    MAX_ORDER_BITS.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 3 != 1:
        raise ValueError(f"{p} is not 1 mod 3; the formula does not apply")
    if s < 1:
        raise ValueError("rank must be at least 1")
    if s * p.bit_length() > MAX_ORDER_BITS:
        raise ValueError(
            f"rank s = {s} times the {p.bit_length()} bits of p = {p} is above the "
            f"{MAX_ORDER_BITS}-bit cap on the group order p**s"
        )
    return (p - 1) // 3 * p ** (s - 1)


def density(p: int, s: int) -> Fraction:
    """The extremal size divided by the group order: (1 - 1/p)/3."""
    return Fraction(rhemtulla_street_bound(p, s), p**s)


@dataclass(frozen=True)
class TightnessReport:
    """The Z_7 instance where guarantee and extremal size coincide."""

    p: int
    s: int
    m: int
    bound: int
    oracle_max: int
    witness: SumFreeWitness
    two_sevenths_of_m_plus_1: Fraction
    matched: bool


def tightness_instance() -> TightnessReport:
    """Certify tightness on the nonzero elements of Z_7."""
    spec = GroupSpec(7, 1)
    elements = [(v,) for v in range(1, 7)]
    witness = max_sum_free(elements, add=spec.add)
    bound = rhemtulla_street_bound(7, 1)
    target = Fraction(2, 7) * (len(elements) + 1)
    return TightnessReport(
        p=7,
        s=1,
        m=len(elements),
        bound=bound,
        oracle_max=witness.size,
        witness=witness,
        two_sevenths_of_m_plus_1=target,
        matched=witness.size == bound and Fraction(witness.size) == target,
    )
