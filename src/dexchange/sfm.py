"""Pinned-element submodular minimization over the dense rank table.

The coordinate step asks: over subsets S of a free ground set, minimize
``f_beta(S + pinned) - R(S)``.  The greedy calls it once per user; the convex
rounds read the same answer off the slack they keep on the rank table, and
take it as an explicit engine only when a caller passes one.  That function
is fully submodular on the free set, but with every joint rank already in
one array, evaluating all 2^|free| subsets as a single array expression is
exact, tuning-free and fast up to the rank table's user cap
(``model.MAX_TABLE_USERS``), so this enumeration, not a combinatorial SFM
algorithm, is the exact engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import CutSetOracle, members, subset_sums


@dataclass(frozen=True)
class GroundSet:
    """Free-element bitmask plus one pinned element always in the argument."""

    free: int
    pinned: int

    def __post_init__(self):
        if self.pinned < 0:
            raise ValueError("pinned element must be a user index")
        if self.free & (1 << self.pinned):
            raise ValueError("pinned element may not appear in the free set")


def min_pinned(oracle: CutSetOracle, beta: int, rates, ground: GroundSet) -> int:
    """Minimum of ``cut_set_f(beta, S + pinned) - sum(rates over S)`` over
    all S inside the free set."""
    if beta < 0:
        raise ValueError("budget must be non-negative")
    pin_bit = 1 << ground.pinned
    if (ground.free | pin_bit) > oracle.instance.full_mask:
        raise ValueError(f"ground set has users beyond user count {oracle.instance.m}")
    positions = members(ground.free)
    # Submasks of the free set in increasing order, built by doubling over
    # its members from the lowest up; their rate sums follow the same order.
    subs = subset_sums(1 << b for b in positions)
    vals = oracle.ranks[subs | pin_bit] - subset_sums(rates[b] for b in positions)
    # f(T) = beta - N + rank(T) for every nonempty T, the full set included,
    # because the instance's collective rank is N.
    return beta - oracle.instance.n_packets + int(vals.min())
