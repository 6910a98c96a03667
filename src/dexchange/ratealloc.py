"""Deterministic rate-allocation solvers over the cut-set polyhedron.

Given a total budget ``beta``, the feasible allocations form the base
polytope of the budgeted cut-set function.  The solvers here walk that
polytope:

* :func:`modified_edmonds` greedily saturates one coordinate at a time in
  cost order (optimal for linear costs), detecting infeasible budgets as a
  shortfall in the achieved sum.
* :func:`convex_alloc` grows the allocation one unit per round, always
  giving the unit to the cheapest user whose increment stays inside the
  polytope (optimal for any separable convex non-decreasing cost), through
  the round driver :func:`allocate_rounds` that the randomized solver shares.
  The slack g(U) = f_beta(U) - R(U) over the rank table and the next-unit
  costs are kept across rounds; a round updates them for the chosen user.
* :func:`min_cost` searches the budget axis once, with
  :func:`optimal_budget`, using the convexity of the per-budget optimum.

The coordinate step ("how far can this user's rate grow") is a small
submodular minimization over the rank table, :func:`min_pinned`.  The greedy
reads it off two slices of the table permuted into its order, and the convex
rounds read their transmit set off the kept slack g.  Only the convex rounds
(``minimizer=`` of :func:`convex_alloc` and :func:`eval_h`) take an explicit
engine with its signature, asked once per user per round
(:func:`subgradient_minimizer`).

Per-user capacity caps plug into both solvers: capping the greedy coordinate
values (or filtering increment candidates) optimizes over the restriction of
the budgeted polytope, whose base polytope is exactly the capped original.
The brute-force partition and restriction bounds that certify these solvers
are in :mod:`dexchange.validate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import members, singleton_floor, subset_sums

#: Slack in the slope test of :func:`optimal_budget`: the fairness cost
#: sums irrational increments, so two optimal budget costs that are equal
#: in exact arithmetic may differ by rounding.  Increments themselves are
#: compared exactly.
D_TIE = 1e-12


class Infeasible(Exception):
    """A sum-rate budget (with or without caps) admits no allocation.

    Carries progress metadata: ``beta`` is the requested budget,
    ``achieved_sum`` the largest total the cut-set bounds (and caps) at
    ``beta`` admit, which is negative far below the minimum sum rate (greedy
    path), and ``rounds_completed`` how many unit increments succeeded
    (incremental path).
    """

    def __init__(self, message, *, beta=None, achieved_sum=None, rounds_completed=None):
        super().__init__(message)
        self.beta = beta
        self.achieved_sum = achieved_sum
        self.rounds_completed = rounds_completed


# ---------------------------------------------------------------------------
# Cost functions


class LinearCost:
    """Weighted sum of rates; weights must be positive (non-decreasing cost)."""

    kind = "linear"

    def __init__(self, weights):
        self.weights = tuple(weights)
        if not self.weights or any(w <= 0 for w in self.weights):
            raise ValueError("linear cost weights must be positive")

    def value(self, user: int, r: int):
        return self.weights[user] * r

    def deriv(self, user: int, r: int):
        return self.weights[user]


class FairCost:
    """Load-balancing cost ``r * log r`` (0 at r = 0).

    Its increments grow strictly with r, so the cheapest increment always
    goes to a least-loaded user, spreading transmissions as evenly as the
    polytope allows.
    """

    kind = "fair"

    def value(self, user: int, r: int):
        return r * math.log(r) if r > 0 else 0.0

    def deriv(self, user: int, r: int):
        return self.value(user, r) - self.value(user, r - 1)


class TableCost:
    """Separable convex cost given by per-user increment tables.

    ``derivs[i][k]`` is the cost of user i's (k+1)-th transmitted symbol;
    each table must be non-negative and non-decreasing (convexity plus
    monotonicity).  Past the end of a table the last increment repeats, so
    any prefix long enough for the budgets actually probed is sufficient.
    """

    kind = "table"

    def __init__(self, derivs):
        self.derivs = tuple(tuple(d) for d in derivs)
        if not self.derivs:
            raise ValueError("at least one derivative table required")
        for i, d in enumerate(self.derivs):
            if not d:
                raise ValueError(f"user {i}: empty derivative table")
            if not all(math.isfinite(v) for v in d):
                raise ValueError(f"user {i}: increments must be finite")
            if any(v < 0 for v in d):
                raise ValueError(f"user {i}: negative increment")
            if any(b < a for a, b in zip(d, d[1:])):
                raise ValueError(f"user {i}: increments must be non-decreasing")

    def deriv(self, user: int, r: int):
        d = self.derivs[user]
        return d[min(r, len(d)) - 1]

    def value(self, user: int, r: int):
        d = self.derivs[user]
        head = sum(d[: min(r, len(d))])
        extra = max(0, r - len(d))
        return head + extra * d[-1]


# ---------------------------------------------------------------------------
# Coordinate-minimization backends


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


def min_pinned(oracle, beta, rates, ground: GroundSet) -> int:
    """Minimum of ``cut_set_f(beta, S + pinned) - sum(rates over S)`` over all
    S inside the free set: the exact engine, all 2^|free| subsets in one array op."""
    if beta < 0:
        raise ValueError("budget must be non-negative")
    pin_bit = 1 << ground.pinned
    if (ground.free | pin_bit) > oracle.instance.full_mask:
        raise ValueError(f"ground set has users beyond user count {oracle.instance.m}")
    positions = members(ground.free)
    # Submasks of the free set and their rate sums, in the same order.
    subs = subset_sums(1 << b for b in positions)
    vals = oracle.ranks[subs | pin_bit] - subset_sums(rates[b] for b in positions)
    # f(T) = beta - N + rank(T) for every nonempty T: the full set has rank N.
    return beta - oracle.instance.n_packets + int(vals.min())


def subgrad_coordinate(oracle, beta, rates, ground: GroundSet) -> int:
    """Coordinate step via projected dual subgradient descent.

    Solves the same minimization as :func:`min_pinned` by relaxing the
    "already-fixed rates" equalities with multipliers, walking them with a
    constant step of 1/(4 N^2) from zero, and rounding the best dual value
    seen.  All arithmetic is exact: with integer subgradients every
    multiplier is an integer number of steps, so the dual values are
    compared as integers scaled by 4 N^2 and the final rounding cannot
    drift.  Step and iteration cap come from the instance alone.  Each
    iterate is a fixed function of the multipliers, so the loop stops at
    the first multiplier vector that repeats an earlier one (Brent's cycle
    check, one saved copy): the best dual value is then final.
    """
    inst = oracle.instance
    # The step 1/(4 N^2) lies below the stability bound 1/(2 N^2), and then
    # 8 N^2 m^2 + 1 iterations keep the best dual value within 1/2 of the
    # integer optimum at every feasible budget, so rounding it is exact.
    # Multipliers that never repeat run the whole cap.
    den = 4 * inst.n_packets**2
    iterations = 8 * inst.n_packets**2 * inst.m**2 + 1
    pin_bit = 1 << ground.pinned
    prefix = members(ground.free)
    if not prefix:
        return oracle.cut_set_f(beta, pin_bit)
    units = {k: 0 for k in prefix}  # multiplier of user k, in steps
    best_scaled = None  # best dual value seen, times den (exact int)
    saved = None  # Brent's check: units at the last iteration 2^k - 1
    for j in range(iterations + 1):
        # An iterate is a function of units alone, so once units repeats,
        # every later iterate repeats one already scored.
        if units == saved:
            break
        if j & (j + 1) == 0:
            saved = dict(units)
        order = sorted(prefix, key=lambda k: (-units[k], k))
        if units[order[0]] > den:  # top multiplier exceeds 1
            r_pin = 0
        else:
            r_pin = oracle.cut_set_f(beta, pin_bit)
        acc = r_pin
        mask = pin_bit
        grad = {}
        weighted = 0  # sum of units_k * (maximizer_k - rates_k)
        for k in order:
            mask |= 1 << k
            v = oracle.cut_set_f(beta, mask) - acc
            acc += v
            grad[k] = v - rates[k]
            weighted += units[k] * grad[k]
        scaled = r_pin * den + weighted
        if best_scaled is None or scaled < best_scaled:
            best_scaled = scaled
        if j < iterations:
            for k in prefix:
                units[k] = max(0, units[k] - grad[k])
    # round(best/den) with the guarantee |best/den - optimum| < 1/2
    return (2 * best_scaled + den) // (2 * den)


def subgradient_minimizer():
    """Backend selector: the dual-loop coordinate minimizer, looked up when
    this is called so that a wrapped ``subgrad_coordinate`` is the one used."""
    return subgrad_coordinate


# ---------------------------------------------------------------------------
# Solvers


@dataclass(frozen=True)
class Allocation:
    """A rate vector together with the budget that produced it.

    ``tsets`` is the per-round eligible-user trace of the incremental
    solvers (None on the greedy path).
    """

    rates: tuple[int, ...]
    beta: int
    tsets: tuple[tuple[int, ...], ...] | None = None

    @property
    def total(self) -> int:
        return sum(self.rates)


def _check_caps(caps, m):
    if caps is None:
        return None
    caps = tuple(int(c) for c in caps)
    if len(caps) != m:
        raise ValueError(f"capacity vector of length {m} required")
    if any(c < 0 for c in caps):
        raise ValueError("capacities must be non-negative")
    return caps


def modified_edmonds(oracle, beta, weights, caps=None) -> Allocation:
    """Greedy saturation in non-decreasing weight order (ties by index).

    Each user's rate is set to the largest value keeping the prefix inside
    the budgeted polytope, clipped to its cap: :func:`min_pinned` read off
    two slices, [2^k, 2^(k+1)) of the table in greedy order (the k-th user's
    subsets of the first k + 1) and [0, 2^k) of their rate sums, which
    double as each rate is fixed.  If the final total matches ``beta`` the
    vector is an optimal allocation for the linear cost; a shortfall proves
    the budget infeasible and raises :class:`Infeasible` with the achieved
    total.
    """
    inst = oracle.instance
    m = inst.m
    if beta < 0:
        raise ValueError("budget must be non-negative")
    weights = tuple(weights)
    if len(weights) != m:
        raise ValueError(f"weight vector of length {m} required")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    caps = _check_caps(caps, m)
    order = sorted(range(m), key=lambda i: (weights[i], i))
    table = oracle.ordered_ranks(order)
    sums = np.zeros(1 << m, dtype=np.int64)  # rate sums by greedy-order mask
    rates = [0] * m
    for k, i in enumerate(order):
        half = 1 << k
        val = beta - inst.n_packets + int((table[half : 2 * half] - sums[:half]).min())
        if caps is not None:
            val = min(val, caps[i])
        rates[i] = val
        np.add(sums[:half], val, out=sums[half : 2 * half])
    total = sum(rates)
    if total != beta:
        raise Infeasible(
            f"the cut-set bounds at budget {beta} admit a total of at most {total}",
            beta=beta,
            achieved_sum=total,
        )
    return Allocation(tuple(rates), beta)


def search_budget(ok, lo: int, hi: int) -> int:
    """Smallest budget in ``[lo, hi]`` passing ``ok``, which must be monotone
    and hold at ``hi`` (never probed).  Every budget search bisects here."""
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def budget_ceiling(n_packets: int, caps=None) -> int:
    """Largest budget any search probes: N, or the total capacity if smaller."""
    return n_packets if caps is None else min(n_packets, sum(caps))


def first_feasible(feasible, hi: int, hi_known: bool = False) -> int:
    """Smallest budget in ``[0, hi]`` passing the monotone ``feasible``; ``hi``
    is probed unless ``hi_known``, and :class:`Infeasible` raised if it fails."""
    if feasible(0):
        return 0
    if not hi_known and (hi == 0 or not feasible(hi)):
        raise Infeasible(f"no budget up to {hi} is feasible", beta=hi)
    return search_budget(feasible, 1, hi)


def optimal_budget(solve, hi: int, hi_known: bool = False, floor: int = 0):
    """The one budget search: ``(smallest feasible budget, cheapest budget,
    solve(cheapest budget))`` over ``[0, hi]``, solving no budget twice.

    ``solve(b)`` returns a tuple led by the cost at b (the rest, such as an
    allocation and a schedule, is carried through) or raises
    :class:`Infeasible`; budgets below ``floor`` fail without a call.  The
    cost is convex where feasible and infinite elsewhere, so the cheapest
    budget is the first whose forward difference is non-negative.
    """
    runs = {}

    def h(b):
        if b not in runs:
            runs[b] = None
            if b >= floor:
                try:
                    runs[b] = solve(b)
                except Infeasible:
                    pass
        return math.inf if runs[b] is None else runs[b][0]

    lo = first_feasible(lambda b: h(b) < math.inf, hi, hi_known)
    beta = search_budget(lambda b: h(b + 1) >= h(b) - D_TIE, lo, hi)
    return lo, beta, runs[beta] if beta in runs else solve(beta)


def _table_floor(oracle) -> int:
    """The singleton cut-set floor read off the rank table: no smaller
    budget is feasible, with or without caps."""
    inst = oracle.instance
    return singleton_floor(inst.n_packets, oracle.ranks[[1 << i for i in range(inst.m)]].tolist())


def min_sum_rate(oracle, caps=None) -> int:
    """Smallest feasible total budget, by bisection on feasibility.

    Feasibility of a budget is monotone, and the packet count N is always
    feasible without caps; with caps the search tops out at min(N, total
    capacity) and raises :class:`Infeasible` when even that budget fails.
    Budgets below :func:`_table_floor` fail without a greedy call.
    """
    inst = oracle.instance
    caps = _check_caps(caps, inst.m)
    unit = (1,) * inst.m
    floor = _table_floor(oracle)

    def feasible(b: int) -> bool:
        if b < floor:
            return False
        try:
            modified_edmonds(oracle, b, unit, caps)
            return True
        except Infeasible:
            return False

    return first_feasible(feasible, budget_ceiling(inst.n_packets, caps), hi_known=caps is None)


def _unblocked(g, m) -> list[int]:
    """The one-pass transmit set: with ``g(U) = f_beta(U) - R(U)``, user i may
    send exactly when no nonempty U holding i has g(U) <= 0.  Mask 0, whose g
    is not f - R, holds no user, so it adds nobody to the blocking union."""
    blocked = int(np.bitwise_or.reduce(np.flatnonzero(g <= 0)))
    return [i for i in range(m) if not (blocked >> i) & 1]


def allocate_rounds(m, beta, cost, transmit, caps=None, step=None) -> Allocation:
    """Round-by-round allocation driver shared by the incremental solvers.

    Each of the ``beta`` rounds asks ``transmit(rates)`` which users may
    send, keeps those still under their cap, records them in ``tsets``, and
    gives the unit to the cheapest (ties by index), after announcing it to
    ``step(user)`` when given.  The m next-unit costs are kept: the cost is
    separable, so a round recomputes only the chosen user's.  An empty
    eligible set raises :class:`Infeasible` with the completed rounds.
    """
    rates = [0] * m
    nxt = [cost.deriv(i, 1) for i in range(m)]
    tsets = []
    for rnd in range(1, beta + 1):
        eligible = [i for i in transmit(rates) if caps is None or rates[i] < caps[i]]
        if not eligible:
            raise Infeasible(
                f"round {rnd}: no user can extend the allocation",
                beta=beta,
                achieved_sum=sum(rates),
                rounds_completed=rnd - 1,
            )
        tsets.append(tuple(eligible))
        user = min(eligible, key=nxt.__getitem__)
        if step is not None:
            step(user)
        rates[user] += 1
        nxt[user] = cost.deriv(user, rates[user] + 1)
    return Allocation(tuple(rates), beta, tsets=tuple(tsets))


def convex_alloc(oracle, beta, cost, caps=None, minimizer=None) -> Allocation:
    """Incremental allocator for separable convex non-decreasing costs.

    Runs :func:`allocate_rounds` from the zero vector with the polytope
    transmit set: a user is eligible while its unit increment stays inside
    the budgeted polytope and under its cap.  An empty eligible set proves
    the budget (or the caps) infeasible.  With ``minimizer=None`` the set is
    read off the slack g kept on the rank table; an explicit engine with
    :func:`min_pinned`'s signature is instead asked once per user.
    """
    inst = oracle.instance
    m = inst.m
    if beta < 0:
        raise ValueError("budget must be non-negative")
    caps = _check_caps(caps, m)
    # The zero vector the rounds start from lies in the budget-beta polytope
    # only if no user alone lacks more than beta packets.
    need = inst.n_packets - int(oracle.ranks[[1 << i for i in range(m)]].min())
    if beta < need:
        raise Infeasible(
            f"budget {beta} is below the {need} packets one user lacks",
            beta=beta,
            achieved_sum=0,
            rounds_completed=0,
        )
    if minimizer is not None:
        grounds = [GroundSet(inst.full_mask & ~(1 << i), i) for i in range(m)]

        def transmit(rates):  # users whose headroom by the engine is positive
            return [gs.pinned for gs in grounds if minimizer(oracle, beta, rates, gs) > rates[gs.pinned]]

        return allocate_rounds(m, beta, cost, transmit, caps)
    g = beta - inst.n_packets + oracle.ranks  # f_beta - R at R = 0, kept across rounds
    free = _unblocked(g, m)

    def step(user):
        # Bit ``user`` of a mask is the middle axis: [:, 1, :] is every mask holding it.
        # g only falls, so the blocked set only grows, and every set this step
        # makes tight holds ``user``: the transmit set changes only when the
        # slice just lowered reaches 0.
        nonlocal free
        held = g.reshape(-1, 2, 1 << user)[:, 1, :]
        held -= 1
        if held.min() <= 0:
            free = _unblocked(g, m)

    return allocate_rounds(m, beta, cost, lambda rates: free, caps, step)


def eval_h(oracle, beta, cost, caps=None, minimizer=None):
    """Optimal cost at a fixed budget: ``(value, allocation)``.

    Linear costs go through the greedy path unless an explicit ``minimizer``
    is given; everything else, and linear costs with an engine (a linear
    cost is convex), through :func:`convex_alloc`.  :class:`Infeasible`
    propagates.
    """
    if cost.kind == "linear" and minimizer is None:
        alloc = modified_edmonds(oracle, beta, cost.weights, caps)
    else:
        alloc = convex_alloc(oracle, beta, cost, caps, minimizer)
    value = sum(cost.value(i, r) for i, r in enumerate(alloc.rates))
    return value, alloc


@dataclass(frozen=True)
class MinCostResult:
    """The optimal budget, its cost and allocation, and the smallest
    feasible budget the search started from."""

    beta: int
    value: float
    allocation: Allocation
    min_sum_rate: int


def min_cost(oracle, cost, caps=None) -> MinCostResult:
    """Minimize the cost over all feasible budgets.

    The per-budget optimum is convex on the feasible range and its minimizer
    never exceeds the packet count, so one :func:`optimal_budget` search
    over the fixed-budget optima :func:`eval_h` finds it.  Budgets below the
    singleton cut-set floor, read off the rank table, are infeasible and
    never solved.  Among equally cheap budgets the fewest total
    transmissions win.
    """
    inst = oracle.instance
    caps = _check_caps(caps, inst.m)
    beta_min, beta, (value, alloc) = optimal_budget(
        lambda b: eval_h(oracle, b, cost, caps),
        budget_ceiling(inst.n_packets, caps),
        hi_known=caps is None,
        floor=_table_floor(oracle),
    )
    return MinCostResult(beta, value, alloc, beta_min)
