"""Cross-validation suites: brute-force polytope oracles, property checks,
and Monte-Carlo statistics.

The brute-force routines enumerate integer rate vectors against the raw
cut-set bounds, independent of the greedy/incremental solver machinery, so
they serve as ground truth for solver outputs.  The two bounds that certify
the solvers are enumerated here as well: the partition bound
(:func:`dilworth_value`, the Dilworth truncation of the cut-set function)
and the capped restriction bound (:func:`restriction_value`).  Suite runners
return :class:`CheckResult` records; the CLI ``validate`` command and the
test suite both consume them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gf import FieldSpec
from .model import (
    PRESETS,
    CutSetOracle,
    InfeasibleInstance,
    generate_instance,
    members,
    preset_instance,
)
from .netcode import RngSpec, randomized_alloc
from .ratealloc import (
    FairCost,
    GroundSet,
    Infeasible,
    LinearCost,
    TableCost,
    convex_alloc,
    eval_h,
    min_cost,
    min_pinned,
    min_sum_rate,
    modified_edmonds,
    subgrad_coordinate,
)


#: Bound on the property suite's brute-force grid, ``(max_n + 1)^max_m``
#: rate vectors against 2^max_m subsets in ``region_vectors``.  It also keeps
#: max_m far below the 10 users the partition oracles enumerate.
MAX_GRID_ENTRIES = 1 << 20

#: Users of the demo instance the rlnc suite draws on, and the budget it
#: draws at; its success bound ``(1 - m/q)^beta`` says something only for
#: fields larger than m.
RLNC_USERS = len(PRESETS["example1"][1])
RLNC_BETA = 5


def rlnc_pass_mark(q: int, trials: int) -> tuple[float, float]:
    """The rlnc check's success bound p0 on the demo instance over GF(q),
    q above RLNC_USERS, and its pass mark p0 - 3 sigma over ``trials`` runs."""
    p0 = (1 - RLNC_USERS / q) ** RLNC_BETA
    return p0, p0 - 3 * math.sqrt(p0 * (1 - p0) / trials)


def grid_fits(max_m: int, max_n: int) -> bool:
    """Whether ``(max_n + 1)^max_m * 2^max_m`` is at most MAX_GRID_ENTRIES."""
    # 2^max_m alone must fit, which keeps the power small.
    return max_m < MAX_GRID_ENTRIES.bit_length() and (max_n + 1) ** max_m << max_m <= MAX_GRID_ENTRIES


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: dict = field(default_factory=dict)


def _value_close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# Brute-force polytope oracles


def region_vectors(oracle: CutSetOracle, caps=None) -> np.ndarray:
    """All integer vectors in the cut-set region with 0 <= R_i <= min(N, cap_i).

    Membership is checked directly against the per-subset lower bounds
    ``R(S) >= N - rank(A_{M\\S})``, nothing else.
    """
    inst = oracle.instance
    m, n = inst.m, inst.n_packets
    upper = [n if caps is None else min(n, caps[i]) for i in range(m)]
    axes = [np.arange(u + 1) for u in upper]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    full = inst.full_mask
    masks = [s for s in range(1, full)]
    if masks:
        ind = np.array([[(s >> i) & 1 for i in range(m)] for s in masks])
        lower = np.array([n - oracle.joint_rank(full ^ s) for s in masks])
        feasible = (grid @ ind.T >= lower).all(axis=1)
        grid = grid[feasible]
    return grid


def _iter_partitions(items: tuple[int, ...]):
    """All set partitions of ``items`` as lists of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _iter_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def dilworth_value(oracle: CutSetOracle, beta: int, subset: int) -> int:
    """Tightest fully submodular value at ``subset``: the minimum of
    ``cut_set_f`` summed over the blocks of any partition of the subset.

    Enumerates every set partition, so the subset size is capped at 10
    (Bell(10) = 115975 partitions).
    """
    users = members(subset)
    if len(users) > 10:
        raise ValueError("partition enumeration capped at subsets of size 10")
    return min(
        sum(oracle.cut_set_f(beta, sum(1 << u for u in block)) for block in part)
        for part in _iter_partitions(users)
    )


def restriction_value(oracle: CutSetOracle, beta: int, caps, subset: int) -> int:
    """Capacity-restricted polytope bound at ``subset``: the minimum over
    parts V of the subset of ``dilworth_value`` at V plus the total capacity
    of the rest.  Doubly exponential, hence the size cap.
    """
    users = members(subset)
    if len(users) > 10:
        raise ValueError("restriction enumeration capped at subsets of size 10")
    parts = (sum(1 << u for b, u in enumerate(users) if k >> b & 1) for k in range(1 << len(users)))
    return min(dilworth_value(oracle, beta, v) + sum(caps[u] for u in members(subset & ~v)) for v in parts)


def cost_grid(cost, grid: np.ndarray) -> np.ndarray:
    """Vectorized total cost of every rate vector in ``grid``."""
    if cost.kind == "linear":
        return grid @ np.asarray(cost.weights, dtype=float)
    if cost.kind == "fair":
        safe = np.maximum(grid, 1)
        return (grid * np.log(safe)).sum(axis=1)
    totals = np.zeros(len(grid), dtype=float)
    for i in range(grid.shape[1]):
        top = int(grid[:, i].max(initial=0))
        values = [cost.value(i, r) for r in range(top + 1)]
        totals += np.asarray(values)[grid[:, i]]
    return totals


def brute_eval_h(oracle, cost, beta, caps=None):
    """Exhaustive optimum at a fixed budget: (value, vector) or None."""
    grid = region_vectors(oracle, caps)
    sel = grid[grid.sum(axis=1) == beta]
    if len(sel) == 0:
        return None
    costs = cost_grid(cost, sel)
    k = int(np.argmin(costs))
    return float(costs[k]), tuple(int(v) for v in sel[k])


def brute_min_cost(oracle, cost, caps=None):
    """Exhaustive optimum over all budgets: (beta, value) or None.

    Among equally cheap vectors the smallest total wins, matching the
    solver's tie-break.
    """
    grid = region_vectors(oracle, caps)
    if len(grid) == 0:
        return None
    costs = cost_grid(cost, grid)
    best = costs.min()
    near = grid[np.abs(costs - best) <= 1e-9]
    return int(near.sum(axis=1).min()), float(best)


# ---------------------------------------------------------------------------
# Instance suite


def suite_instances(count=50, seed=0, max_m=4, max_n=6, qs=(2, 3, 5, 257)):
    """Deterministic mixed bag of small raw and coded instances."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        m = int(rng.integers(2, max_m + 1))
        n = int(rng.integers(2, max_n + 1))
        q = int(qs[rng.integers(0, len(qs))])
        kind = "raw" if rng.integers(0, 2) else "coded"
        sub_seed = int(rng.integers(0, 2**31))
        try:
            inst = generate_instance(kind, m, n, FieldSpec(q), seed=sub_seed)
        except InfeasibleInstance:  # no spanning draw at this size
            continue
        out.append(inst)
    return out


def _suite_costs(inst, rng):
    costs = [
        LinearCost(tuple(int(w) for w in rng.integers(1, 6, size=inst.m))),
        FairCost(),
    ]
    tables = []
    for _ in range(inst.m):
        incs = np.sort(rng.integers(0, 5, size=inst.n_packets))
        tables.append(tuple(int(v) for v in incs))
    costs.append(TableCost(tables))
    return costs


def _random_caps(inst, rng):
    return tuple(int(c) for c in rng.integers(0, inst.n_packets + 1, size=inst.m))


# ---------------------------------------------------------------------------
# Property runners


def run_oracle_equivalence(instances, seed=0) -> list[CheckResult]:
    """Solver optima equal the exhaustive optima, capped and uncapped."""
    rng = np.random.default_rng(seed)
    results = []
    for idx, inst in enumerate(instances):
        oracle = CutSetOracle(inst)
        for cost in _suite_costs(inst, rng):
            for caps in (None, _random_caps(inst, rng)):
                tag = f"inst{idx}/{cost.kind}/{'caps' if caps else 'free'}"
                try:
                    got = min_cost(oracle, cost, caps)
                    solver = (got.beta, float(got.value))
                except Infeasible:
                    solver = None
                brute = brute_min_cost(oracle, cost, caps)
                ok = (solver is None and brute is None) or (
                    solver is not None
                    and brute is not None
                    and solver[0] == brute[0]
                    and _value_close(solver[1], brute[1])
                )
                results.append(
                    CheckResult(
                        f"min-cost/{tag}", ok, {"solver": solver, "brute": brute}
                    )
                )
                # Fixed-budget agreement at every budget the searches probe.
                for beta in range(inst.n_packets + 1):
                    try:
                        value, _ = eval_h(oracle, beta, cost, caps)
                    except Infeasible:
                        value = None
                    brute_b = brute_eval_h(oracle, cost, beta, caps)
                    bval = None if brute_b is None else brute_b[0]
                    ok = _value_close(value, bval)
                    results.append(
                        CheckResult(
                            f"fixed-budget/{tag}/b{beta}",
                            ok,
                            {"solver": value, "brute": bval},
                        )
                    )
    return results


def run_submodularity(instances) -> list[CheckResult]:
    """Diminishing-returns inequalities of the budgeted cut-set function."""
    results = []
    for idx, inst in enumerate(instances):
        oracle = CutSetOracle(inst)
        n = inst.n_packets
        full = inst.full_mask
        bad = None
        for beta in sorted({0, 1, n // 2, n - 1, n, n + 1, n + 3}):
            for s in range(full + 1):
                for t in range(full + 1):
                    overlap = s & t
                    if not overlap and beta < n:
                        continue  # only overlapping pairs below the packet count
                    lhs = oracle.cut_set_f(beta, s) + oracle.cut_set_f(beta, t)
                    rhs = oracle.cut_set_f(beta, s | t) + oracle.cut_set_f(beta, overlap)
                    if lhs < rhs:
                        bad = {"beta": beta, "s": s, "t": t, "lhs": lhs, "rhs": rhs}
                        break
                if bad:
                    break
            if bad:
                break
        results.append(CheckResult(f"submodularity/inst{idx}", bad is None, bad or {}))
    return results


def run_feasibility_vs_partitions(instances) -> list[CheckResult]:
    """Greedy feasibility agrees with the exhaustive partition oracle."""
    results = []
    for idx, inst in enumerate(instances):
        oracle = CutSetOracle(inst)
        unit = (1,) * inst.m
        bad = None
        for beta in range(inst.n_packets + 1):
            partition_value = dilworth_value(oracle, beta, inst.full_mask)
            try:
                modified_edmonds(oracle, beta, unit)
                greedy_ok = True
            except Infeasible as exc:
                greedy_ok = False
                if exc.achieved_sum != partition_value:
                    bad = {"beta": beta, "kind": "achieved-sum"}
                    break
            partition_ok = partition_value == beta
            if greedy_ok != partition_ok:
                bad = {"beta": beta, "greedy": greedy_ok, "partitions": partition_ok}
                break
        results.append(CheckResult(f"feasibility/inst{idx}", bad is None, bad or {}))
    return results


def run_h_shape(instances, seed=0) -> list[CheckResult]:
    """Convexity of the per-budget optimum and the budget cap on its minimizer."""
    rng = np.random.default_rng(seed)
    results = []
    for idx, inst in enumerate(instances):
        oracle = CutSetOracle(inst)
        for cost in _suite_costs(inst, rng):
            beta_min = min_sum_rate(oracle)
            values = []
            for beta in range(beta_min, inst.n_packets + 1):
                value, _ = eval_h(oracle, beta, cost)
                values.append(value)
            convex = all(
                values[i + 1] - 2 * values[i] + values[i - 1] >= -1e-9
                for i in range(1, len(values) - 1)
            )
            got = min_cost(oracle, cost)
            capped = got.beta <= inst.n_packets
            results.append(
                CheckResult(
                    f"h-shape/inst{idx}/{cost.kind}",
                    convex and capped,
                    {"values": values, "beta_star": got.beta},
                )
            )
    return results


def run_restriction_identity(instances, seed=0) -> list[CheckResult]:
    """Capped base-polytope membership matches the restriction oracle.

    Caps are drawn around a known-feasible allocation so the (budget, caps)
    pair is feasible, which the identity requires.
    """
    rng = np.random.default_rng(seed)
    results = []
    for idx, inst in enumerate(instances):
        oracle = CutSetOracle(inst)
        beta = min_sum_rate(oracle)
        base = modified_edmonds(oracle, beta, (1,) * inst.m).rates
        caps = tuple(int(r + rng.integers(0, 3)) for r in base)
        full = inst.full_mask
        n = inst.n_packets
        g = {s: dilworth_value(oracle, beta, s) for s in range(full + 1)}
        gc = {s: restriction_value(oracle, beta, caps, s) for s in range(full + 1)}
        bad = None
        axes = [np.arange(-1, n + 1)] * inst.m
        box = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, inst.m)
        for vec in box:
            in_capped_base = all(
                sum(int(vec[i]) for i in members(s)) <= g[s] for s in range(1, full + 1)
            ) and int(vec.sum()) == g[full] and all(
                int(vec[i]) <= caps[i] for i in range(inst.m)
            )
            in_restriction = all(
                sum(int(vec[i]) for i in members(s)) <= gc[s] for s in range(1, full + 1)
            ) and int(vec.sum()) == gc[full]
            if in_capped_base != in_restriction:
                bad = {"vec": [int(v) for v in vec], "caps": caps, "beta": beta}
                break
        # The capped greedy output must inhabit both descriptions.
        capped = modified_edmonds(oracle, beta, (1,) * inst.m, caps=caps).rates
        member = all(
            sum(capped[i] for i in members(s)) <= gc[s] for s in range(1, full + 1)
        ) and sum(capped) == gc[full]
        results.append(
            CheckResult(
                f"restriction/inst{idx}",
                bad is None and member,
                bad or {"capped_rates": capped},
            )
        )
    return results


def run_subgradient_agreement(instances) -> list[CheckResult]:
    """Dual-loop coordinate values match exact minimization, coordinate by
    coordinate, across greedy sweeps at every budget up to the packet count.

    The iteration bound only guarantees convergence at feasible budgets, but
    the seeded suite is deterministic and the loop lands on the exact value
    at infeasible probes as well, so those are checked too.
    """
    results = []
    for idx, inst in enumerate(instances):
        oracle = CutSetOracle(inst)
        beta_min = min_sum_rate(oracle)
        bad = None
        for beta in range(inst.n_packets + 1):
            rates = [0] * inst.m
            prefix = 0
            for i in range(inst.m):
                ground = GroundSet(prefix, i)
                exact = min_pinned(oracle, beta, rates, ground)
                dual = subgrad_coordinate(oracle, beta, rates, ground)
                if exact != dual:
                    bad = {"beta": beta, "user": i, "exact": exact, "dual": dual}
                    break
                rates[i] = exact
                prefix |= 1 << i
            if bad:
                break
            if beta < beta_min:
                continue
            # Headroom queries over the full ground set, as used by the
            # incremental allocator's membership check.
            for i in range(inst.m):
                ground = GroundSet(inst.full_mask & ~(1 << i), i)
                exact = min_pinned(oracle, beta, rates, ground)
                dual = subgrad_coordinate(oracle, beta, rates, ground)
                if exact != dual:
                    bad = {"beta": beta, "user": i, "exact": exact, "dual": dual, "where": "headroom"}
                    break
            if bad:
                break
        results.append(CheckResult(f"subgradient/inst{idx}", bad is None, bad or {}))
    return results


def run_rlnc_stats(q=19, trials=1000, seed=0) -> CheckResult:
    """Empirical decodability rate of seeded randomized runs on the bundled
    demo instance, against the field-size success bound minus three sigmas."""
    inst = preset_instance("example1", q=q)
    decoded = 0
    for stream in range(trials):
        try:
            _, _, report = randomized_alloc(inst, RLNC_BETA, FairCost(), rng=RngSpec(seed, stream))
        except Infeasible:
            continue
        decoded += report.all_ok
    rate = decoded / trials
    p0, floor = rlnc_pass_mark(q, trials)
    return CheckResult(
        f"rlnc/q{q}",
        rate >= floor,
        {"rate": rate, "bound": p0, "floor": floor, "trials": trials},
    )


def run_reference_examples() -> list[CheckResult]:
    """Replay of the bundled demo instance's known-good values."""
    results = []
    inst = preset_instance("example1")
    oracle = CutSetOracle(inst)

    f4 = {1: 0, 2: 2, 4: 2, 3: 3, 5: 4, 6: 3, 7: 4}
    f5 = {1: 1, 2: 3, 4: 3, 3: 4, 5: 5, 6: 4, 7: 5}
    ok = all(oracle.cut_set_f(4, s) == v for s, v in f4.items()) and all(
        oracle.cut_set_f(5, s) == v for s, v in f5.items()
    )
    results.append(CheckResult("tables", ok, {}))

    g4 = {1: 0, 2: 2, 4: 2, 3: 2, 5: 2, 6: 3, 7: 3}
    g5 = {1: 1, 2: 3, 4: 3, 3: 4, 5: 4, 6: 4, 7: 5}
    ok = all(dilworth_value(oracle, 4, s) == v for s, v in g4.items()) and all(
        dilworth_value(oracle, 5, s) == v for s, v in g5.items()
    )
    results.append(CheckResult("partition-values", ok, {}))

    results.append(CheckResult("min-sum-rate", min_sum_rate(oracle) == 5, {}))

    ok = (
        modified_edmonds(oracle, 5, (1, 3, 2)).rates == (1, 1, 3)
        and modified_edmonds(oracle, 5, (2, 1, 3)).rates == (1, 3, 1)
        and modified_edmonds(oracle, 5, (1, 3, 2), caps=(2, 2, 2)).rates == (1, 2, 2)
    )
    results.append(CheckResult("greedy-vectors", ok, {}))

    alloc = convex_alloc(oracle, 5, FairCost())
    ok = alloc.rates == (1, 2, 2) and alloc.tsets == ((0, 1, 2),) + ((1, 2),) * 4
    results.append(CheckResult("fair-vector", ok, {"tsets": alloc.tsets}))

    infeasible_everywhere = True
    for run in (
        lambda: modified_edmonds(oracle, 4, (1, 1, 1)),
        lambda: convex_alloc(oracle, 4, FairCost()),
    ):
        try:
            run()
            infeasible_everywhere = False
        except Infeasible:
            pass
    results.append(CheckResult("budget-4-infeasible", infeasible_everywhere, {}))
    return results


def run_properties(count=50, seed=0, max_m=4, max_n=6) -> list[CheckResult]:
    """The full deterministic property suite on random small instances."""
    instances = suite_instances(count, seed, max_m, max_n)
    results = []
    results += run_oracle_equivalence(instances, seed)
    results += run_submodularity(instances)
    results += run_feasibility_vs_partitions(instances)
    results += run_h_shape(instances, seed)
    results += run_restriction_identity(instances, seed)
    results += run_subgradient_agreement(instances[: max(1, count // 5)])
    return results
