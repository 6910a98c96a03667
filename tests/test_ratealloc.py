import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexchange.gf import FieldSpec
from dexchange.model import (
    CutSetOracle,
    generate_instance,
    in_cut_set_region,
    instance_from_packet_sets,
    subset_sums,
)
from dexchange.ratealloc import (
    FairCost,
    GroundSet,
    Infeasible,
    LinearCost,
    MinCostResult,
    TableCost,
    _unblocked,
    allocate_rounds,
    convex_alloc,
    eval_h,
    min_cost,
    min_pinned,
    min_sum_rate,
    modified_edmonds,
    subgrad_coordinate,
    subgradient_minimizer,
)
from dexchange.validate import (
    _random_caps,
    _suite_costs,
    brute_eval_h,
    brute_min_cost,
    dilworth_value,
    restriction_value,
    suite_instances,
)


# ---------------------------------------------------------------------------
# Cost functions


def test_linear_cost_requires_positive_weights():
    with pytest.raises(ValueError):
        LinearCost((1, 0, 2))


def test_fair_cost_values():
    c = FairCost()
    assert c.value(0, 0) == 0.0
    assert c.value(0, 1) == 0.0
    assert c.value(0, 2) == pytest.approx(2 * math.log(2))
    # increments grow with the rate
    assert c.deriv(0, 1) < c.deriv(0, 2) < c.deriv(0, 3)


def test_table_cost_validation_and_tail():
    with pytest.raises(ValueError):
        TableCost([(2, 1)])  # decreasing
    with pytest.raises(ValueError):
        TableCost([(-1,)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            TableCost([(bad, 1)])
    c = TableCost([(1, 3)])
    assert c.value(0, 1) == 1
    assert c.value(0, 2) == 4
    assert c.value(0, 4) == 10  # constant tail of 3 past the table
    assert c.deriv(0, 4) == 3


def test_allocate_rounds_cheapest_tie_by_index():
    # A fixed transmit set, so only the driver's choice of user is checked.
    def picks(m, beta, cost, tset):
        chosen = []
        allocate_rounds(m, beta, cost, lambda rates: tset, step=chosen.append)
        return chosen

    assert picks(3, 1, FairCost(), [1, 2]) == [1]
    # Equal rates tie, so the users take turns in index order.
    assert picks(3, 5, FairCost(), [0, 1, 2]) == [0, 1, 2, 0, 1]
    # Only the chosen user's cached next-unit cost moves.
    assert picks(2, 4, TableCost([[1, 3], [2]]), [0, 1]) == [0, 1, 1, 1]
    assert picks(2, 4, TableCost([[1, 3, 4], [3]]), [0, 1]) == [0, 0, 1, 1]
    # Increments are compared exactly: a gap far below any float tolerance
    # still decides, and only an exact tie falls back to the user index.
    assert picks(2, 1, TableCost([[1.0 + 1e-13], [1.0]]), [0, 1]) == [1]
    assert picks(2, 1, TableCost([[1.0], [1.0]]), [0, 1]) == [0]


# ---------------------------------------------------------------------------
# Greedy allocation


def test_greedy_reference_vectors(demo_oracle):
    assert modified_edmonds(demo_oracle, 5, (1, 3, 2)).rates == (1, 1, 3)
    assert modified_edmonds(demo_oracle, 5, (2, 1, 3)).rates == (1, 3, 1)


def test_greedy_with_caps(demo_oracle):
    alloc = modified_edmonds(demo_oracle, 5, (1, 3, 2), caps=(2, 2, 2))
    assert alloc.rates == (1, 2, 2)


def test_greedy_weight_ties_resolve_by_index(demo_oracle):
    assert modified_edmonds(demo_oracle, 5, (1, 1, 1)).rates == (1, 3, 1)


def test_greedy_infeasible_budget_reports_shortfall(demo_oracle):
    with pytest.raises(Infeasible) as err:
        modified_edmonds(demo_oracle, 4, (1, 3, 2))
    assert err.value.achieved_sum == 3
    assert err.value.beta == 4


def test_greedy_output_lies_in_the_region(demo_oracle):
    for weights in itertools.permutations((1, 2, 3)):
        alloc = modified_edmonds(demo_oracle, 5, weights)
        assert alloc.total == 5
        assert in_cut_set_region(demo_oracle, alloc.rates)


def test_greedy_cost_matches_exhaustive_minimum():
    for seed in range(6):
        inst = generate_instance("coded", 3, 4, FieldSpec(5), seed=seed)
        oracle = CutSetOracle(inst)
        beta = min_sum_rate(oracle)
        weights = (2, 1, 3)
        alloc = modified_edmonds(oracle, beta, weights)
        got = sum(w * r for w, r in zip(weights, alloc.rates))
        want = brute_eval_h(oracle, LinearCost(weights), beta)[0]
        assert got == want


def test_greedy_validates_arguments(demo_oracle):
    with pytest.raises(ValueError):
        modified_edmonds(demo_oracle, -1, (1, 1, 1))
    with pytest.raises(ValueError):
        modified_edmonds(demo_oracle, 5, (1, 1))
    with pytest.raises(ValueError):
        modified_edmonds(demo_oracle, 5, (1, 1, 1), caps=(1, -1, 0))


def per_step_greedy(oracle, beta, weights, caps=None):
    """The greedy as one ``min_pinned`` call per user, the loop the slice
    greedy replaced: its rates whether or not they reach ``beta``."""
    m = oracle.instance.m
    rates = [0] * m
    prefix = 0
    for i in sorted(range(m), key=lambda i: (weights[i], i)):
        val = min_pinned(oracle, beta, rates, GroundSet(prefix, i))
        rates[i] = val if caps is None else min(val, caps[i])
        prefix |= 1 << i
    return tuple(rates)


@given(
    st.sampled_from(("raw", "coded")),
    st.integers(1, 8),
    st.integers(1, 9),
    st.sampled_from((2, 3, 5, 257)),
    st.booleans(),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_slice_greedy_matches_the_per_step_min_pinned_loop(kind, m, n, q, capped, data):
    inst = generate_instance(kind, m, n, FieldSpec(q), seed=data.draw(st.integers(0, 2**31 - 1)))
    oracle = CutSetOracle(inst)
    # Several weight vectors on one oracle, so its kept order table is replaced.
    for _ in range(3):
        beta = data.draw(st.integers(0, n + 1))
        weights = data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
        caps = data.draw(st.lists(st.integers(0, n), min_size=m, max_size=m)) if capped else None
        want = per_step_greedy(oracle, beta, weights, caps)
        try:
            got = modified_edmonds(oracle, beta, weights, caps).rates
        except Infeasible as exc:
            assert sum(want) != beta
            assert exc.achieved_sum == sum(want)
        else:
            assert got == want and sum(want) == beta
            assert all(type(r) is int for r in got)


# ---------------------------------------------------------------------------
# Minimum sum-rate


def test_min_sum_rate_reference(demo_oracle):
    assert min_sum_rate(demo_oracle) == 5


def test_min_sum_rate_single_full_rank_user():
    inst = generate_instance("coded", 1, 3, FieldSpec(257), coverage=(3,), seed=0)
    assert min_sum_rate(CutSetOracle(inst)) == 0


def test_min_sum_rate_two_disjoint_users():
    inst = instance_from_packet_sets(FieldSpec(5), 2, [(0,), (1,)])
    assert min_sum_rate(CutSetOracle(inst)) == 2


def test_min_sum_rate_with_caps(demo_oracle):
    assert min_sum_rate(demo_oracle, caps=(2, 2, 2)) == 5
    with pytest.raises(Infeasible):
        min_sum_rate(demo_oracle, caps=(1, 1, 1))


def test_min_sum_rate_skips_budgets_below_the_singleton_floor(monkeypatch, demo_oracle):
    # The demo's singleton floor is 4: no greedy runs below it.
    import dexchange.ratealloc as ratealloc

    probed = []

    def spy(oracle, beta, weights, caps=None):
        probed.append(beta)
        return modified_edmonds(oracle, beta, weights, caps)

    monkeypatch.setattr(ratealloc, "modified_edmonds", spy)
    assert min_sum_rate(demo_oracle) == 5
    assert probed and min(probed) >= 4


@given(
    st.sampled_from(("raw", "coded")),
    st.integers(1, 5),
    st.integers(1, 6),
    st.sampled_from((2, 3, 5, 257)),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_min_sum_rate_matches_plain_bisection(kind, m, n, q, data):
    inst = generate_instance(kind, m, n, FieldSpec(q), seed=data.draw(st.integers(0, 2**31 - 1)))
    oracle = CutSetOracle(inst)
    caps = data.draw(st.none() | st.lists(st.integers(0, n), min_size=m, max_size=m))

    def feasible(b):
        try:
            modified_edmonds(oracle, b, (1,) * m, caps)
            return True
        except Infeasible:
            return False

    lo, hi = 0, n if caps is None else min(n, sum(caps))
    if not feasible(hi):
        with pytest.raises(Infeasible):
            min_sum_rate(oracle, caps)
        return
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    assert min_sum_rate(oracle, caps) == lo


# ---------------------------------------------------------------------------
# Incremental convex allocation


def test_fair_allocation_trace(demo_oracle):
    alloc = convex_alloc(demo_oracle, 5, FairCost())
    assert alloc.rates == (1, 2, 2)
    assert alloc.tsets == ((0, 1, 2), (1, 2), (1, 2), (1, 2), (1, 2))


def test_convex_alloc_linear_cost_matches_greedy_value(demo_oracle):
    cost = LinearCost((1, 3, 2))
    alloc = convex_alloc(demo_oracle, 5, cost)
    value = sum(cost.value(i, r) for i, r in enumerate(alloc.rates))
    assert value == 10  # same optimum the greedy path reaches


def test_convex_alloc_infeasible_budget(demo_oracle):
    with pytest.raises(Infeasible) as err:
        convex_alloc(demo_oracle, 4, FairCost())
    assert err.value.rounds_completed == 3


def test_convex_alloc_budget_zero(demo_oracle):
    with pytest.raises(Infeasible):
        convex_alloc(demo_oracle, 0, FairCost())
    solo = generate_instance("coded", 1, 2, FieldSpec(257), coverage=(2,), seed=1)
    assert convex_alloc(CutSetOracle(solo), 0, FairCost()).rates == (0,)


def test_convex_alloc_below_the_largest_user_need_is_infeasible(short_user):
    # Below user 0's need of 2 the zero start vector lies outside the
    # polytope; the rounds used to run anyway and return rates (0, 1) at
    # budget 1, which violate a cut-set bound.
    oracle = CutSetOracle(short_user)
    assert min_sum_rate(oracle) == 2
    for beta in (0, 1):
        with pytest.raises(Infeasible) as err:
            convex_alloc(oracle, beta, FairCost())
        assert (err.value.achieved_sum, err.value.rounds_completed) == (0, 0)
        with pytest.raises(Infeasible):
            eval_h(oracle, beta, FairCost())
    value, alloc = eval_h(oracle, 2, FairCost())
    assert in_cut_set_region(oracle, alloc.rates) and alloc.total == 2


def test_convex_alloc_respects_caps(demo_oracle):
    alloc = convex_alloc(demo_oracle, 5, LinearCost((1, 3, 2)), caps=(2, 2, 2))
    assert alloc.rates == (1, 2, 2)
    assert max(alloc.rates) <= 2


def test_convex_alloc_optimal_against_enumeration():
    for seed in (0, 1, 2):
        inst = generate_instance("raw", 3, 5, FieldSpec(257), coverage=(3, 3, 3), seed=seed)
        oracle = CutSetOracle(inst)
        beta = min_sum_rate(oracle) + 1
        for cost in (FairCost(), TableCost([(0, 1, 2, 5, 5)] * 3)):
            alloc = convex_alloc(oracle, beta, cost)
            value = sum(cost.value(i, r) for i, r in enumerate(alloc.rates))
            want = brute_eval_h(oracle, cost, beta)
            assert want is not None
            assert value == pytest.approx(want[0], abs=1e-9)


def headroom(engine, oracle, beta, rates, user):
    """How much ``user``'s rate may still grow by ``engine``, all rates held fixed."""
    free = oracle.instance.full_mask & ~(1 << user)
    return engine(oracle, beta, rates, GroundSet(free, user)) - rates[user]


def headroom_set(engine, oracle, beta, rates):
    """The users with at least one unit of headroom by ``engine``."""
    return [i for i in range(oracle.instance.m) if headroom(engine, oracle, beta, rates, i) >= 1]


def one_pass_set(oracle, beta, rates):
    """The one-pass transmit set on a slack g built from scratch for ``rates``."""
    inst = oracle.instance
    return _unblocked(beta - inst.n_packets + oracle.ranks - subset_sums(rates), inst.m)


def test_transmit_set_shrinks_as_rates_grow(demo_oracle):
    assert headroom_set(min_pinned, demo_oracle, 5, [0, 0, 0]) == [0, 1, 2]
    assert headroom_set(min_pinned, demo_oracle, 5, [1, 0, 0]) == [1, 2]
    assert headroom(min_pinned, demo_oracle, 5, [1, 0, 0], 0) == 0


def test_batched_transmit_set_matches_per_user_headroom():
    # The one-pass transmit set of the table against one coordinate
    # minimization per user by either engine, along the rounds of an
    # incremental allocation at a feasible budget.
    engines = (min_pinned, subgradient_minimizer())
    for kind, q, seed in (("raw", 257, 0), ("raw", 257, 4), ("coded", 3, 1), ("coded", 257, 2)):
        inst = generate_instance(kind, 3, 4, FieldSpec(q), seed=seed)
        oracle = CutSetOracle(inst)
        beta = min_sum_rate(oracle) + 1

        def checked(rates):
            eligible = one_pass_set(oracle, beta, rates)
            for engine in engines:
                assert headroom_set(engine, oracle, beta, rates) == eligible
            return eligible

        # The shared round driver fed the polytope transmit set is convex_alloc,
        # whose rounds driven by either engine give the same allocation.
        driven = allocate_rounds(inst.m, beta, FairCost(), checked)
        assert driven == convex_alloc(oracle, beta, FairCost())
        for engine in engines:
            assert convex_alloc(oracle, beta, FairCost(), minimizer=engine) == driven
        checked(list(driven.rates))  # and the sets agree past the last round


@given(
    st.sampled_from(("raw", "coded")),
    st.integers(1, 6),
    st.integers(1, 8),
    st.sampled_from((2, 3, 5, 257)),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_one_pass_transmit_set_matches_min_pinned(kind, m, n, q, data):
    inst = generate_instance(kind, m, n, FieldSpec(q), seed=data.draw(st.integers(0, 2**31 - 1)))
    oracle = CutSetOracle(inst)
    beta = data.draw(st.integers(0, n + 2))
    rates = data.draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    if data.draw(st.booleans()) and beta >= min_sum_rate(oracle):
        # Below a vertex of the down-closed polytope, hence inside it.
        vertex = modified_edmonds(oracle, beta, (1,) * m).rates
        rates = [max(0, v - d) for v, d in zip(vertex, rates)]
    assert one_pass_set(oracle, beta, rates) == headroom_set(min_pinned, oracle, beta, rates)


def test_transmit_set_single_user_and_negative_budget():
    # One user holds the whole file, so its cut is f_beta({0}) = beta.
    oracle = CutSetOracle(generate_instance("raw", 1, 3, FieldSpec(2), seed=0))
    for beta in range(6):
        for r in range(6):
            assert one_pass_set(oracle, beta, [r]) == ([0] if r < beta else [])
            assert headroom_set(min_pinned, oracle, beta, [r]) == ([0] if r < beta else [])
    for engine in (None, min_pinned, subgradient_minimizer()):
        with pytest.raises(ValueError, match="non-negative"):
            convex_alloc(oracle, -1, FairCost(), minimizer=engine)
    # The incremental rounds on one user: g has two masks, stepped as (1, 2, 1).
    for beta in range(6):
        alloc = convex_alloc(oracle, beta, FairCost())
        assert (alloc.rates, alloc.tsets) == ((beta,), ((0,),) * beta)
        if beta:
            with pytest.raises(Infeasible, match=f"round {beta}:"):
                convex_alloc(oracle, beta, FairCost(), caps=(beta - 1,))


def _outcome(run):
    """The Allocation ``run()`` returns, or the message and fields of its Infeasible."""
    try:
        return run()
    except Infeasible as exc:
        return (str(exc), exc.beta, exc.achieved_sum, exc.rounds_completed)


@given(
    st.sampled_from(("raw", "coded")),
    st.integers(1, 6),
    st.integers(1, 8),
    st.sampled_from((2, 3, 5, 257)),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_incremental_convex_alloc_matches_per_round_transmit_set(kind, m, n, q, data):
    # convex_alloc keeps g and the next-unit costs across rounds; the
    # reference asks min_pinned for every user's headroom each round.
    inst = generate_instance(kind, m, n, FieldSpec(q), seed=data.draw(st.integers(0, 2**31 - 1)))
    oracle = CutSetOracle(inst)
    need = n - int(oracle.ranks[[1 << i for i in range(m)]].min())
    increments = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(sorted)
    costs = (
        FairCost(),
        TableCost(data.draw(st.lists(increments, min_size=m, max_size=m))),  # repeated increments tie
        TableCost([[1]] * (m - 1) + [[0]]),  # the top user (widest reshape stride) wins when eligible
    )
    random_caps = tuple(data.draw(st.lists(st.integers(0, n), min_size=m, max_size=m)))
    for cost in costs:
        for caps in (None, random_caps):
            for beta in range(n + 3):
                got = _outcome(lambda: convex_alloc(oracle, beta, cost, caps))
                if beta < need:  # the start check: the zero vector is outside the polytope
                    assert isinstance(got, tuple) and got[1:] == (beta, 0, 0)
                    continue
                want = _outcome(lambda: convex_alloc(oracle, beta, cost, caps, minimizer=min_pinned))
                assert got == want


# ---------------------------------------------------------------------------
# Budget search


def test_eval_h_reference_values(demo_oracle):
    value, alloc = eval_h(demo_oracle, 5, LinearCost((1, 3, 2)))
    assert (value, alloc.rates) == (10, (1, 1, 3))
    value, alloc = eval_h(demo_oracle, 5, LinearCost((2, 1, 3)))
    assert (value, alloc.rates) == (8, (1, 3, 1))
    with pytest.raises(Infeasible):
        eval_h(demo_oracle, 4, FairCost())


def test_min_cost_unit_weights(demo_oracle):
    got = min_cost(demo_oracle, LinearCost((1, 1, 1)))
    assert (got.beta, got.value) == (5, 5)


def test_min_cost_fair(demo_oracle):
    got = min_cost(demo_oracle, FairCost())
    assert got.beta == 5
    assert got.allocation.rates == (1, 2, 2)
    # hand check: the optimum one budget higher is strictly worse
    assert eval_h(demo_oracle, 6, FairCost())[0] > got.value


def test_min_cost_single_user_zero_budget():
    inst = generate_instance("coded", 1, 3, FieldSpec(257), coverage=(3,), seed=0)
    got = min_cost(CutSetOracle(inst), FairCost())
    assert (got.beta, got.value) == (0, 0.0)


def test_min_cost_never_exceeds_packet_count():
    for seed in range(8):
        inst = generate_instance("coded", 4, 5, FieldSpec(5), seed=seed)
        oracle = CutSetOracle(inst)
        got = min_cost(oracle, FairCost())
        assert got.beta <= inst.n_packets


def test_min_cost_matches_enumeration_with_caps(demo_oracle):
    caps = (2, 2, 2)
    got = min_cost(demo_oracle, LinearCost((1, 3, 2)), caps=caps)
    want = brute_min_cost(demo_oracle, LinearCost((1, 3, 2)), caps=caps)
    assert (got.beta, got.value) == want
    with pytest.raises(Infeasible):
        min_cost(demo_oracle, FairCost(), caps=(1, 1, 1))


def _two_bisection_min_cost(oracle, cost, caps=None):
    """The earlier budget search, kept as the reference for min_cost: one
    bisection on unit-weight greedy feasibility for the smallest feasible
    budget, then a second, cached one on the cost from there."""
    inst = oracle.instance
    hi = inst.n_packets if caps is None else min(inst.n_packets, sum(caps))

    def bisect(ok, lo, hi):
        while lo < hi:
            mid = (lo + hi) // 2
            if ok(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def feasible(b):
        try:
            modified_edmonds(oracle, b, (1,) * inst.m, caps)
            return True
        except Infeasible:
            return False

    if feasible(0):
        beta_min = 0
    elif caps is not None and (hi == 0 or not feasible(hi)):
        raise Infeasible(f"no budget up to {hi} is feasible", beta=hi)
    else:
        beta_min = bisect(feasible, 1, hi)
    cache = {}

    def h(b):
        if b not in cache:
            try:
                cache[b] = eval_h(oracle, b, cost, caps)
            except Infeasible:
                cache[b] = (math.inf, None)
        return cache[b][0]

    beta = bisect(lambda b: h(b + 1) >= h(b) - 1e-12, beta_min, hi)
    value, alloc = cache[beta] if beta in cache else eval_h(oracle, beta, cost, caps)
    return MinCostResult(beta, value, alloc, beta_min)


@pytest.mark.parametrize("seed", [0, 1])
def test_min_cost_matches_the_two_bisection_search(seed):
    rng = np.random.default_rng(seed)
    for inst in suite_instances(count=30, seed=seed, max_m=5, max_n=7):
        oracle = CutSetOracle(inst)
        for cost in _suite_costs(inst, rng):
            for caps in (None, _random_caps(inst, rng)):
                try:
                    want = _two_bisection_min_cost(oracle, cost, caps)
                except Infeasible as exc:
                    with pytest.raises(Infeasible) as err:
                        min_cost(oracle, cost, caps)
                    assert (str(err.value), err.value.beta) == (str(exc), exc.beta)
                    continue
                assert min_cost(oracle, cost, caps) == want


@pytest.mark.parametrize("seed", [0, 1])
def test_min_cost_solves_no_budget_below_the_singleton_floor(seed, monkeypatch):
    # Budgets below the floor are infeasible, so skipping them must leave
    # every result and message as it is with the floor forced to 0.
    import dexchange.ratealloc as ratealloc

    probed = []
    real_eval_h = ratealloc.eval_h
    monkeypatch.setattr(
        ratealloc, "eval_h", lambda oracle, b, *a: probed.append(b) or real_eval_h(oracle, b, *a)
    )

    def solve(oracle, cost, caps):
        probed.clear()
        try:
            return min_cost(oracle, cost, caps), min(probed)
        except Infeasible as exc:
            return (str(exc), exc.beta), min(probed, default=None)

    rng = np.random.default_rng(seed)
    skipped = 0
    for inst in suite_instances(count=30, seed=seed, max_m=5, max_n=7):
        oracle = CutSetOracle(inst)
        floor = inst.sum_rate_floor()
        for cost in _suite_costs(inst, rng):
            for caps in (None, _random_caps(inst, rng)):
                got, lowest = solve(oracle, cost, caps)
                assert lowest is None or lowest >= floor
                with monkeypatch.context() as patch:
                    patch.setattr(ratealloc, "singleton_floor", lambda n, ranks: 0)
                    want, lowest = solve(oracle, cost, caps)
                assert got == want
                skipped += lowest < floor
    assert skipped > 50


def test_h_is_convex_on_feasible_budgets(demo_oracle):
    for cost in (LinearCost((1, 3, 2)), FairCost()):
        values = [eval_h(demo_oracle, b, cost)[0] for b in range(5, 7)]
        assert values[1] >= values[0] - 1e-12


# ---------------------------------------------------------------------------
# Dual subgradient backend


def test_subgradient_worked_coordinates(demo_oracle):
    assert subgrad_coordinate(demo_oracle, 5, (0, 0, 0), GroundSet(0, 0)) == 1
    assert subgrad_coordinate(demo_oracle, 5, (1, 0, 0), GroundSet(0b001, 2)) == 3
    assert subgrad_coordinate(demo_oracle, 5, (1, 0, 3), GroundSet(0b101, 1)) == 1


def test_subgradient_agrees_with_enumeration_everywhere(demo_oracle):
    for beta in range(0, 7):
        rates = [0, 0, 0]
        prefix = 0
        for i in range(3):
            ground = GroundSet(prefix, i)
            exact = min_pinned(demo_oracle, beta, rates, ground)
            assert subgrad_coordinate(demo_oracle, beta, rates, ground) == exact
            rates[i] = exact
            prefix |= 1 << i


def test_subgradient_backend_drives_full_solvers(demo_oracle):
    minimizer = subgradient_minimizer()
    assert minimizer is subgrad_coordinate
    # The greedy's coordinate steps in weight order (1, 3, 2), by the dual engine.
    rates = [0, 0, 0]
    prefix = 0
    for i in (0, 2, 1):
        rates[i] = minimizer(demo_oracle, 5, rates, GroundSet(prefix, i))
        prefix |= 1 << i
    assert rates == [1, 1, 3]
    # A linear cost with an explicit engine runs the convex rounds.
    assert eval_h(demo_oracle, 5, LinearCost((1, 3, 2)), minimizer=minimizer)[1].rates == (1, 1, 3)
    alloc = convex_alloc(demo_oracle, 5, FairCost(), minimizer=minimizer)
    assert alloc.rates == (1, 2, 2)


def _full_length_subgrad(oracle, beta, rates, ground):
    """The dual loop without its repeat exit: every one of the
    8 N^2 m^2 + 1 iterations runs (the reference for the exit)."""
    inst = oracle.instance
    den = 4 * inst.n_packets**2
    iterations = 8 * inst.n_packets**2 * inst.m**2 + 1
    pin_bit = 1 << ground.pinned
    prefix = [k for k in range(inst.m) if (ground.free >> k) & 1]
    if not prefix:
        return oracle.cut_set_f(beta, pin_bit)
    units = {k: 0 for k in prefix}
    best_scaled = None
    for j in range(iterations + 1):
        order = sorted(prefix, key=lambda k: (-units[k], k))
        r_pin = 0 if units[order[0]] > den else oracle.cut_set_f(beta, pin_bit)
        acc, mask, grad, weighted = r_pin, pin_bit, {}, 0
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
    return (2 * best_scaled + den) // (2 * den)


@given(
    st.sampled_from(("raw", "coded")),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from((2, 3, 5, 257)),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_subgradient_exit_matches_the_full_length_loop(kind, m, n, q, data):
    # Rates anywhere in 0..N, so that states outside the polytope, whose
    # multipliers may never repeat, occur as well as repeating ones.
    inst = generate_instance(kind, m, n, FieldSpec(q), seed=data.draw(st.integers(0, 2**31 - 1)))
    oracle = CutSetOracle(inst)
    beta = data.draw(st.integers(0, n + 2))
    rates = data.draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    pinned = data.draw(st.integers(0, m - 1))
    free = data.draw(st.integers(0, inst.full_mask)) & ~(1 << pinned)
    ground = GroundSet(free, pinned)
    assert subgrad_coordinate(oracle, beta, rates, ground) == _full_length_subgrad(oracle, beta, rates, ground)


@pytest.mark.parametrize(
    "rates, ground, want, most_calls",
    [((1, 0, 3), GroundSet(0b101, 1), 1, 400), ((1, 0, 0), GroundSet(0b001, 2), 3, 10)],
)
def test_subgradient_exit_cuts_oracle_calls(demo_oracle, rates, ground, want, most_calls):
    # The full-length loop makes 6,101 and 5,188 cut_set_f calls here.
    calls = []
    f = demo_oracle.cut_set_f

    def counted(beta, mask):
        calls.append(mask)
        return f(beta, mask)

    demo_oracle.cut_set_f = counted
    assert subgrad_coordinate(demo_oracle, 5, rates, ground) == want
    assert len(calls) <= most_calls


@given(
    st.sampled_from(("raw", "coded")),
    st.integers(1, 6),
    st.integers(1, 8),
    st.sampled_from((2, 3, 5, 257)),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_convex_rounds_reproduce_greedy_on_linear_costs(kind, m, n, q, data):
    # Weights from 1..3, so that ties occur: both paths break them by index.
    inst = generate_instance(kind, m, n, FieldSpec(q), seed=data.draw(st.integers(0, 2**31 - 1)))
    oracle = CutSetOracle(inst)
    cost = LinearCost(data.draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    caps = data.draw(st.none() | st.lists(st.integers(0, n), min_size=m, max_size=m))

    def solved(beta, minimizer):
        """(value, rates) at ``beta``, or None when the budget is infeasible."""
        try:
            value, alloc = eval_h(oracle, beta, cost, caps, minimizer=minimizer)
        except Infeasible:
            return None
        return value, alloc.rates

    for beta in range(n + 3):
        assert solved(beta, min_pinned) == solved(beta, None)


# ---------------------------------------------------------------------------
# Capacity restriction oracle (in dexchange.validate)


def test_restriction_reference_value(demo_oracle):
    assert restriction_value(demo_oracle, 5, (2, 2, 2), 0b111) == 5


def test_restriction_with_loose_caps_equals_partition_value(demo_oracle):
    caps = (6, 6, 6)
    for s in range(8):
        assert restriction_value(demo_oracle, 5, caps, s) == dilworth_value(
            demo_oracle, 5, s
        )


def test_restriction_empty_subset(demo_oracle):
    assert restriction_value(demo_oracle, 5, (2, 2, 2), 0) == 0
