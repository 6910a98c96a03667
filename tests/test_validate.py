import numpy as np

from dexchange.ratealloc import FairCost, LinearCost, TableCost
from dexchange.validate import (
    brute_eval_h,
    brute_min_cost,
    cost_grid,
    region_vectors,
    run_reference_examples,
    suite_instances,
)


def test_region_vectors_demo_contains_known_points(demo_oracle):
    grid = region_vectors(demo_oracle)
    as_set = {tuple(int(v) for v in row) for row in grid}
    assert (1, 1, 3) in as_set
    assert (1, 3, 1) in as_set
    assert (2, 1, 1) not in as_set
    # every member really satisfies the bounds
    assert all(sum(r) >= 5 for r in as_set)


def test_brute_eval_h_matches_hand_values(demo_oracle):
    value, vec = brute_eval_h(demo_oracle, LinearCost((1, 3, 2)), 5)
    assert value == 10 and vec == (1, 1, 3)
    assert brute_eval_h(demo_oracle, FairCost(), 4) is None


def test_brute_min_cost_demo(demo_oracle):
    assert brute_min_cost(demo_oracle, LinearCost((1, 1, 1))) == (5, 5.0)


def test_cost_grid_table_matches_scalar():
    cost = TableCost([(0, 1, 4), (2, 2, 2)])
    grid = np.array([[0, 0], [3, 1], [2, 2]])
    got = cost_grid(cost, grid)
    want = [
        sum(cost.value(i, r) for i, r in enumerate(row)) for row in grid
    ]
    assert list(got) == want


def test_suite_instances_deterministic():
    a = suite_instances(8, seed=3)
    b = suite_instances(8, seed=3)
    assert [i.digest() for i in a] == [i.digest() for i in b]
    assert all(i.m <= 4 and i.n_packets <= 6 for i in a)


def test_reference_examples_all_pass():
    assert all(r.ok for r in run_reference_examples())

