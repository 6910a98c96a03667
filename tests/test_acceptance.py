"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with its runtime.  Tolerances are pinned in the assertions; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from dexchange.gf import FieldSpec
from dexchange.model import CutSetOracle, dilworth_value, generate_instance, preset_instance
from dexchange.netcode import (
    ConstructionFailed,
    RngSpec,
    construct_code,
    decode,
    randomized_alloc,
    transmit_values,
)
from dexchange.ratealloc import (
    FairCost,
    Infeasible,
    LinearCost,
    convex_alloc,
    eval_h,
    min_cost,
    min_sum_rate,
    modified_edmonds,
)
from dexchange.validate import (
    run_h_shape,
    run_oracle_equivalence,
    run_restriction_identity,
    run_rlnc_stats,
    run_submodularity,
    run_subgradient_agreement,
    suite_instances,
)

SUITE_SEED = 20240811


@contextmanager
def criterion(number, name, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL after {time.perf_counter() - t0:.2f}s")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.2f}s)"


@pytest.fixture(scope="module")
def suite():
    return suite_instances(count=50, seed=SUITE_SEED, max_m=4, max_n=6, qs=(2, 3, 5, 257))


def _assert_all_ok(results):
    bad = [r for r in results if not r.ok]
    assert not bad, f"{len(bad)} checks failed, first: {bad[0].name} {bad[0].detail}"


def test_criterion_1_reference_replay():
    with criterion(1, "reference replay, exact", budget_s=1.0):
        inst = preset_instance("example1")
        oracle = CutSetOracle(inst)
        full = 0b111

        f4 = {0b001: 0, 0b010: 2, 0b100: 2, 0b011: 3, 0b101: 4, 0b110: 3, full: 4}
        f5 = {0b001: 1, 0b010: 3, 0b100: 3, 0b011: 4, 0b101: 5, 0b110: 4, full: 5}
        for s, v in f4.items():
            assert oracle.cut_set_f(4, s) == v
        for s, v in f5.items():
            assert oracle.cut_set_f(5, s) == v

        g4 = {0b001: 0, 0b010: 2, 0b100: 2, 0b011: 2, 0b101: 2, 0b110: 3, full: 3}
        g5 = {0b001: 1, 0b010: 3, 0b100: 3, 0b011: 4, 0b101: 4, 0b110: 4, full: 5}
        for s, v in g4.items():
            assert dilworth_value(oracle, 4, s) == v
        for s, v in g5.items():
            assert dilworth_value(oracle, 5, s) == v

        assert min_sum_rate(oracle) == 5

        assert modified_edmonds(oracle, 5, (1, 3, 2)).rates == (1, 1, 3)
        assert modified_edmonds(oracle, 5, (2, 1, 3)).rates == (1, 3, 1)
        assert modified_edmonds(oracle, 5, (1, 3, 2), caps=(2, 2, 2)).rates == (1, 2, 2)

        alloc = convex_alloc(oracle, 5, FairCost())
        assert alloc.rates == (1, 2, 2)
        assert alloc.tsets == ((0, 1, 2), (1, 2), (1, 2), (1, 2), (1, 2))

        # budget 4 is infeasible on every path
        assert dilworth_value(oracle, 4, full) == 3
        for attempt in (
            lambda: modified_edmonds(oracle, 4, (1, 1, 1)),
            lambda: convex_alloc(oracle, 4, FairCost()),
            lambda: randomized_alloc(oracle, 4, FairCost(), rng=RngSpec(0)),
        ):
            with pytest.raises(Infeasible):
                attempt()


def test_criterion_2_oracle_equivalence(suite):
    with criterion(2, "solver vs exhaustive enumeration, exact", budget_s=60.0):
        assert len(suite) >= 50
        _assert_all_ok(run_oracle_equivalence(suite, seed=SUITE_SEED))


def test_criterion_3_subgradient_agreement(suite):
    with criterion(3, "subgradient vs exact coordinates, exact"):
        _assert_all_ok(run_subgradient_agreement(suite))


def test_criterion_4_submodularity(suite):
    with criterion(4, "diminishing-returns inequalities"):
        _assert_all_ok(run_submodularity(suite))


def test_criterion_5_budget_curve_shape(suite):
    with criterion(5, "per-budget optimum convex, minimizer within N"):
        _assert_all_ok(run_h_shape(suite, seed=SUITE_SEED))


def test_criterion_6_restriction_identity(suite):
    with criterion(6, "capped base polytope equals restriction"):
        _assert_all_ok(run_restriction_identity(suite, seed=SUITE_SEED))


def test_criterion_7_rlnc_statistics():
    with criterion(7, "randomized decodability rate", budget_s=30.0):
        for q in (19, 257):
            got = run_rlnc_stats(q=q, trials=1000, seed=SUITE_SEED)
            assert got.ok, got.detail
            print(f"  q={q}: rate {got.detail['rate']:.3f} >= floor {got.detail['floor']:.3f}")


def test_criterion_8_code_round_trip():
    with criterion(8, "code construction and decoding round trip"):
        inst = preset_instance("example1")
        w = np.array([11, 22, 33, 44, 55, 66]) % 257
        ok = 0
        for seed in range(100):
            try:
                schedule = construct_code(inst, (1, 1, 3), RngSpec(seed), max_retries=64)
            except ConstructionFailed:
                continue
            ok += 1
            received = transmit_values(schedule, w)
            for user in range(3):
                got = decode(inst, user, schedule, inst.observe(user, w), received)
                assert list(got) == list(w)
        assert ok >= 99, f"only {ok}/100 seeds produced a schedule"


def test_criterion_9_scaling_smoke():
    with criterion(9, "m=12, N=32 coded instance solves", budget_s=120.0):
        inst = generate_instance("coded", 12, 32, FieldSpec(257), seed=SUITE_SEED)
        oracle = CutSetOracle(inst)
        weights = tuple(1 + (i % 3) for i in range(12))
        got = min_cost(oracle, LinearCost(weights))
        assert got.allocation.total == got.beta <= 32
        value, _ = eval_h(oracle, got.beta, LinearCost(weights))
        assert value == got.value
