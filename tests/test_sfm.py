import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexchange.model import CutSetOracle, generate_instance, members
from dexchange.gf import FieldSpec
from dexchange.ratealloc import GroundSet, min_pinned


def loop_min_pinned(oracle, beta, rates, ground):
    """The per-subset Python loop ``min_pinned`` used to be: the reference."""
    pin_bit = 1 << ground.pinned
    best_val = oracle.cut_set_f(beta, pin_bit)
    positions = members(ground.free)
    size = 1 << len(positions)
    masks = [0] * size
    sums = [0] * size
    for k in range(1, size):
        low = k & -k
        prev = k ^ low
        b = positions[low.bit_length() - 1]
        masks[k] = masks[prev] | (1 << b)
        sums[k] = sums[prev] + rates[b]
        best_val = min(best_val, oracle.cut_set_f(beta, masks[k] | pin_bit) - sums[k])
    return best_val


def test_ground_set_rejects_pinned_in_free():
    with pytest.raises(ValueError):
        GroundSet(0b011, 1)


def test_empty_free_set_returns_singleton_value(demo_oracle):
    value = min_pinned(demo_oracle, 5, (0, 0, 0), GroundSet(0, 1))
    assert value == demo_oracle.cut_set_f(5, 0b010) == 3


def test_worked_coordinate_values(demo_oracle):
    # Third user after the first has been fixed at 1.
    assert min_pinned(demo_oracle, 5, (1, 0, 0), GroundSet(0b001, 2)) == 3
    # Second user after rates (1, _, 3) have been fixed.
    assert min_pinned(demo_oracle, 5, (1, 0, 3), GroundSet(0b101, 1)) == 1


def test_value_never_exceeds_singleton(demo_oracle):
    for beta in (0, 4, 5, 6):
        for i in range(3):
            free = demo_oracle.instance.full_mask & ~(1 << i)
            value = min_pinned(demo_oracle, beta, (0, 1, 2), GroundSet(free, i))
            assert value <= demo_oracle.cut_set_f(beta, 1 << i)


def _assert_submodular_on_free(oracle, beta, rates, ground):
    # The minimized map S -> f(S + pinned) - R(S) keeps the diminishing
    # returns inequality for every pair of free subsets.
    pin = 1 << ground.pinned

    def g(mask):
        return oracle.cut_set_f(beta, mask | pin) - sum(rates[i] for i in members(mask))

    free = ground.free
    subs = [s for s in range(free + 1) if s & free == s]
    for s in subs:
        for t in subs:
            assert g(s) + g(t) >= g(s | t) + g(s & t)


def test_minimized_function_is_submodular():
    for seed in range(5):
        inst = generate_instance("coded", 4, 5, FieldSpec(5), seed=seed)
        oracle = CutSetOracle(inst)
        for beta in (2, 5):
            _assert_submodular_on_free(oracle, beta, (1, 0, 2, 1), GroundSet(0b0111, 3))


def test_enumeration_matches_direct_scan(demo_oracle):
    # The compact-index sweep must agree with a plain dense scan over masks.
    rates = (1, 2, 0)
    for beta in (3, 5, 7):
        for pinned in range(3):
            free = demo_oracle.instance.full_mask & ~(1 << pinned)
            best = min(
                demo_oracle.cut_set_f(beta, s | (1 << pinned)) - sum(rates[i] for i in members(s))
                for s in range(free + 1)
                if s & free == s
            )
            assert min_pinned(demo_oracle, beta, rates, GroundSet(free, pinned)) == best


@given(
    st.sampled_from(("raw", "coded")),
    st.integers(1, 6),
    st.integers(1, 8),
    st.sampled_from((2, 3, 257)),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_array_min_pinned_matches_loop(kind, m, n, q, data):
    inst = generate_instance(kind, m, n, FieldSpec(q), seed=data.draw(st.integers(0, 2**31 - 1)))
    oracle = CutSetOracle(inst)
    beta = data.draw(st.integers(0, n + 2))
    rates = data.draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    pinned = data.draw(st.integers(0, m - 1))
    free = data.draw(st.integers(0, inst.full_mask)) & ~(1 << pinned)
    ground = GroundSet(free, pinned)
    got = min_pinned(oracle, beta, rates, ground)
    assert got == loop_min_pinned(oracle, beta, rates, ground)
    assert type(got) is int
