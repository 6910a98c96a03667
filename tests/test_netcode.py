import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexchange.gf import FieldSpec, SingularSystem
from dexchange.model import CutSetOracle, generate_instance, preset_instance
from dexchange.netcode import (
    ConstructionFailed,
    ExchangeState,
    InfeasibleRates,
    NotDecodable,
    RngSpec,
    ScheduleEntry,
    TransmissionSchedule,
    construct_code,
    decode,
    load_schedule,
    randomized_alloc,
    save_schedule,
    transmit_values,
    verify_decodable,
)
from dexchange.ratealloc import FairCost, GroundSet, Infeasible, LinearCost, min_pinned

# A hand-checked reference run over GF(19) on the demo instance with a
# uniform cost and budget 5: per-round sender and combining coefficients,
# chosen so every user ends up decodable.
REFERENCE_TRACE = [
    (0, (1, 7)),
    (2, (1, 1, 5, 11)),
    (1, (4, 3, 13, 8)),
    (2, (9, 5, 14, 17)),
    (1, (11, 2, 18, 6)),
]
REFERENCE_COMBOS = [
    (1, 7, 0, 0, 0, 0),
    (0, 0, 1, 1, 5, 11),
    (0, 4, 0, 3, 13, 8),
    (0, 0, 9, 5, 14, 17),
    (0, 11, 0, 2, 18, 6),
]


def test_rng_spec_reproducible():
    a = RngSpec(7, 1).generator().integers(0, 257, size=8)
    b = RngSpec(7, 1).generator().integers(0, 257, size=8)
    c = RngSpec(7, 2).generator().integers(0, 257, size=8)
    assert list(a) == list(b)
    assert list(a) != list(c)


def test_exchange_state_replays_reference_trace(demo19):
    state = ExchangeState(demo19, 5)
    seen_tsets = []
    for user, coeffs in REFERENCE_TRACE:
        tset = state.transmit_set()
        seen_tsets.append(tuple(tset))
        assert user in tset
        state.step(user, coeffs)
    assert seen_tsets == [(0, 1, 2), (1, 2), (1, 2), (1, 2), (1, 2)]
    schedule = TransmissionSchedule(19, 6, tuple(state.entries))
    assert schedule.counts(3) == (1, 2, 2)
    assert [e.combo for e in schedule.entries] == REFERENCE_COMBOS
    assert verify_decodable(demo19, schedule).all_ok


def test_reference_trace_decodes_synthetic_file(demo19):
    state = ExchangeState(demo19, 5)
    for user, coeffs in REFERENCE_TRACE:
        state.step(user, coeffs)
    schedule = TransmissionSchedule(19, 6, tuple(state.entries))
    w = np.array([3, 1, 4, 15, 9, 2]) % 19
    received = transmit_values(schedule, w)
    for user in range(3):
        got = decode(demo19, user, schedule, demo19.observe(user, w), received)
        assert list(got) == list(w)


def test_randomized_alloc_reference_budget(demo):
    oracle = CutSetOracle(demo)
    alloc, schedule, _ = randomized_alloc(oracle, 5, FairCost(), rng=RngSpec(0))
    assert alloc.rates == (1, 2, 2)
    assert schedule.counts(3) == (1, 2, 2)
    assert alloc.tsets[0] == (0, 1, 2)
    assert verify_decodable(demo, schedule).all_ok


def test_randomized_alloc_infeasible_budget_stops_early(demo):
    oracle = CutSetOracle(demo)
    with pytest.raises(Infeasible) as err:
        randomized_alloc(oracle, 4, FairCost(), rng=RngSpec(0))
    assert err.value.rounds_completed < 4


def test_randomized_alloc_single_user_zero_budget():
    inst = generate_instance("coded", 1, 2, FieldSpec(257), coverage=(2,), seed=0)
    oracle = CutSetOracle(inst)
    alloc, schedule, _ = randomized_alloc(oracle, 0, FairCost(), rng=RngSpec(0))
    assert alloc.rates == (0,)
    assert schedule.entries == ()
    assert verify_decodable(inst, schedule).all_ok


def test_randomized_alloc_respects_caps(demo):
    oracle = CutSetOracle(demo)
    alloc, _, _ = randomized_alloc(oracle, 5, LinearCost((1, 3, 2)), caps=(2, 2, 2), rng=RngSpec(1))
    assert alloc.rates == (1, 2, 2)


def test_randomized_alloc_is_deterministic(demo):
    oracle = CutSetOracle(demo)
    a1, s1, _ = randomized_alloc(oracle, 5, FairCost(), rng=RngSpec(3, 1))
    a2, s2, _ = randomized_alloc(oracle, 5, FairCost(), rng=RngSpec(3, 1))
    assert a1 == a2 and s1.entries == s2.entries


@pytest.mark.parametrize("q", [2, 3, 5, 17])
def test_randomized_alloc_report_matches_verify_decodable(q):
    from dexchange.ratealloc import min_sum_rate

    outcomes = set()
    for inst_seed in range(4):
        inst = generate_instance("coded", 4, 5, FieldSpec(q), seed=inst_seed)
        oracle = CutSetOracle(inst)
        beta = min_sum_rate(oracle)
        for seed in range(8):
            try:
                _, schedule, report = randomized_alloc(oracle, beta, FairCost(), rng=RngSpec(seed))
            except Infeasible:
                continue
            assert report == verify_decodable(inst, schedule)
            outcomes.add(report.all_ok)
    assert outcomes == {True, False}


def _check_rank_vs_polyhedral(inst, beta, seed, require_equality):
    # Degenerate draws can only lose rank, so the rank-based set always
    # nests inside the polyhedral one; on a large field the fixed seeds stay
    # in general position and the two sets coincide round for round.
    oracle = CutSetOracle(inst)
    try:
        alloc, schedule, _ = randomized_alloc(oracle, beta, FairCost(), rng=RngSpec(seed))
    except Infeasible:
        return
    grounds = [GroundSet(inst.full_mask & ~(1 << i), i) for i in range(inst.m)]
    rates = [0] * inst.m
    for j, entry in enumerate(schedule.entries):
        # Users with headroom by the exact per-user engine.
        poly = {g.pinned for g in grounds if min_pinned(oracle, beta, rates, g) > rates[g.pinned]}
        rank_based = set(alloc.tsets[j])
        assert rank_based <= poly
        if require_equality:
            assert rank_based == poly
        rates[entry.user] += 1
    if require_equality:
        assert verify_decodable(inst, schedule).all_ok


def test_rank_sets_match_polyhedral_sets_on_large_field():
    inst = preset_instance("example1")
    for seed in range(6):
        _check_rank_vs_polyhedral(inst, 5, seed, require_equality=True)


def test_rank_sets_nest_on_small_fields():
    # Tiny fields make degenerate draws likely; the sets may then lag but
    # never overshoot.  (A lagging user can still end up decodable when the
    # remaining broadcasts happen to repair its span, so no decodability
    # claim is made here.)
    for q, seeds in ((2, range(12)), (3, range(8))):
        inst = preset_instance("example1", q=q)
        for seed in seeds:
            _check_rank_vs_polyhedral(inst, 5, seed, require_equality=False)


def test_rank_sets_on_random_instances():
    from dexchange.ratealloc import min_sum_rate

    for q, require in ((3, False), (257, True)):
        for inst_seed in range(4):
            inst = generate_instance("coded", 4, 5, FieldSpec(q), seed=inst_seed)
            beta = min_sum_rate(CutSetOracle(inst))
            for seed in range(3):
                _check_rank_vs_polyhedral(inst, beta, seed, require_equality=require)


def test_incremental_ranks_match_naive_recomputation(demo19):
    # The state object keeps per-user reduced bases; a from-scratch rank of
    # the stacked rows must see exactly the same transmit sets.
    from dexchange.gf import FMatrix, rank

    state = ExchangeState(demo19, 5)
    transmitted = []
    for user, coeffs in REFERENCE_TRACE:
        naive = []
        for i in range(demo19.m):
            stacked = np.concatenate(
                [demo19.observations[i].array]
                + [np.asarray(u, dtype=np.int64).reshape(1, -1) for u in transmitted]
            )
            r = rank(FMatrix(demo19.field, stacked))
            threshold = demo19.n_packets - (5 - state.round + 1)
            if r > threshold:
                naive.append(i)
        assert state.transmit_set() == naive
        entry = state.step(user, coeffs)
        transmitted.append(entry.combo)


def test_verify_empty_schedule(demo):
    empty = TransmissionSchedule(257, 6, ())
    report = verify_decodable(demo, empty)
    assert report.per_user == (False, False, False)
    inst = generate_instance("coded", 1, 2, FieldSpec(257), coverage=(2,), seed=0)
    assert verify_decodable(inst, TransmissionSchedule(257, 2, ())).all_ok


def test_construct_code_round_trip(demo):
    schedule = construct_code(demo, (1, 1, 3), RngSpec(1))
    assert schedule.counts(3) == (1, 1, 3)
    assert verify_decodable(demo, schedule).all_ok
    w = np.array([10, 20, 30, 40, 50, 60])
    received = transmit_values(schedule, w)
    for user in range(3):
        got = decode(demo, user, schedule, demo.observe(user, w), received)
        assert list(got) == list(w)


def _reference_construct(instance, rates, rng, max_retries=64):
    # Draw-and-verify loop: one generator for all attempts, user by user,
    # one uniform combining row per broadcast; None when every draw fails.
    # On GF(2) and GF(3) the seeds below take up to 20 attempts.
    gen = rng.generator()
    p = instance.field.p
    for _ in range(max_retries):
        entries = []
        for user, count in enumerate(rates):
            obs = instance.observations[user]
            for _ in range(count):
                coeffs = gen.integers(0, p, size=obs.rows)
                combo = obs.combine_rows(coeffs)
                entries.append(
                    ScheduleEntry(
                        round=len(entries) + 1,
                        user=user,
                        coeffs=tuple(int(v) for v in coeffs),
                        combo=tuple(int(v) for v in combo),
                    )
                )
        schedule = TransmissionSchedule(p, instance.n_packets, tuple(entries), rng)
        if verify_decodable(instance, schedule).all_ok:
            return schedule
    return None


@pytest.mark.parametrize("q", [2, 3, 17])
def test_construct_code_matches_draw_and_verify_reference(q):
    inst = preset_instance("example1", q=q)
    for seed in range(8):
        rng = RngSpec(seed, 2)
        expected = _reference_construct(inst, (1, 1, 3), rng)
        assert expected is not None
        assert construct_code(inst, (1, 1, 3), rng).to_json_dict() == expected.to_json_dict()


def test_construct_code_rejects_rates_outside_region(demo):
    with pytest.raises(InfeasibleRates):
        construct_code(demo, (0, 0, 0))
    with pytest.raises(InfeasibleRates):
        construct_code(demo, (1, 1))


def test_construct_code_tiny_field_can_exhaust_retries():
    inst = preset_instance("example1", q=2)
    with pytest.raises(ConstructionFailed) as err:
        construct_code(inst, (1, 1, 3), RngSpec(0), max_retries=1)
    assert err.value.attempts == 1


def test_construct_code_is_deterministic(demo):
    s1 = construct_code(demo, (1, 1, 3), RngSpec(9))
    s2 = construct_code(demo, (1, 1, 3), RngSpec(9))
    assert s1.entries == s2.entries


def test_decode_without_enough_information(demo):
    empty = TransmissionSchedule(257, 6, ())
    with pytest.raises(NotDecodable):
        decode(demo, 0, empty, demo.observe(0, np.zeros(6, dtype=int)), [])


@pytest.mark.parametrize("offset", [0, 1], ids=["consistent", "inconsistent"])
def test_decode_rank_deficient_stack_is_not_decodable(demo, offset):
    # A broadcast inside user 0's own span adds no rank, so the stack stays
    # deficient whether or not its received value agrees with the rows.
    w = np.arange(6)
    own = tuple(int(v) for v in demo.observations[0].array[0])
    schedule = TransmissionSchedule(257, 6, (ScheduleEntry(1, 0, (1,), own),))
    received = (transmit_values(schedule, w) + offset) % 257
    with pytest.raises(NotDecodable):
        decode(demo, 0, schedule, demo.observe(0, w), received)


def test_decode_full_rank_inconsistent_stack_is_singular():
    inst = generate_instance("coded", 1, 3, FieldSpec(257), coverage=(3,), seed=2)
    w = np.array([7, 8, 9])
    own = tuple(int(v) for v in inst.observations[0].array[0])
    schedule = TransmissionSchedule(257, 3, (ScheduleEntry(1, 0, (1, 0, 0), own),))
    received = (transmit_values(schedule, w) + 1) % 257
    with pytest.raises(SingularSystem, match="inconsistent right-hand side"):
        decode(inst, 0, schedule, inst.observe(0, w), received)


def test_decode_full_rank_user_needs_no_schedule():
    inst = generate_instance("coded", 1, 3, FieldSpec(257), coverage=(3,), seed=2)
    empty = TransmissionSchedule(257, 3, ())
    w = np.array([7, 8, 9])
    got = decode(inst, 0, empty, inst.observe(0, w), [])
    assert list(got) == list(w)


def test_schedule_json_round_trip(tmp_path, demo):
    schedule = construct_code(demo, (1, 1, 3), RngSpec(4, 2))
    path = tmp_path / "sched.json"
    save_schedule(schedule, path)
    again = load_schedule(path)
    assert again == schedule
    assert again.rng == RngSpec(4, 2)
    again.validate_against(demo)


def test_schedule_json_format_fields(tmp_path, demo):
    schedule = construct_code(demo, (1, 1, 3), RngSpec(4))
    path = tmp_path / "sched.json"
    save_schedule(schedule, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"q", "N", "entries", "rng"}
    assert doc["rng"] == {"seed": 4, "stream": 0}
    entry = doc["entries"][0]
    assert set(entry) == {"round", "user", "b", "u"}
    assert entry["round"] == 1


def test_schedule_validation_catches_tampering(demo):
    schedule = construct_code(demo, (1, 1, 3), RngSpec(4))
    e = schedule.entries[0]
    bad = TransmissionSchedule(
        schedule.q,
        schedule.n_packets,
        (ScheduleEntry(e.round, e.user, e.coeffs, tuple([1] * 6)),) + schedule.entries[1:],
    )
    with pytest.raises(ValueError, match="does not match"):
        bad.validate_against(demo)


def test_schedule_rows_recompute_from_coefficients(demo):
    schedule = construct_code(demo, (1, 1, 3), RngSpec(11))
    for e in schedule.entries:
        expected = demo.observations[e.user].combine_rows(e.coeffs)
        assert tuple(int(v) for v in expected) == e.combo


def _tampered(demo, key, rewrite):
    doc = construct_code(demo, (1, 1, 3), RngSpec(4)).to_json_dict()
    for e in doc["entries"]:
        e[key] = rewrite(e[key])
    return TransmissionSchedule.from_json_dict(doc)


@pytest.mark.parametrize(
    "key, rewrite",
    [
        ("user", lambda u: -3 if u == 0 else u),  # wraps to user 0 under indexing
        ("user", lambda u: 3 if u == 0 else u),
        ("user", lambda u: True if u == 1 else u),
        ("round", lambda r: r + 1),
        ("round", lambda r: 1),
        ("round", lambda r: True if r == 1 else r),
    ],
)
def test_schedule_validation_rejects_bad_senders_and_rounds(demo, key, rewrite):
    with pytest.raises(ValueError, match="sender" if key == "user" else "rounds must run"):
        _tampered(demo, key, rewrite).validate_against(demo)


_ENTRY_VALUES = st.one_of(st.integers(-4, 7), st.booleans())


@settings(max_examples=150, deadline=None)
@given(
    mutations=st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from(["round", "user"]), _ENTRY_VALUES),
        max_size=3,
    )
)
def test_schedule_validation_over_entry_mutations(demo, mutations):
    # Any accepted schedule has real senders and rounds 1..n in order, and
    # the untouched schedule is always accepted.
    base = construct_code(demo, (1, 1, 3), RngSpec(4)).to_json_dict()
    doc = copy.deepcopy(base)
    for k, key, value in mutations:
        doc["entries"][k][key] = value
    sound = all(
        type(e["round"]) is int and e["round"] == k
        and type(e["user"]) is int and 0 <= e["user"] < demo.m
        for k, e in enumerate(doc["entries"], 1)
    )
    untouched = all(
        type(e[key]) is type(b[key]) and e[key] == b[key]
        for e, b in zip(doc["entries"], base["entries"])
        for key in ("round", "user")
    )
    try:
        TransmissionSchedule.from_json_dict(doc).validate_against(demo)
    except ValueError:
        assert not untouched
        return
    assert sound


@pytest.mark.parametrize(
    "doc",
    [
        {"q": 257, "N": 6, "entries": [{"round": 1, "user": 0, "b": [1]}]},
        {"q": 257, "N": 6, "entries": [3]},
        {"q": 257, "N": 6, "entries": [], "rng": [1]},
        [],
        {"q": 257, "N": 6, "entries": {}},
        {"q": 257, "N": 6, "entries": ""},
        {"q": 257, "N": 6, "entries": [], "rng": 0},
        {"q": 257, "N": 6, "entries": [], "rng": False},
    ],
)
def test_schedule_loader_rejects_malformed_documents(doc):
    with pytest.raises(ValueError, match="malformed"):
        TransmissionSchedule.from_json_dict(doc)
