import copy
import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexchange import netcode
from dexchange.gf import FieldSpec, FMatrix, SingularSystem, rank
from dexchange.model import CutSetOracle, generate_instance, preset_instance, save_instance
from dexchange.netcode import (
    ConstructionFailed,
    DecodeReport,
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
from dexchange.ratealloc import FairCost, GroundSet, Infeasible, LinearCost, min_cost, min_pinned

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
    alloc, schedule, _ = randomized_alloc(demo, 5, FairCost(), rng=RngSpec(0))
    assert alloc.rates == (1, 2, 2)
    assert schedule.counts(3) == (1, 2, 2)
    assert alloc.tsets[0] == (0, 1, 2)
    assert verify_decodable(demo, schedule).all_ok


def test_randomized_alloc_infeasible_budget_stops_early(demo):
    with pytest.raises(Infeasible) as err:
        randomized_alloc(demo, 4, FairCost(), rng=RngSpec(0))
    assert err.value.rounds_completed < 4


def test_randomized_alloc_single_user_zero_budget():
    inst = generate_instance("coded", 1, 2, FieldSpec(257), coverage=(2,), seed=0)
    alloc, schedule, _ = randomized_alloc(inst, 0, FairCost(), rng=RngSpec(0))
    assert alloc.rates == (0,)
    assert schedule.entries == ()
    assert verify_decodable(inst, schedule).all_ok


def test_randomized_alloc_respects_caps(demo):
    alloc, _, _ = randomized_alloc(demo, 5, LinearCost((1, 3, 2)), caps=(2, 2, 2), rng=RngSpec(1))
    assert alloc.rates == (1, 2, 2)


def test_randomized_alloc_is_deterministic(demo):
    a1, s1, _ = randomized_alloc(demo, 5, FairCost(), rng=RngSpec(3, 1))
    a2, s2, _ = randomized_alloc(demo, 5, FairCost(), rng=RngSpec(3, 1))
    assert a1 == a2 and s1.entries == s2.entries


@pytest.mark.parametrize("q", [2, 3, 5, 17])
def test_randomized_alloc_report_matches_verify_decodable(q):
    from dexchange.ratealloc import min_sum_rate

    outcomes = set()
    for inst_seed in range(4):
        inst = generate_instance("coded", 4, 5, FieldSpec(q), seed=inst_seed)
        beta = min_sum_rate(CutSetOracle(inst))
        for seed in range(8):
            try:
                _, schedule, report = randomized_alloc(inst, beta, FairCost(), rng=RngSpec(seed))
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
        alloc, schedule, _ = randomized_alloc(inst, beta, FairCost(), rng=RngSpec(seed))
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


def test_construction_failed_keeps_its_attempts_through_pickle():
    exc = pickle.loads(pickle.dumps(ConstructionFailed("no decodable schedule", attempts=3)))
    assert str(exc) == "no decodable schedule" and exc.attempts == 3


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


@pytest.mark.parametrize("case", ["rank-deficient", "inconsistent", "both"])
def test_decode_answers_from_one_elimination(demo, monkeypatch, case):
    # decode solves the stacked system and reads from that same elimination
    # whether a failure means the user cannot decode.
    from dexchange import gf

    if case == "inconsistent":  # user 0 holds all 3 packets
        inst = generate_instance("coded", 1, 3, FieldSpec(257), coverage=(3,), seed=2)
        expected = SingularSystem
    else:  # user 0 holds 2 of the 6 packets and hears one of its own rows
        inst, expected = demo, NotDecodable
    w = np.arange(inst.n_packets)
    own = inst.observations[0].array[0].tolist()
    schedule = TransmissionSchedule(257, inst.n_packets, (ScheduleEntry(1, 0, (), tuple(own)),))
    received = (transmit_values(schedule, w) + (case != "rank-deficient")) % 257
    built = []
    init = gf.RowBasis.__init__
    monkeypatch.setattr(gf.RowBasis, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    with pytest.raises(expected):
        decode(inst, 0, schedule, inst.observe(0, w), received)
    assert len(built) == 1


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from([2, 3, 257]),
    kind=st.sampled_from(["raw", "coded"]),
    m=st.integers(1, 4),
    n=st.integers(1, 6),
    seed=st.integers(0, 1 << 16),
    data=st.data(),
)
def test_decode_refuses_exactly_the_users_verify_decodable_refuses(q, kind, m, n, seed, data):
    # Received values are sometimes off, so a full-rank stack may be
    # inconsistent (SingularSystem) and a deficient one both at once.
    inst = generate_instance(kind, m, n, FieldSpec(q), seed=seed)
    user = data.draw(st.integers(0, m - 1))
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), max_size=n + 1))
    entries = tuple(ScheduleEntry(k, 0, (), tuple(r)) for k, r in enumerate(rows, 1))
    schedule = TransmissionSchedule(q, n, entries)
    w = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)), dtype=np.int64)
    offsets = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    received = (transmit_values(schedule, w) + np.array(offsets, dtype=np.int64)) % q
    decodable = verify_decodable(inst, schedule).per_user[user]
    try:
        got = decode(inst, user, schedule, inst.observe(user, w), received)
    except NotDecodable:
        assert not decodable
    except SingularSystem:
        assert decodable and any(offsets)
    else:
        assert decodable
        if not any(offsets):
            assert np.array_equal(got, w)


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


@pytest.mark.parametrize(
    "blob", [b"not json", b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000], ids=["not-json", "not-utf8", "too-deep"]
)
def test_schedule_file_that_is_not_json_is_refused(tmp_path, blob):
    path = tmp_path / "sched.json"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="not a JSON document"):
        load_schedule(path)


def test_seeded_draws_are_pinned():
    # One hash over randomized_alloc's rates, schedule and decode flags and
    # construct_code's schedule or failure, for q in {2, 3, 17, 257}, raw and
    # coded, m=4, N=8, seeds 0-2: a change to either draw stream moves it.
    records = []
    for q in (2, 3, 17, 257):
        for kind in ("raw", "coded"):
            for seed in range(3):
                inst = generate_instance(kind, 4, 8, FieldSpec(q), seed=seed)
                oracle = CutSetOracle(inst)
                best = min_cost(oracle, FairCost())
                try:
                    alloc, schedule, report = randomized_alloc(inst, best.beta, FairCost(), rng=RngSpec(seed))
                    records.append([alloc.rates, schedule.to_json_dict(), report.per_user, report.all_ok])
                except Infeasible as exc:
                    records.append(["infeasible", exc.achieved_sum])
                try:
                    schedule = construct_code(inst, best.allocation.rates, RngSpec(seed), max_retries=2)
                    records.append(schedule.to_json_dict())
                except ConstructionFailed as exc:
                    records.append(["construction-failed", exc.attempts])
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == "d2af59a3281ec609"


@settings(max_examples=80, deadline=None)
@given(
    q=st.sampled_from([2, 3, 257]),
    kind=st.sampled_from(["raw", "coded"]),
    m=st.integers(2, 6),
    n=st.integers(1, 6),
    seed=st.integers(0, 1 << 16),
    data=st.data(),
)
def test_exchange_state_ranks_match_stacked_ranks(q, kind, m, n, seed, data):
    # After every broadcast, each user's rank is the rank of its rows
    # stacked with every broadcast so far, computed from scratch.  Zero and
    # repeated coefficient rows add nothing, and the sender gains nothing.
    inst = generate_instance(kind, m, n, FieldSpec(q), seed=seed)
    beta = data.draw(st.integers(0, 8))
    state = ExchangeState(inst, beta)
    for _ in range(beta):
        user = data.draw(st.integers(0, m - 1))
        rows = inst.observations[user].rows
        earlier = [e.coeffs for e in state.entries if e.user == user]
        coeffs = data.draw(st.one_of(
            st.just((0,) * rows),
            st.lists(st.integers(0, q - 1), min_size=rows, max_size=rows),
            *([st.sampled_from(earlier)] if earlier else []),
        ))
        state.step(user, coeffs)
        heard = np.array([e.combo for e in state.entries], dtype=np.int64)
        expected = [rank(FMatrix(inst.field, np.concatenate([obs.array, heard]))) for obs in inst.observations]
        assert state._ranks.tolist() == expected
        assert state.report().per_user == tuple(r == n for r in expected)


def test_exchange_state_never_writes_the_cached_checks():
    inst = generate_instance("coded", 4, 8, FieldSpec(17), seed=0)
    checks, owner = inst.span_checks
    assert not checks.flags.writeable and not owner.flags.writeable
    # User i owns N - rank_i rows, each orthogonal to its observations.
    for i, obs in enumerate(inst.observations):
        mine = checks[owner == i]
        assert len(mine) == 8 - rank(obs)
        assert not (obs.array @ mine.T % 17).any()
    kept = checks.copy(), owner.copy()
    beta = min_cost(CutSetOracle(inst), FairCost()).beta
    for seed in range(4):
        randomized_alloc(inst, beta, FairCost(), rng=RngSpec(seed))
    assert inst.span_checks[0] is checks and inst.span_checks[1] is owner
    assert np.array_equal(checks, kept[0]) and np.array_equal(owner, kept[1])


@settings(max_examples=120, deadline=None)
@given(
    q=st.sampled_from([2, 3, 257]),
    kind=st.sampled_from(["raw", "coded"]),
    m=st.integers(1, 5),
    n=st.integers(1, 6),
    seed=st.integers(0, 1 << 16),
    data=st.data(),
)
def test_verify_decodable_matches_stacked_rank_definition(q, kind, m, n, seed, data):
    # User i decodes exactly when rank([A_i; B]) == N, B the schedule rows.
    # Rows are drawn directly, so over GF(2) many schedules are rank deficient.
    inst = generate_instance(kind, m, n, FieldSpec(q), seed=seed)
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), max_size=n + 1))
    entries = tuple(ScheduleEntry(k, 0, (), tuple(row)) for k, row in enumerate(rows, 1))
    b = np.array(rows, dtype=np.int64).reshape(-1, n)
    expected = tuple(
        rank(FMatrix(inst.field, np.concatenate([obs.array, b]))) == n for obs in inst.observations
    )
    assert verify_decodable(inst, TransmissionSchedule(q, n, entries)) == DecodeReport(expected)


def test_verify_decodable_on_a_rank_deficient_gf2_schedule():
    # Over GF(2) the last broadcast is the sum of the first two, so the four
    # rows have rank 3.  Users 1 and 2 each miss two packets and decode;
    # user 0 (packets 0 and 1) misses four and learns only packets 3, 5 and
    # the sum of packets 2 and 4.
    inst = preset_instance("example1", q=2)
    rows = ((1, 0, 0, 1, 0, 0), (0, 0, 1, 0, 1, 0), (0, 1, 0, 0, 0, 1), (1, 0, 1, 1, 1, 0))
    schedule = TransmissionSchedule(2, 6, tuple(ScheduleEntry(k, 1, (), r) for k, r in enumerate(rows, 1)))
    report = verify_decodable(inst, schedule)
    assert report == DecodeReport((False, True, True))


def test_schedule_loader_refuses_broadcasts_over_the_entry_cap(demo, monkeypatch):
    doc = construct_code(demo, (1, 1, 3), RngSpec(4)).to_json_dict()  # 5 broadcasts of 6 packets
    monkeypatch.setattr(netcode, "MAX_DRAW_ENTRIES", 30)
    assert TransmissionSchedule.from_json_dict(doc).counts(3) == (1, 1, 3)
    monkeypatch.setattr(netcode, "MAX_DRAW_ENTRIES", 29)
    with pytest.raises(ValueError, match="5 broadcasts of 6 packets exceed the cap of 29 matrix entries"):
        TransmissionSchedule.from_json_dict(doc)


def test_saved_file_bytes_are_pinned(tmp_path):
    # One hash over the exact bytes save_instance and save_schedule write
    # for seeded instances, drawn and constructed schedules, and an empty
    # schedule with no rng: any change to the file format moves it.
    digest = hashlib.sha256()
    path = tmp_path / "doc.json"
    for kind, q, seed in (("raw", 2, 0), ("coded", 17, 1), ("coded", 65537, 2)):
        inst = generate_instance(kind, 4, 8, FieldSpec(q), seed=seed)
        oracle = CutSetOracle(inst)
        best = min_cost(oracle, FairCost())
        _, drawn, _ = randomized_alloc(inst, best.beta + 2, FairCost(), rng=RngSpec(seed, 5))
        coded = construct_code(inst, best.allocation.rates, RngSpec(seed))
        for save, obj in (
            (save_instance, inst),
            (save_schedule, drawn),
            (save_schedule, coded),
            (save_schedule, TransmissionSchedule(q, 8, ())),
        ):
            save(obj, path)
            digest.update(path.read_bytes())
    assert digest.hexdigest()[:16] == "12b44d7322bdc06b"
