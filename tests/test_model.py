import functools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexchange import model
from dexchange.gf import MAX_MODULUS, FieldSpec, FMatrix, rank
from dexchange.model import (
    FILE_BYTES_PER_ENTRY,
    MAX_TABLE_USERS,
    MAX_USERS,
    CutSetOracle,
    InfeasibleInstance,
    InstanceError,
    ProblemInstance,
    TableTooLarge,
    _raw_supports,
    generate_instance,
    in_cut_set_region,
    instance_from_packet_sets,
    json_text,
    load_instance,
    members,
    preset_instance,
    rank_table,
    save_instance,
    subset_sums,
)
from dexchange.validate import dilworth_value

FULL = 0b111  # all three users of the demo instance


def test_bit_helpers():
    assert members(0b1011) == (0, 1, 3)
    assert members(0) == ()


def test_demo_observation_shapes(demo):
    assert demo.m == 3
    assert demo.n_packets == 6
    assert [obs.rows for obs in demo.observations] == [2, 4, 4]


def test_collective_rank_required():
    f = FieldSpec(5)
    mats = (FMatrix(f, [[1, 0, 0]]), FMatrix(f, [[0, 1, 0]]))
    with pytest.raises(InstanceError, match="collective rank"):
        ProblemInstance(f, 3, mats)


def test_too_few_rows_fail_before_any_elimination(monkeypatch):
    # A million packets and no rows: the elimination would size its buffers
    # by the packet count, so the row count has to reject the instance first.
    monkeypatch.setattr(model, "rank", lambda _: pytest.fail("eliminated a rowless instance"))
    f = FieldSpec(2)
    with pytest.raises(InstanceError, match="collective rank at most 0 is below the packet count 1000000"):
        ProblemInstance(f, 1_000_000, (FMatrix(f, [], cols=1_000_000),))


def test_column_count_checked():
    f = FieldSpec(5)
    with pytest.raises(InstanceError, match="columns"):
        ProblemInstance(f, 3, (FMatrix(f, [[1, 0]]),))


def test_joint_rank_demo_values(demo_oracle):
    # Stacked ranks of the demo instance, countable by hand from the packet sets.
    assert demo_oracle.joint_rank(0) == 0
    assert demo_oracle.joint_rank(0b010) == 4
    assert demo_oracle.joint_rank(0b101) == 6
    assert demo_oracle.joint_rank(FULL) == 6


def test_joint_rank_memo_is_monotone(demo_oracle):
    for s in range(FULL + 1):
        for t in range(FULL + 1):
            if s & t == s:
                assert demo_oracle.joint_rank(s) <= demo_oracle.joint_rank(t)


def test_cut_set_tables(demo_oracle):
    f4 = {0b001: 0, 0b010: 2, 0b100: 2, 0b011: 3, 0b101: 4, 0b110: 3, FULL: 4}
    f5 = {0b001: 1, 0b010: 3, 0b100: 3, 0b011: 4, 0b101: 5, 0b110: 4, FULL: 5}
    for s, v in f4.items():
        assert demo_oracle.cut_set_f(4, s) == v
    for s, v in f5.items():
        assert demo_oracle.cut_set_f(5, s) == v
    assert demo_oracle.cut_set_f(4, 0) == 0


def test_cut_set_f_may_be_negative(demo_oracle):
    assert demo_oracle.cut_set_f(0, 0b001) == -4


def test_cut_set_f_validates_input(demo_oracle):
    with pytest.raises(ValueError):
        demo_oracle.cut_set_f(-1, 0b001)
    with pytest.raises(ValueError):
        demo_oracle.joint_rank(0b1000)


def test_partition_minimum_tables(demo_oracle):
    g4 = {0b001: 0, 0b010: 2, 0b100: 2, 0b011: 2, 0b101: 2, 0b110: 3, FULL: 3}
    g5 = {0b001: 1, 0b010: 3, 0b100: 3, 0b011: 4, 0b101: 4, 0b110: 4, FULL: 5}
    for s, v in g4.items():
        assert dilworth_value(demo_oracle, 4, s) == v
    for s, v in g5.items():
        assert dilworth_value(demo_oracle, 5, s) == v


def test_partition_minimum_singleton_equals_f(demo_oracle):
    for i in range(3):
        s = 1 << i
        assert dilworth_value(demo_oracle, 5, s) == demo_oracle.cut_set_f(5, s)


def test_partition_minimum_never_exceeds_f(demo_oracle):
    for beta in (0, 3, 4, 5, 6, 8):
        for s in range(1, FULL + 1):
            assert dilworth_value(demo_oracle, beta, s) <= demo_oracle.cut_set_f(beta, s)


def test_json_round_trip(tmp_path, demo):
    path = tmp_path / "inst.json"
    save_instance(demo, path)
    again = load_instance(path)
    assert again == demo
    assert again.digest() == demo.digest()


def test_loader_rejects_bad_documents(tmp_path):
    base = preset_instance("example1", q=5).to_json_dict()

    def dump(doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path

    doc = json.loads(json.dumps(base))
    doc["users"][0]["rows"][0][0] = 5
    with pytest.raises(InstanceError, match="field range"):
        load_instance(dump(doc))

    doc = json.loads(json.dumps(base))
    doc["users"][1]["rows"][0] = [1, 0, 0]
    with pytest.raises(InstanceError, match="length"):
        load_instance(dump(doc))

    doc = json.loads(json.dumps(base))
    doc["users"] = doc["users"][:1]  # first user alone cannot span the file
    with pytest.raises(InstanceError, match="collective rank"):
        load_instance(dump(doc))

    doc = json.loads(json.dumps(base))
    doc["q"] = 6
    with pytest.raises(InstanceError, match="prime"):
        load_instance(dump(doc))

    # JSON booleans are ints to Python, but not to the loader.
    with pytest.raises(InstanceError, match="N must be"):
        load_instance(dump({"q": 5, "N": True, "users": [{"rows": [[True]]}]}))
    with pytest.raises(InstanceError, match="field range"):
        load_instance(dump({"q": 5, "N": 1, "users": [{"rows": [[True]]}]}))

    # A prime far above the modulus cap is rejected without trial division.
    doc = json.loads(json.dumps(base))
    doc["q"] = (1 << 61) - 1
    with pytest.raises(InstanceError, match="maximum"):
        load_instance(dump(doc))

    path = tmp_path / "bad.json"
    for blob in (b"not json", b"\xff\xfe{}"):
        path.write_bytes(blob)
        with pytest.raises(InstanceError, match="not a JSON document"):
            load_instance(path)


DEMO_DOC = preset_instance("example1").to_json_dict()
ODD_VALUES = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.integers(-(1 << 70), 1 << 70),
)


@given(st.data(), ODD_VALUES)
@settings(max_examples=200, deadline=None)
def test_instance_loader_over_field_mutations(data, value):
    # One entry, N or q of the demo document replaced by a boolean, float,
    # string or arbitrary int: the document loads or raises InstanceError,
    # and it loads only if the new value is a plain int.
    doc = json.loads(json.dumps(DEMO_DOC))
    where = data.draw(st.sampled_from(("q", "N", "entry")))
    if where == "entry":
        users = doc["users"]
        rows = users[data.draw(st.integers(0, len(users) - 1))]["rows"]
        row = rows[data.draw(st.integers(0, len(rows) - 1))]
        row[data.draw(st.integers(0, len(row) - 1))] = value
    else:
        doc[where] = value
    try:
        ProblemInstance.from_json_dict(doc)
    except InstanceError:
        return
    assert type(value) is int


def test_generate_raw_matches_reference_layout():
    inst = instance_from_packet_sets(
        FieldSpec(257), 6, [(0, 1), (1, 3, 4, 5), (2, 3, 4, 5)]
    )
    oracle = CutSetOracle(inst)
    expected = {0b001: 1, 0b010: 3, 0b100: 3, 0b011: 4, 0b101: 5, 0b110: 4, FULL: 5}
    for s, v in expected.items():
        assert oracle.cut_set_f(5, s) == v


def test_generate_coded_reaches_full_rank():
    inst = generate_instance("coded", 2, 3, FieldSpec(257), coverage=(2, 2), seed=11)
    stacked = FMatrix.vstack(inst.field, inst.observations, cols=3)
    assert rank(stacked) == 3


def test_generate_is_deterministic():
    a = generate_instance("coded", 3, 4, FieldSpec(257), seed=3)
    b = generate_instance("coded", 3, 4, FieldSpec(257), seed=3)
    assert a == b and a.digest() == b.digest()


@pytest.mark.parametrize(
    "m, q, seed, digest",
    [
        (10, 257, 0, "9c38d9538239"),
        (10, 257, 1, "cd222a3ef822"),
        (10, 257, 2, "f66c3712de57"),
        (6, 17, 0, "0fb55119cb4e"),
        (6, 17, 1, "b26430a315e3"),
        (6, 17, 2, "56af649e01a4"),
    ],
)
def test_generate_coded_ranks_each_draw_once(monkeypatch, m, q, seed, digest):
    import dexchange.model as model

    calls = []
    monkeypatch.setattr(model, "rank", lambda mat: calls.append(mat) or rank(mat))
    inst = generate_instance("coded", m, 24, FieldSpec(q), seed=seed)
    assert inst.digest() == digest
    assert len(calls) == 1  # these seeds span all packets on the first draw


def test_generate_rejects_too_many_users():
    with pytest.raises(InfeasibleInstance, match="bitmask cap"):
        generate_instance("coded", MAX_USERS + 1, 4, FieldSpec(257))


def test_generate_refuses_draws_over_the_entry_cap(monkeypatch):
    # Refused before the generator runs: the draw itself is never made.
    monkeypatch.setattr(model.np.random, "default_rng", lambda _: pytest.fail("drew an oversized instance"))
    with pytest.raises(InfeasibleInstance, match="draw cap of 4194304 matrix entries"):
        generate_instance("coded", 2, 100_000, FieldSpec(257))
    monkeypatch.undo()
    monkeypatch.setattr(model, "MAX_DRAW_ENTRIES", 12)
    assert generate_instance("raw", 2, 3, FieldSpec(2), coverage=(2, 2)).m == 2  # 12 entries: at the cap
    with pytest.raises(InfeasibleInstance, match="draw cap of 12"):
        generate_instance("raw", 2, 3, FieldSpec(2), coverage=(3, 2))


def test_instance_loader_refuses_documents_over_the_entry_cap(monkeypatch):
    # Refused before the user's rows are read: its one row is not even a list.
    top = model.MAX_DRAW_ENTRIES
    with pytest.raises(InstanceError, match=rf"^{top + 1} matrix entries .* exceed the cap of {top}$"):
        ProblemInstance.from_json_dict({"q": 2, "N": top + 1, "users": [{"rows": ["x"]}]})
    # The demo document's users hold 2, 4 and 4 rows of 6 packets: 60 entries.
    monkeypatch.setattr(model, "MAX_DRAW_ENTRIES", 60)
    assert ProblemInstance.from_json_dict(DEMO_DOC).m == 3
    monkeypatch.setattr(model, "MAX_DRAW_ENTRIES", 59)
    with pytest.raises(InstanceError, match=r"^60 matrix entries \(10 rows of 6 packets in users 0 to 2\)"):
        ProblemInstance.from_json_dict(DEMO_DOC)
    # Over the cap at the first user: no matrix is built.
    monkeypatch.setattr(model, "MAX_DRAW_ENTRIES", 11)
    monkeypatch.setattr(model, "FMatrix", lambda *a, **k: pytest.fail("built a matrix over the cap"))
    with pytest.raises(InstanceError, match=r"^12 matrix entries \(2 rows of 6 packets in users 0 to 0\)"):
        ProblemInstance.from_json_dict(DEMO_DOC)


@given(
    st.sampled_from(("raw", "coded")),
    st.integers(1, 6),
    st.integers(1, 8),
    st.sampled_from((2, 3, 5, 257)),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_sum_rate_floor_bounds_min_sum_rate(kind, m, n, q, seed):
    from dexchange.ratealloc import min_sum_rate

    inst = generate_instance(kind, m, n, FieldSpec(q), seed=seed)
    floor = inst.sum_rate_floor()
    assert 0 <= floor <= min_sum_rate(CutSetOracle(inst))
    if m == 1:
        assert floor == 0


@given(
    st.sampled_from(("raw", "coded")),
    st.integers(1, 6),
    st.integers(1, 8),
    st.sampled_from((2, 3, 5, 257)),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_sum_rate_floor_reads_each_users_rank_off_its_checks(kind, m, n, q, seed):
    # One elimination per user, shared with the exchange state, gives the
    # floor that m rank calls gave, as a plain int.
    inst = generate_instance(kind, m, n, FieldSpec(q), seed=seed)
    floor = inst.sum_rate_floor()
    assert type(floor) is int
    assert floor == model.singleton_floor(n, [rank(obs) for obs in inst.observations])
    assert "span_checks" in vars(inst)


def test_generate_infeasible_coverage():
    with pytest.raises(InfeasibleInstance):
        generate_instance("raw", 2, 4, FieldSpec(257), coverage=(1, 1))
    with pytest.raises(InfeasibleInstance):
        generate_instance("raw", 2, 3, FieldSpec(257), coverage=(4, 1))


def test_preset_unknown_name():
    with pytest.raises(InstanceError):
        preset_instance("nonesuch")


def test_in_cut_set_region(demo_oracle):
    assert in_cut_set_region(demo_oracle, (1, 1, 3))
    assert in_cut_set_region(demo_oracle, (1, 3, 1))
    assert not in_cut_set_region(demo_oracle, (0, 0, 0))
    assert not in_cut_set_region(demo_oracle, (2, 1, 1))  # total 4 is too small


@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_budget_function_is_intersecting_submodular(m, n, seed):
    inst = generate_instance("coded", m, n, FieldSpec(5), seed=seed)
    oracle = CutSetOracle(inst)
    full = inst.full_mask
    for beta in (0, n - 1, n, n + 2):
        for s in range(full + 1):
            for t in range(full + 1):
                if s & t == 0 and beta < n:
                    continue
                lhs = oracle.cut_set_f(beta, s) + oracle.cut_set_f(beta, t)
                rhs = oracle.cut_set_f(beta, s | t) + oracle.cut_set_f(beta, s & t)
                assert lhs >= rhs


def test_oracle_is_shareable_across_threads(demo):
    import threading

    oracle = CutSetOracle(demo)
    results = []

    def worker():
        results.append([oracle.joint_rank(s) for s in range(8)])

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


# ---------------------------------------------------------------------------
# Dense rank table


def _stacked_ranks(inst):
    """rank(vstack(A_i for i in S)) for every subset S, from scratch."""
    out = []
    for s in range(1 << inst.m):
        mats = [inst.observations[i] for i in members(s)]
        out.append(rank(FMatrix.vstack(inst.field, mats, cols=inst.n_packets)))
    return out


def _complete(field, n, users):
    """Instance from per-user row lists, with unit rows for the packets the
    stacked rows miss added to the users in turn so the instance is valid."""
    users = [list(rows) for rows in users]
    stacked = [row for rows in users for row in rows]
    have = rank(FMatrix(field, stacked, cols=n)) if stacked else 0
    k = 0
    for c in range(n):
        if have == n:
            break
        unit = [0] * n
        unit[c] = 1
        if rank(FMatrix(field, stacked + [unit], cols=n)) > have:
            stacked.append(unit)
            users[k % len(users)].append(unit)
            have += 1
            k += 1
    mats = tuple(FMatrix(field, rows, cols=n) for rows in users)
    return ProblemInstance(field, n, mats)


@st.composite
def table_instances(draw):
    q = draw(st.sampled_from((2, 3, 5, 257)))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    raw = draw(st.booleans())
    users = []
    for _ in range(m):
        rows = []
        for _ in range(draw(st.integers(0, 3))):
            if raw:  # a scaled unit row
                row = [0] * n
                row[draw(st.integers(0, n - 1))] = draw(st.integers(1, q - 1))
            else:
                row = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
            rows.append(row)
        users.append(rows)
    if m > 1 and draw(st.booleans()):
        users[-1] = list(users[0])  # duplicate users
    return _complete(FieldSpec(q), n, users)


@given(table_instances())
@settings(max_examples=80, deadline=None)
def test_rank_table_matches_stacked_ranks(inst):
    table = CutSetOracle(inst).ranks
    assert table.tolist() == _stacked_ranks(inst)
    assert [CutSetOracle(inst).joint_rank(s) for s in range(1 << inst.m)] == table.tolist()


@pytest.mark.parametrize(
    "q, n, users, raw",
    [
        (2, 3, [[[1, 1, 0], [0, 1, 1]], [[1, 0, 1], [0, 0, 1]]], False),  # GF(2)
        (5, 3, [[], [[1, 2, 3], [0, 1, 4]], [[0, 0, 1]]], False),  # a user with no rows
        (5, 3, [[[1, 2, 0]], [[1, 2, 0]], [[0, 1, 1], [0, 0, 1]]], False),  # duplicate users
        (257, 2, [[[3, 5], [1, 0]]], False),  # one user
        (5, 3, [[[0, 3, 0]], [[2, 0, 0], [0, 4, 0]], [[0, 0, 1]]], True),  # scaled unit rows
        (5, 3, [[[1, 1, 0]], [[0, 1, 0]], [[0, 0, 1]]], False),  # not a raw instance
        (5, 3, [[], [[0, 0, 0], [1, 0, 0]], [[0, 1, 0], [0, 0, 2]]], True),  # zero rows
    ],
)
def test_rank_table_edge_cases(q, n, users, raw):
    f = FieldSpec(q)
    inst = ProblemInstance(f, n, tuple(FMatrix(f, rows, cols=n) for rows in users))
    assert (_raw_supports(inst) is not None) == raw
    assert rank_table(inst).tolist() == _stacked_ranks(inst)


def test_rank_table_matches_on_generated_instances():
    # The 70-packet raw instance takes packet bitmasks of two 64-bit words.
    for kind, q, m, n, coverage in (
        ("raw", 257, 7, 12, None),
        ("raw", 2, 5, 70, (50,) * 5),
        ("coded", 3, 6, 8, None),
        ("coded", 257, 7, 10, None),
    ):
        for seed in range(3):
            inst = generate_instance(kind, m, n, FieldSpec(q), coverage=coverage, seed=seed)
            assert rank_table(inst).tolist() == _stacked_ranks(inst)


#: Coded instances for the batched build: (q, m, N, coverage, seed).
_BUILD_CASES = {
    "m10-seed0": (257, 10, 24, None, 0),
    "m10-seed1": (257, 10, 24, None, 1),
    "m10-seed2": (257, 10, 24, None, 2),
    "q1048573": (1048573, 7, 12, None, 0),
    # The largest prime whose batches run in uint32, and the smallest above it.
    "q46337": (46337, 6, 10, None, 0),
    "q46349": (46349, 6, 10, None, 0),
    "gf2": (2, 7, 10, None, 0),
    "zero-rows": (257, 6, 9, (3, 0, 4, 0, 2, 3), 0),
    "uneven": (257, 7, 12, (1, 6, 2, 9, 1, 3, 5), 0),
    "alone-full": (257, 6, 8, (8, 1, 2, 3, 1, 2), 0),
}


@functools.cache
def _build_case(name):
    q, m, n, coverage, seed = _BUILD_CASES[name]
    inst = generate_instance("coded", m, n, FieldSpec(q), coverage=coverage, seed=seed)
    assert _raw_supports(inst) is None
    return inst, _stacked_ranks(inst)


@pytest.mark.parametrize("split", [False, True], ids=["default-budget", "split-every-batch"])
@pytest.mark.parametrize("case", list(_BUILD_CASES))
def test_batched_coded_build_matches_stacked_ranks(monkeypatch, case, split):
    inst, want = _build_case(case)
    if split:  # every batch holds one subset, so each split path runs
        monkeypatch.setattr(model, "_BATCH_ENTRIES", 1)
    assert rank_table(inst).tolist() == want


@pytest.mark.parametrize("case, dtype", [("q46337", "uint32"), ("q46349", "uint64")])
def test_coded_build_batch_dtype_boundary(monkeypatch, case, dtype):
    # Batches run in uint32 exactly when (q - 1)(2q - 1) < 2^32; the table
    # stays int64.
    inst, want = _build_case(case)
    seen = set()
    kernel = model._eliminate_leading

    def spy(x, rows, p):
        gained, rest = kernel(x, rows, p)
        seen.update((x.dtype.name, rest.dtype.name))
        return gained, rest

    monkeypatch.setattr(model, "_eliminate_leading", spy)
    table = rank_table(inst)
    assert seen == {dtype}
    assert table.dtype.name == "int64" and table.tolist() == want


@st.composite
def coded_instances(draw):
    """Coded instances over fields on both sides of the uint32 kernel bound,
    with random per-user row counts that include users with no rows."""
    q = draw(st.sampled_from((2, 3, 17, 257, 46337, 46349)))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(2, 10))
    coverage = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    coverage[draw(st.integers(0, m - 1))] += max(0, n - sum(coverage))
    seed = draw(st.integers(0, 2**16))
    return generate_instance("coded", m, n, FieldSpec(q), coverage=coverage, seed=seed)


@given(coded_instances())
@settings(max_examples=80, deadline=None)
def test_coded_rank_table_matches_stacked_ranks(inst):
    assert rank_table(inst).tolist() == _stacked_ranks(inst)


def test_batched_coded_build_memory_is_bounded():
    inst = generate_instance("coded", 16, 40, FieldSpec(257), seed=0)
    tracemalloc.start()
    try:
        rank_table(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20


def test_rank_table_is_read_only(demo_oracle):
    with pytest.raises(ValueError):
        demo_oracle.ranks[1] = 0


@given(
    st.sampled_from(("raw", "coded")),
    st.integers(1, 8),
    st.sampled_from((2, 3, 257)),
    st.integers(0, 2**31 - 1),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_ordered_ranks_renumber_the_users(kind, m, q, seed, rnd):
    oracle = CutSetOracle(generate_instance(kind, m, 6, FieldSpec(q), seed=seed))
    for _ in range(3):
        order = list(range(m))
        rnd.shuffle(order)
        want = oracle.ranks[subset_sums(1 << u for u in order)]
        assert np.array_equal(oracle.ordered_ranks(order), want)


def test_identity_order_is_a_view_of_the_table():
    oracle = CutSetOracle(generate_instance("coded", 6, 8, FieldSpec(5), seed=1))
    table = oracle.ordered_ranks(range(6))
    assert np.shares_memory(table, oracle.ranks)
    assert np.array_equal(table, oracle.ranks)


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)], ids=["identity", "permuted"])
def test_ordered_ranks_are_read_only(demo_oracle, order):
    table = demo_oracle.ordered_ranks(order)
    with pytest.raises(ValueError):
        table[1] = 0


def test_ordered_ranks_are_kept_per_oracle():
    # Same order, different instances: each oracle answers from its own table.
    order = (3, 1, 0, 2)
    oracles = [CutSetOracle(generate_instance("coded", 4, 6, FieldSpec(3), seed=s)) for s in (0, 1)]
    tables = [o.ordered_ranks(order) for o in oracles]
    for oracle, table in zip(oracles, tables):
        assert np.array_equal(table, oracle.ranks[subset_sums(1 << u for u in order)])
        assert oracle.ordered_ranks(order) is table
    assert not np.array_equal(tables[0], tables[1])


def test_racing_orders_each_read_their_own_table():
    # Threads asking one oracle for different orders replace its kept table
    # under each other; each must still get the table of the order it asked.
    import sys
    import threading

    oracle = CutSetOracle(generate_instance("coded", 6, 8, FieldSpec(5), seed=2))
    orders = [tuple(range(6)), (5, 4, 3, 2, 1, 0), (1, 3, 5, 0, 2, 4), (2, 0, 1, 5, 3, 4)]
    want = [oracle.ranks[subset_sums(1 << u for u in order)] for order in orders]
    bad = []

    def worker(k):
        for _ in range(300):
            if not np.array_equal(oracle.ordered_ranks(orders[k]), want[k]):
                bad.append(k)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k % len(orders),)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_rank_table_user_cap():
    m = MAX_TABLE_USERS + 1
    inst = instance_from_packet_sets(FieldSpec(257), m, [(i,) for i in range(m)])
    oracle = CutSetOracle(inst)  # construction builds nothing
    with pytest.raises(TableTooLarge, match="rank-table cap"):
        oracle.joint_rank(1)
    with pytest.raises(TableTooLarge):
        in_cut_set_region(oracle, (1,) * m)


def test_racing_first_readers_see_the_whole_table():
    import sys
    import threading

    inst = generate_instance("coded", 8, 10, FieldSpec(5), seed=4)
    want = _stacked_ranks(inst)
    oracle = CutSetOracle(inst)
    results = []

    def worker():
        results.append([oracle.joint_rank(s) for s in range(1 << inst.m)])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [want] * len(threads)


_ENTRIES = st.lists(st.integers(0, MAX_MODULUS), max_size=5)
_INSTANCE_DOCS = st.fixed_dictionaries({
    "q": st.integers(2, MAX_MODULUS),
    "N": st.integers(1, 2048),
    "users": st.lists(st.fixed_dictionaries({"rows": st.lists(_ENTRIES, max_size=4)}), max_size=4),
})
_SCHEDULE_DOCS = st.fixed_dictionaries({
    "q": st.integers(2, MAX_MODULUS),
    "N": st.integers(1, 2048),
    "entries": st.lists(
        st.fixed_dictionaries({
            "round": st.integers(1, 1 << 22),
            "user": st.integers(0, MAX_USERS - 1),
            "b": _ENTRIES,
            "u": _ENTRIES,
        }),
        max_size=4,
    ),
    "rng": st.none() | st.fixed_dictionaries({"seed": st.integers(0, 1 << 64), "stream": st.integers(0, 1 << 64)}),
})


@given(st.one_of(_INSTANCE_DOCS, _SCHEDULE_DOCS))
@settings(max_examples=200, deadline=None)
def test_json_text_is_json_dumps_with_indent_1(doc):
    # Empty rows, users and entries, a null rng and entries up to
    # MAX_MODULUS are all drawn.
    assert json_text(doc) == json.dumps(doc, indent=1)


def test_largest_instance_file_the_writer_makes_at_the_cap_loads(tmp_path, monkeypatch):
    # The writer's most bytes per entry: MAX_USERS users of one-entry rows
    # holding 7-digit entries, over the largest prime field allowed.
    cap = 10 * MAX_USERS
    monkeypatch.setattr(model, "MAX_DRAW_ENTRIES", cap)
    q = 1048573  # the largest prime below MAX_MODULUS
    doc = {"q": q, "N": 1, "users": [{"rows": [[q - 1]] * 10} for _ in range(MAX_USERS)]}
    path = tmp_path / "inst.json"
    save_instance(ProblemInstance.from_json_dict(doc), path)
    size, ceiling = path.stat().st_size, FILE_BYTES_PER_ENTRY * cap + 1024
    assert FILE_BYTES_PER_ENTRY * cap < size <= ceiling
    assert load_instance(path).to_json_dict() == doc
    with open(path, "a", encoding="utf-8") as f:  # still the same JSON document
        f.write(" " * (ceiling + 1 - size))
    with pytest.raises(InstanceError, match=f"file of {ceiling + 1} bytes exceeds the ceiling of {ceiling} bytes"):
        load_instance(path)
