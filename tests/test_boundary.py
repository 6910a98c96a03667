"""The document boundary: the loaders refuse exactly the documents that the
per-value integer rule they replace refused, with the same exception type,
and build equal objects from the rest."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexchange.cli import _truth
from dexchange.gf import FieldSpec, FMatrix
from dexchange.model import (
    InstanceError,
    ProblemInstance,
    json_int,
    json_ints,
    load_instance,
    preset_instance,
    read_json,
)
from dexchange.netcode import RngSpec, ScheduleEntry, TransmissionSchedule, construct_code, load_schedule

Q = 5
DEMO = preset_instance("example1", q=Q)
INSTANCE_DOC = DEMO.to_json_dict()
SCHEDULE_DOC = construct_code(DEMO, (1, 1, 3), RngSpec(4)).to_json_dict()
TRUTH_DOC = [1, 2, 3, 4, 0, 1]


def is_entry(v, high) -> bool:
    """The per-value rule each loader applied before the array form: a
    JSON integer, not a bool, in [0, high)."""
    return type(v) is int and 0 <= v < high


def oracle_instance(doc) -> ProblemInstance:
    """The instance loader's per-row, per-entry loop for the rows of a
    document whose q, N and user list are sound."""
    q, n = doc["q"], doc["N"]
    field = FieldSpec(q)
    for i, user in enumerate(doc["users"]):
        for row in user["rows"]:
            if not isinstance(row, list) or len(row) != n:
                raise InstanceError(f"user {i}: rows must all have length {n}")
            if not all(is_entry(v, q) for v in row):
                raise InstanceError(f"user {i}: entry outside the field range")
    return ProblemInstance(field, n, tuple(FMatrix(field, u["rows"], cols=n) for u in doc["users"]))


def oracle_schedule(doc) -> TransmissionSchedule:
    """The schedule loader's per-value checks of rounds, senders, ``b`` and
    ``u``, then the check against the instance that every CLI load runs."""
    q = doc["q"]
    entries = []
    for e in doc["entries"]:
        if type(e["round"]) is not int or type(e["user"]) is not int:
            raise ValueError("round or sender is not an integer")
        if not all(is_entry(v, q) for v in e["b"]) or not all(is_entry(v, q) for v in e["u"]):
            raise ValueError("entry outside the field range")
        entries.append(ScheduleEntry(e["round"], e["user"], tuple(e["b"]), tuple(e["u"])))
    schedule = TransmissionSchedule(q, doc["N"], tuple(entries), RngSpec(**doc["rng"]))
    schedule.validate_against(DEMO)
    return schedule


def oracle_truth(doc) -> np.ndarray:
    """``decode --truth``'s length check and per-packet loop."""
    if not isinstance(doc, list) or len(doc) != DEMO.n_packets:
        raise ValueError("truth must list 6 packets")
    if not all(is_entry(v, Q) for v in doc):
        raise ValueError("packets must be integers in [0, 5)")
    return np.asarray(doc, dtype=np.int64)


def new_schedule(path) -> TransmissionSchedule:
    schedule = load_schedule(path)
    schedule.validate_against(DEMO)
    return schedule


#: Values the rule must refuse, and some it must accept.
ODD_VALUES = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([2**70, -(2**70), -1, Q, 2**63]),
    st.text(max_size=3),
    st.lists(st.integers(0, Q - 1), max_size=2),
    st.integers(0, Q - 1),
)


def _lists(kind, doc):
    """The integer lists of one kind of document that mutations touch."""
    if kind == "instance":
        return [row for user in doc["users"] for row in user["rows"]]
    if kind == "schedule":
        return [e[key] for e in doc["entries"] for key in ("b", "u")]
    return [doc]


@given(st.data(), st.sampled_from(["instance", "schedule", "truth"]))
@settings(max_examples=400, deadline=None)
def test_loaders_refuse_exactly_what_the_per_value_rule_refused(tmp_path_factory, data, kind):
    base = {"instance": INSTANCE_DOC, "schedule": SCHEDULE_DOC, "truth": TRUTH_DOC}[kind]
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3))):
        how = data.draw(st.sampled_from(["value", "drop", "append", "round", "sender"]))
        if kind == "schedule" and how in ("round", "sender"):
            entry = data.draw(st.sampled_from(doc["entries"]))
            entry["round" if how == "round" else "user"] = data.draw(ODD_VALUES)
            continue
        values = data.draw(st.sampled_from(_lists(kind, doc)))
        if how == "drop" and values:  # a ragged row, or a short b, u or truth
            values.pop()
        elif how == "append":
            values.append(data.draw(ODD_VALUES))
        elif values:
            values[data.draw(st.integers(0, len(values) - 1))] = data.draw(ODD_VALUES)
    path = tmp_path_factory.mktemp("doc") / f"{kind}.json"
    path.write_text(json.dumps(doc))
    oracle, new = {
        "instance": (oracle_instance, load_instance),
        "schedule": (oracle_schedule, new_schedule),
        "truth": (oracle_truth, lambda p: _truth(p, DEMO)),
    }[kind]
    try:
        expected = oracle(doc)
    except ValueError as exc:  # InstanceError and ShapeError among them
        with pytest.raises(ValueError) as got:
            new(path)
        assert type(got.value) is type(exc)
        return
    got = new(path)
    if kind == "truth":
        assert got.dtype == np.int64 and np.array_equal(got, expected)
    else:
        assert got == expected


def test_untouched_documents_load_equal():
    assert oracle_instance(INSTANCE_DOC) == DEMO
    assert oracle_schedule(SCHEDULE_DOC) == TransmissionSchedule.from_json_dict(SCHEDULE_DOC)
    assert list(oracle_truth(TRUTH_DOC)) == TRUTH_DOC


@pytest.mark.parametrize(
    "value, low, message",
    [
        (True, None, "N must be an integer, not True"),
        (1.0, None, "N must be an integer, not 1.0"),
        ("1", 1, "N must be an integer >= 1, not '1'"),
        (0, 1, "N must be an integer >= 1, not 0"),
    ],
)
def test_json_int_names_the_bound_and_the_value(value, low, message):
    with pytest.raises(ValueError) as exc:
        json_int(value, "N", low)
    assert str(exc.value) == message
    assert json_int(7, "N", 1) == 7 and type(json_int(2**70, "N")) is int


@pytest.mark.parametrize(
    "doc, width, message",
    [
        ({"a": 1}, None, "x must be a JSON list"),
        ([1, 2, True, 9], None, "x must be integers in [0, 5) (the field range), not True"),
        ([1, 2**70], None, "x must be integers in [0, 5) (the field range), not 1180591620717411303424"),
        ([[1, 2], [3, -(2**70)]], 2, "x must be integers in [0, 5) (the field range), not -1180591620717411303424"),
        ([[1, 2], [3, 5]], 2, "x must be integers in [0, 5) (the field range), not 5"),
        ([[1, 2], [3]], 2, "x must form rows of length 2"),
        ([[1, 2], 3], 2, "x must form rows of length 2"),
        ([[1, [2]], [3, 4]], 2, "x must be integers in [0, 5) (the field range), not [2]"),
    ],
)
def test_json_ints_names_the_first_bad_value(doc, width, message):
    with pytest.raises(InstanceError) as exc:
        json_ints(doc, 5, "x", width, InstanceError)
    assert str(exc.value) == message


def test_json_ints_shapes():
    assert json_ints([], 5, "x").shape == (0,)
    got = json_ints([[0, 4], [4, 0]], 5, "x", 2)
    assert got.dtype == np.int64 and got.tolist() == [[0, 4], [4, 0]]
    assert json_ints([0, 4], 5, "x").tolist() == [0, 4]


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"not json", "not a JSON document: Expecting value"),
        (b"\xff\xfe{}", "not a JSON document: 'utf-8' codec can't decode"),
        (b"[" * 100_000 + b"]" * 100_000, "not a JSON document: maximum recursion depth"),
    ],
    ids=["not-json", "not-utf8", "too-deep"],
)
def test_read_json_reports_every_parse_fault_as_not_a_json_document(tmp_path, blob, message):
    path = tmp_path / "doc.json"
    path.write_bytes(blob)
    with pytest.raises(InstanceError, match=message):
        read_json(path, InstanceError)
