import json
import time

import pytest

from dexchange.cli import main
from dexchange.gf import FieldSpec
from dexchange.model import (
    MAX_TABLE_USERS,
    CutSetOracle,
    instance_from_packet_sets,
    json_text,
    load_instance,
    save_instance,
)
from dexchange.netcode import load_schedule, randomized_alloc
from dexchange.ratealloc import FairCost


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    payload = None
    if out.strip():
        payload = json.loads(out)
    return code, payload, err


@pytest.fixture()
def instance_file(tmp_path, capsys):
    path = tmp_path / "demo.json"
    code, _, _ = run(capsys, "gen", "--preset", "example1", "--out", str(path))
    assert code == 0
    return str(path)


@pytest.fixture()
def wide_instance_file(tmp_path):
    """One user more than the rank-table cap allows, each user holding one
    distinct packet."""
    m = MAX_TABLE_USERS + 1
    path = tmp_path / "wide.json"
    save_instance(instance_from_packet_sets(FieldSpec(257), m, [(i,) for i in range(m)]), path)
    return str(path)


def test_gen_preset_writes_instance(tmp_path, capsys):
    path = tmp_path / "demo.json"
    code, _, err = run(capsys, "gen", "--preset", "example1", "--out", str(path))
    assert code == 0
    doc = json.loads((tmp_path / "demo.json").read_text())
    assert doc["N"] == 6 and len(doc["users"]) == 3
    assert "instance" in err


def test_gen_coded_instance_validates(tmp_path, capsys):
    path = tmp_path / "coded.json"
    code, _, _ = run(
        capsys, "gen", "--kind", "coded", "--m", "4", "--n", "8", "--q", "257",
        "--seed", "7", "--out", str(path),
    )
    assert code == 0
    from dexchange.model import load_instance

    inst = load_instance(path)
    assert inst.m == 4 and inst.n_packets == 8


def test_gen_infeasible_coverage_errors(capsys):
    code, _, err = run(capsys, "gen", "--kind", "raw", "--m", "2", "--n", "4", "--rows", "1,1")
    assert code == 1
    assert "generation failed" in err


def test_solve_fixed_budget_linear(instance_file, capsys):
    code, report, _ = run(
        capsys, "solve", instance_file, "--cost", "linear", "--weights", "1,3,2", "--beta", "5"
    )
    assert code == 0
    assert report["payload"]["rates"] == [1, 1, 3]
    assert report["payload"]["cost"] == 10


def test_solve_fair_budget(instance_file, capsys):
    code, report, _ = run(capsys, "solve", instance_file, "--cost", "fair", "--beta", "5")
    assert code == 0
    assert report["payload"]["rates"] == [1, 2, 2]


def test_solve_optimizes_budget_by_default(instance_file, capsys):
    code, report, _ = run(capsys, "solve", instance_file, "--cost", "linear", "--weights", "1,1,1")
    assert code == 0
    assert report["payload"]["beta"] == 5
    assert report["payload"]["cost"] == 5


def test_solve_infeasible_budget_exits_2(instance_file, capsys):
    code, report, _ = run(capsys, "solve", instance_file, "--cost", "fair", "--beta", "4")
    assert code == 2
    assert report["payload"]["feasible"] is False


def test_solve_below_the_minimum_sum_rate_reports_the_cut_set_total(instance_file, capsys):
    # Far below the minimum sum rate (5) the cut-set bounds admit a negative
    # total, which is reported as such and not as an allocation.
    code, report, err = run(
        capsys, "solve", instance_file, "--cost", "linear", "--weights", "1,1,1", "--beta", "0"
    )
    assert code == 2
    assert report["payload"]["achieved_sum"] == -8
    assert "the cut-set bounds at budget 0 admit a total of at most -8" in err
    assert "allocation" not in err


def test_solve_below_the_largest_user_need_exits_2(short_user, tmp_path, capsys):
    path = tmp_path / "short.json"
    save_instance(short_user, path)
    code, report, _ = run(capsys, "solve", str(path), "--cost", "fair", "--beta", "1")
    assert code == 2
    assert report["payload"]["rounds_completed"] == 0
    # The rates a wrong solve would report are not in the cut-set region.
    code, _, _ = run(capsys, "code", str(path), "--rates", "0,1", "--out", str(tmp_path / "s.json"))
    assert code == 2


@pytest.mark.parametrize("beta", ["-1", str(1 << 70), "19", str(10**8)])
def test_solve_budget_out_of_range_exits_1(instance_file, capsys, beta):
    # The demo instance has m*N = 3*6 = 18.  Every budget above it is refused
    # at once, before the per-unit rounds or draws would start.
    costs = (
        ("--cost", "linear", "--weights", "1,1,1"),
        ("--cost", "fair"),
        ("--cost", "fair", "--backend", "randomized"),
    )
    for cost in costs:
        t0 = time.perf_counter()
        code, report, err = run(capsys, "solve", instance_file, *cost, "--beta", beta)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert report is None
        assert "--beta must lie in [0, m*N = 18]" in err


def test_solve_budget_at_the_bound_solves(instance_file, capsys):
    code, report, _ = run(capsys, "solve", instance_file, "--cost", "fair", "--beta", "18")
    assert code == 0
    assert sum(report["payload"]["rates"]) == 18


def test_code_rates_out_of_range_exits_1(instance_file, capsys):
    for rates in (f"1,1,{1 << 70}", "7,6,6", "18,1,0"):
        code, report, err = run(capsys, "code", instance_file, "--rates", rates)
        assert code == 1
        assert report is None
        assert "--rates must sum to at most m*N = 18" in err
    code, report, err = run(capsys, "code", instance_file, "--rates=-1,1,5")
    assert code == 1
    assert report is None
    assert "--rates must be non-negative" in err


def test_solve_caps(instance_file, capsys):
    code, report, _ = run(
        capsys, "solve", instance_file, "--cost", "linear", "--weights", "1,3,2",
        "--beta", "5", "--caps", "2,2,2",
    )
    assert code == 0
    assert report["payload"]["rates"] == [1, 2, 2]


def test_solve_randomized_backend(instance_file, tmp_path, capsys):
    sched = tmp_path / "sched.json"
    code, report, _ = run(
        capsys, "solve", instance_file, "--cost", "fair", "--backend", "randomized",
        "--schedule-out", str(sched),
    )
    assert code == 0
    assert report["payload"]["beta"] == 5
    assert sched.exists()


def test_solve_table_cost(instance_file, tmp_path, capsys):
    table = tmp_path / "cost.json"
    table.write_text(json.dumps([[0, 1, 2, 3, 4, 5]] * 3))
    code, report, _ = run(
        capsys, "solve", instance_file, "--cost", "table", "--table", str(table), "--beta", "5"
    )
    assert code == 0
    assert sum(report["payload"]["rates"]) == 5


def test_solve_usage_error(instance_file, capsys):
    code, _, err = run(capsys, "solve", instance_file, "--cost", "linear")
    assert code == 1
    assert "--weights" in err


def test_code_verify_decode_pipeline(instance_file, tmp_path, capsys):
    sched = tmp_path / "sched.json"
    code, report, _ = run(
        capsys, "code", instance_file, "--rates", "1,1,3", "--seed", "1", "--out", str(sched)
    )
    assert code == 0
    assert report["payload"]["rates"] == [1, 1, 3]
    assert report["payload"]["cut_set_checked"] is True

    code, report, _ = run(capsys, "verify", instance_file, str(sched))
    assert code == 0
    assert report["payload"]["all_ok"] is True

    truth = tmp_path / "w.json"
    truth.write_text(json.dumps([1, 2, 3, 4, 5, 6]))
    code, report, _ = run(
        capsys, "decode", instance_file, str(sched), "--user", "1", "--truth", str(truth)
    )
    assert code == 0
    assert report["payload"]["packets"] == [1, 2, 3, 4, 5, 6]
    assert report["payload"]["matches_truth"] is True

    # demo mode without a truth file still round-trips
    code, report, _ = run(capsys, "decode", instance_file, str(sched), "--user", "0")
    assert code == 0
    assert report["payload"]["matches_truth"] is True


def test_code_infeasible_rates_exit_2(instance_file, capsys):
    code, report, _ = run(capsys, "code", instance_file, "--rates", "0,0,0")
    assert code == 2
    assert report["payload"]["error"] == "infeasible-rates"


def test_code_construction_failure_exit_3(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    code, _, _ = run(capsys, "gen", "--preset", "example1", "--q", "2", "--out", str(path))
    assert code == 0
    code, report, _ = run(
        capsys, "code", str(path), "--rates", "1,1,3", "--seed", "0", "--max-retries", "1",
        "--out", str(tmp_path / "s.json"),
    )
    assert code == 3
    assert report["payload"]["attempts"] == 1


def test_verify_undecodable_exit_4(instance_file, tmp_path, capsys):
    sched = tmp_path / "empty.json"
    sched.write_text(json.dumps({"q": 257, "N": 6, "entries": [], "rng": None}))
    code, report, _ = run(capsys, "verify", instance_file, str(sched))
    assert code == 4
    assert report["payload"]["per_user"] == [False, False, False]


def test_validate_reference_suite(capsys):
    code, report, _ = run(capsys, "validate", "--suite", "paper-examples")
    assert code == 0
    assert report["payload"]["failures"] == []


def test_validate_properties_small(capsys):
    code, report, _ = run(
        capsys, "validate", "--suite", "properties", "--trials", "3", "--seed", "5"
    )
    assert code == 0
    assert report["payload"]["failures"] == []


def test_validate_rlnc_small(capsys):
    code, report, _ = run(
        capsys, "validate", "--suite", "rlnc", "--q", "19", "--trials", "300", "--seed", "1"
    )
    assert code == 0


def test_validate_property_violation_exit_5(tmp_path, capsys, monkeypatch):
    # Force a failing check to exercise the counterexample artifact path.
    import dexchange.cli as cli
    from dexchange.validate import CheckResult

    monkeypatch.setattr(
        cli, "run_reference_examples", lambda: [CheckResult("forced", False, {"why": "test"})]
    )
    monkeypatch.chdir(tmp_path)
    code, report, err = run(capsys, "validate", "--suite", "paper-examples")
    assert code == 5
    assert report["payload"]["failures"][0]["name"] == "forced"
    assert (tmp_path / "validate_failure.json").exists()
    assert "counterexamples" in err


def test_reports_are_reproducible(instance_file, capsys):
    _, first, _ = run(capsys, "solve", instance_file, "--cost", "fair", "--beta", "5")
    _, second, _ = run(capsys, "solve", instance_file, "--cost", "fair", "--beta", "5")
    assert first["payload"] == second["payload"]
    assert first["instance_digest"] == second["instance_digest"]


def test_solve_above_table_cap_exits_1(wide_instance_file, capsys):
    code, report, err = run(capsys, "solve", wide_instance_file, "--cost", "fair")
    assert code == 1
    assert report is None
    assert "rank-table cap" in err and "Traceback" not in err


def test_solve_randomized_above_table_cap(wide_instance_file, capsys):
    m = MAX_TABLE_USERS + 1
    code, report, _ = run(
        capsys, "solve", wide_instance_file, "--cost", "fair", "--backend", "randomized",
        "--beta", str(m),
    )
    assert code == 0
    assert report["payload"]["rates"] == [1] * m


def test_code_above_table_cap_warns_and_reports_skipped_check(wide_instance_file, tmp_path, capsys):
    m = MAX_TABLE_USERS + 1
    code, report, err = run(
        capsys, "code", wide_instance_file, "--rates", ",".join(["1"] * m),
        "--out", str(tmp_path / "s.json"),
    )
    assert code == 0
    assert "warning" in err and "not checked" in err
    assert report["payload"]["cut_set_checked"] is False


@pytest.fixture()
def small_field_file(tmp_path, capsys):
    """The demo instance over GF(3), where randomized draws often fail."""
    path = tmp_path / "demo3.json"
    code, _, _ = run(capsys, "gen", "--preset", "example1", "--q", "3", "--out", str(path))
    assert code == 0
    return str(path)


def test_solve_randomized_search_tops_out_at_total_capacity(tmp_path, capsys):
    path = tmp_path / "raw.json"
    assert run(capsys, "gen", "--kind", "raw", "--m", "4", "--n", "6", "--out", str(path))[0] == 0
    code, exact, _ = run(capsys, "solve", str(path), "--cost", "fair")
    assert code == 0
    caps = exact["payload"]["rates"]
    assert sum(caps) < 6
    code, report, _ = run(
        capsys, "solve", str(path), "--cost", "fair", "--backend", "randomized",
        "--caps", ",".join(map(str, caps)),
    )
    assert code == 0
    assert report["payload"]["beta"] == exact["payload"]["beta"]


def test_solve_randomized_fixed_budget_reproduces_search_schedule(
    small_field_file, tmp_path, capsys
):
    searched, fixed = tmp_path / "searched.json", tmp_path / "fixed.json"
    argv = ["solve", small_field_file, "--cost", "fair", "--backend", "randomized", "--seed", "1"]
    code, report, _ = run(capsys, *argv, "--schedule-out", str(searched))
    assert code == 0
    beta = report["payload"]["beta"]
    code, again, _ = run(capsys, *argv, "--beta", str(beta), "--schedule-out", str(fixed))
    assert code == 0
    assert again["payload"]["rates"] == report["payload"]["rates"]
    assert fixed.read_text() == searched.read_text()
    # The recorded stream alone regenerates the schedule.
    schedule = load_schedule(searched)
    inst = load_instance(small_field_file)
    assert randomized_alloc(inst, beta, FairCost(), rng=schedule.rng)[1] == schedule


def test_solve_randomized_builds_no_cut_set_oracle(instance_file, capsys, monkeypatch):
    import dexchange.cli as cli

    argv = ["solve", instance_file, "--cost", "fair", "--backend", "randomized"]
    code, want, _ = run(capsys, *argv)
    assert code == 0

    def refuse(inst):
        raise AssertionError("the randomized backend reads no rank table")

    monkeypatch.setattr(cli, "CutSetOracle", refuse)
    code, got, _ = run(capsys, *argv)
    assert code == 0 and got["payload"] == want["payload"]


def test_solve_randomized_search_ignores_unused_retries(small_field_file, tmp_path, capsys):
    # Each budget's attempts draw from the same streams whatever the retry
    # budget, so extra retries only matter where all of the first 8 fail.
    reports = []
    for retries in ("8", "2000"):
        out = tmp_path / f"s{retries}.json"
        code, report, _ = run(
            capsys, "solve", small_field_file, "--cost", "fair", "--backend", "randomized",
            "--seed", "3", "--max-retries", retries, "--schedule-out", str(out),
        )
        assert code == 0
        reports.append((report["payload"]["beta"], report["payload"]["rates"], out.read_text()))
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--cost", "linear", "--weights", "1,0,1"], "bad --weights"),
        (["--cost", "fair", "--caps", "1,1,-1"], "bad --caps"),
        (["--cost", "fair", "--caps", "1,1,-1", "--backend", "randomized"], "bad --caps"),
    ],
)
def test_solve_rejects_bad_costs_and_caps(instance_file, capsys, argv, message):
    code, report, err = run(capsys, "solve", instance_file, *argv)
    assert code == 1
    assert report is None
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--preset", "example1", "--out", "{out}"],
        ["code", "{instance}", "--rates", "1,1,3", "--out", "{out}"],
        [
            "solve", "{instance}", "--cost", "fair", "--backend", "randomized",
            "--schedule-out", "{out}",
        ],
    ],
    ids=["gen", "code", "solve"],
)
def test_unwritable_output_path_exits_1(instance_file, tmp_path, capsys, argv):
    out = str(tmp_path / "missing" / "x.json")
    code, report, err = run(capsys, *(a.format(out=out, instance=instance_file) for a in argv))
    assert code == 1
    assert report is None
    assert "cannot write output" in err


@pytest.mark.parametrize("cmd", [["verify"], ["decode", "--user", "0"]])
def test_schedule_with_out_of_range_sender_exits_1(instance_file, tmp_path, capsys, cmd):
    sched = tmp_path / "sched.json"
    assert run(capsys, "code", instance_file, "--rates", "1,1,3", "--out", str(sched))[0] == 0
    doc = json.loads(sched.read_text())
    for e in doc["entries"]:
        if e["user"] == 0:
            e["user"] = -3
    sched.write_text(json.dumps(doc))
    code, report, err = run(capsys, cmd[0], instance_file, str(sched), *cmd[1:])
    assert code == 1
    assert report is None
    assert "bad schedule" in err and "sender -3" in err


@pytest.mark.parametrize(
    "where, rewrite",
    [
        (("entries", 0, "b", 0), lambda v: 1 << 70),
        (("entries", 0, "b", 0), float),
        (("entries", 0, "b", 0), lambda v: True),
        (("entries", 0, "b", 0), str),
        (("entries", 0, "b", 0), lambda v: v + 257),
        (("entries", 0, "b", 0), lambda v: v - 257),
        (("entries", 0, "u", 0), lambda v: v + 257),
        (("entries", 0, "u", 0), float),
        (("entries", 0, "round"), float),
        (("entries", 0, "user"), str),
        (("q",), float),
        (("N",), float),
        (("rng", "seed"), lambda v: -1),
        (("rng", "stream"), lambda v: 0.5),
        (("entries", 0, "b"), lambda v: v[:-1]),
        (("entries", 0, "u"), lambda v: v[:-1]),
        (("entries", 0, "u"), lambda v: v + [0]),
        (("N",), lambda v: 0),
    ],
    ids=[
        "b-huge", "b-float", "b-bool", "b-string", "b-plus-q", "b-negative", "u-plus-q",
        "u-float", "round-float", "user-string", "q-float", "N-float", "seed-negative",
        "stream-float", "b-short", "u-short", "u-long", "N-zero",
    ],
)
@pytest.mark.parametrize("cmd", [["verify"], ["decode", "--user", "0"]], ids=["verify", "decode"])
def test_schedule_with_bad_numbers_exits_1(instance_file, tmp_path, capsys, cmd, where, rewrite):
    sched = tmp_path / "sched.json"
    assert run(capsys, "code", instance_file, "--rates", "1,1,3", "--out", str(sched))[0] == 0
    doc = json.loads(sched.read_text())
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = rewrite(node[where[-1]])
    if where[2:3] == ("b",):
        # Store the row the coefficients give modulo q, so that only the
        # coefficients are wrong; 2^70 once ended in an OverflowError traceback.
        e = doc["entries"][0]
        rows = load_instance(instance_file).observations[e["user"]].array.tolist()
        coeffs = [int(v) % 257 for v in e["b"]]
        e["u"] = [sum(c * row[k] for c, row in zip(coeffs, rows)) % 257 for k in range(6)]
    sched.write_text(json.dumps(doc))
    code, report, err = run(capsys, cmd[0], instance_file, str(sched), *cmd[1:])
    assert code == 1
    assert report is None
    assert "bad schedule" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "{deep}"], "bad instance file"),
        (["verify", "{instance}", "{deep}"], "bad schedule"),
        (["solve", "{instance}", "--cost", "table", "--table", "{deep}"], "bad table file"),
        (["decode", "{instance}", "{sched}", "--user", "0", "--truth", "{deep}"], "bad truth file"),
    ],
    ids=["instance", "schedule", "table", "truth"],
)
def test_too_deeply_nested_json_exits_1(instance_file, tmp_path, capsys, argv, message):
    # The json module gives up on deep nesting with a RecursionError.
    deep, sched = tmp_path / "deep.json", tmp_path / "sched.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert run(capsys, "code", instance_file, "--rates", "1,1,3", "--out", str(sched))[0] == 0
    code, report, err = run(
        capsys, *(a.format(instance=instance_file, deep=deep, sched=sched) for a in argv)
    )
    assert code == 1
    assert report is None
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["gen", "--preset", "example1", "--out", "{out}"], 0),
        (["gen", "--kind", "raw", "--m", "2", "--n", "4", "--rows", "1,1"], 1),
        pytest.param(["gen", "--preset", "example1"], 0, id="gen-stdout-0"),
        pytest.param(["gen"], 1, id="gen-no-size-1"),
        # 2 x 100000 x 100000 entries: refused before numpy is asked for them.
        pytest.param(["gen", "--kind", "coded", "--m", "2", "--n", "100000"], 1, id="gen-too-large-1"),
        (["solve", "{instance}", "--cost", "fair"], 0),
        (["solve", "{instance}", "--cost", "linear"], 1),
        (["solve", "{instance}", "--cost", "fair", "--beta", "4"], 2),
        pytest.param(["solve", "{rowless}"], 1, id="solve-rowless-1"),
        pytest.param(["solve", "{missing}"], 1, id="solve-missing-1"),
        pytest.param(["solve", "{instance}", "--weights", "1,2"], 1, id="solve-weights-length-1"),
        pytest.param(["solve", "{instance}", "--cost", "table"], 1, id="solve-no-table-1"),
        (["code", "{instance}", "--rates", "1,1,3", "--out", "{out}"], 0),
        (["code", "{instance}", "--rates", "1,1", "--out", "{out}"], 1),
        pytest.param(["code", "{instance}", "--rates", "1,x,3", "--out", "{out}"], 1, id="code-rates-not-int-1"),
        (["code", "{instance}", "--rates", "1,1,1", "--out", "{out}"], 2),
        (["code", "{gf2}", "--rates", "1,1,3", "--max-retries", "1", "--out", "{out}"], 3),
        (["verify", "{instance}", "{sched}"], 0),
        (["verify", "{instance}", "{missing}"], 1),
        (["verify", "{instance}", "{empty}"], 4),
        (["decode", "{instance}", "{sched}", "--user", "0"], 0),
        (["decode", "{instance}", "{sched}", "--user", "3"], 1),
        (["decode", "{instance}", "{empty}", "--user", "0"], 4),
        pytest.param(
            ["decode", "{instance}", "{sched}", "--user", "0", "--truth", "{truth}"],
            1,
            id="decode-truth-length-1",
        ),
        (["validate", "--suite", "paper-examples"], 0),
        (["validate", "--suite", "rlnc", "--q", "4"], 1),
        (["validate", "--suite", "paper-examples", "--artifact", "{out}"], 5),
    ],
    ids=lambda v: v if isinstance(v, int) else v[0],
)
def test_exit_code_contract(instance_file, tmp_path, capsys, monkeypatch, argv, expected):
    paths = {
        name: str(tmp_path / f"{name}.json")
        for name in ("out", "sched", "missing", "empty", "gf2", "rowless", "truth")
    }
    assert run(capsys, "code", instance_file, "--rates", "1,1,3", "--out", paths["sched"])[0] == 0
    assert run(capsys, "gen", "--preset", "example1", "--q", "2", "--out", paths["gf2"])[0] == 0
    with open(paths["empty"], "w", encoding="utf-8") as f:
        json.dump({"q": 257, "N": 6, "entries": [], "rng": None}, f)
    # A million packets and no rows: rejected before an elimination sizes
    # a buffer by the packet count (7.28 TiB for this 47-byte file).
    with open(paths["rowless"], "w", encoding="utf-8") as f:
        json.dump({"q": 2, "N": 1000000, "users": [{"rows": []}]}, f)
    with open(paths["truth"], "w", encoding="utf-8") as f:
        json.dump([1, 2, 3], f)  # the demo instance has 6 packets
    if expected == 5:  # no input makes a property fail
        import dexchange.cli as cli
        from dexchange.validate import CheckResult

        monkeypatch.setattr(
            cli, "run_reference_examples", lambda: [CheckResult("forced", False, {"why": "test"})]
        )
    code, report, err = run(capsys, *(a.format(instance=instance_file, **paths) for a in argv))
    assert code == expected
    assert "Traceback" not in err
    if code == 1:
        assert report is None and err.strip()
    if argv[0] == "gen" and code == 0:  # the instance goes to stdout unless --out is given
        assert (report is None) == ("--out" in argv)


_CONTRACT = next(mark for mark in test_exit_code_contract.pytestmark if mark.name == "parametrize")


@pytest.mark.parametrize(*_CONTRACT.args, **_CONTRACT.kwargs)
def test_every_report_is_json_dumps_with_indent_1(instance_file, tmp_path, capsys, monkeypatch, argv, expected):
    # Each report of the exit-code contract's runs, set-up runs included, is
    # written byte for byte as the indenting encoder with a str fallback
    # would write it.
    import dexchange.cli as cli

    written = []

    def recording(doc):
        written.append((doc, json_text(doc)))
        return written[-1][1]

    monkeypatch.setattr(cli, "json_text", recording)
    test_exit_code_contract(instance_file, tmp_path, capsys, monkeypatch, argv, expected)
    assert any("command" in doc for doc, _ in written)
    for doc, text in written:
        assert text == json.dumps(doc, indent=1, default=str)


@pytest.mark.parametrize("cap, expected", [(59, 1), (60, 0)])
def test_solve_refuses_instance_files_over_the_entry_cap(instance_file, capsys, monkeypatch, cap, expected):
    # The demo instance holds 10 rows of 6 packets: 60 matrix entries.
    import dexchange.model as model

    monkeypatch.setattr(model, "MAX_DRAW_ENTRIES", cap)
    code, report, err = run(capsys, "solve", instance_file, "--cost", "fair")
    assert code == expected
    if code == 1:
        assert report is None
        assert err.startswith("bad instance file: 60 matrix entries") and "exceed the cap of 59" in err


OVER_CEILING = "exceeds the ceiling of 2584 bytes"
#: A truth file holds the N = 6 packets: 26 * 6 + 1024 bytes.
OVER_TRUTH_CEILING = "exceeds the ceiling of 1180 bytes"


@pytest.mark.parametrize(
    "argv, expected, message",
    [
        pytest.param(["solve", "{at_ceiling}", "--cost", "fair"], 0, None, id="solve-at-ceiling-0"),
        pytest.param(["solve", "{over_ceiling}", "--cost", "fair"], 1, OVER_CEILING, id="solve-over-ceiling-1"),
        pytest.param(["verify", "{instance}", "{sched_over_ceiling}"], 1, OVER_CEILING, id="verify-over-ceiling-1"),
        pytest.param(
            ["decode", "{instance}", "{sched_over_ceiling}", "--user", "0"], 1, OVER_CEILING,
            id="decode-over-ceiling-1",
        ),
        pytest.param(
            ["verify", "{instance}", "{sched_over_cap}"], 1, "exceed the cap of 4194304 matrix entries",
            id="verify-over-entry-cap-1",
        ),
        pytest.param(
            ["solve", "{instance}", "--cost", "table", "--table", "{table_at_ceiling}"], 0, None,
            id="table-at-ceiling-0",
        ),
        pytest.param(
            ["solve", "{instance}", "--cost", "table", "--table", "{table_over_ceiling}"], 1,
            f"bad table file: file of 2585 bytes {OVER_CEILING}", id="table-over-ceiling-1",
        ),
        pytest.param(
            ["decode", "{instance}", "{sched}", "--user", "0", "--truth", "{truth_at_ceiling}"], 0, None,
            id="truth-at-ceiling-0",
        ),
        pytest.param(
            ["decode", "{instance}", "{sched}", "--user", "0", "--truth", "{truth_one_over}"], 1,
            f"bad truth file: file of 1181 bytes {OVER_TRUTH_CEILING}", id="truth-one-over-ceiling-1",
        ),
        pytest.param(
            ["decode", "{instance}", "{sched}", "--user", "0", "--truth", "{truth_over_ceiling}"], 1,
            f"bad truth file: file of 2585 bytes {OVER_TRUTH_CEILING}", id="truth-over-ceiling-1",
        ),
    ],
)
def test_file_boundary_exit_codes(instance_file, tmp_path, capsys, monkeypatch, argv, expected, message):
    # With the entry cap at the demo's 60 the file ceiling is 26 * 60 + 1024
    # = 2,584 bytes.  Files padded with spaces are still valid JSON, so only
    # their size refuses them.  The schedule over 10^7 packets is refused by
    # the real cap before any of its entries is read.  Cost tables are held
    # to the same ceiling, truth files to 26 N + 1024 = 1,180 bytes.
    import dexchange.model as model

    monkeypatch.setattr(model, "MAX_DRAW_ENTRIES", 60)
    sched, table, truth = tmp_path / "sched.json", tmp_path / "table.json", tmp_path / "truth.json"
    assert run(capsys, "code", instance_file, "--rates", "1,1,3", "--out", str(sched))[0] == 0
    table.write_text("[[1], [1], [1]]")
    truth.write_text("[1, 2, 3, 4, 5, 6]")
    paths = {"instance": instance_file, "sched": str(sched), "sched_over_cap": str(tmp_path / "wide.json")}
    for name, source, size in (
        ("at_ceiling", instance_file, 2584),
        ("over_ceiling", instance_file, 2585),
        ("sched_over_ceiling", sched, 2585),
        ("table_at_ceiling", table, 2584),
        ("table_over_ceiling", table, 2585),
        ("truth_at_ceiling", truth, 1180),
        ("truth_one_over", truth, 1181),
        ("truth_over_ceiling", truth, 2585),
    ):
        with open(source, encoding="utf-8") as f:
            text = f.read()
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as f:
            f.write(text + " " * (size - len(text)))
    with open(paths["sched_over_cap"], "w", encoding="utf-8") as f:
        json.dump({"q": 257, "N": 10**7, "entries": [{"round": 1, "user": 0, "b": [1, 0], "u": []}]}, f)
    code, report, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == expected
    assert "Traceback" not in err
    if message is not None:
        assert report is None and message in err


SOLVED = ("feasible", "beta", "rates", "cost")
TOP_KEYS = ("command", "payload", "instance_digest", "seed", "elapsed_s")


@pytest.mark.parametrize(
    "argv, expected, top, keys",
    [
        pytest.param(
            ["solve", "{instance}", "--cost", "fair", "--beta", "5"], 0, TOP_KEYS, SOLVED, id="solve-beta"
        ),
        pytest.param(
            ["solve", "{instance}", "--cost", "fair"], 0, TOP_KEYS, SOLVED + ("min_sum_rate",), id="solve-search"
        ),
        pytest.param(
            ["solve", "{instance}", "--cost", "fair", "--backend", "randomized", "--schedule-out", "{out}"],
            0,
            TOP_KEYS,
            SOLVED + ("schedule",),
            id="solve-randomized",
        ),
        pytest.param(
            ["solve", "{instance}", "--cost", "fair", "--beta", "4"],
            2,
            TOP_KEYS,
            ("feasible", "error", "beta", "achieved_sum", "rounds_completed"),
            id="solve-infeasible",
        ),
        pytest.param(
            ["code", "{instance}", "--rates", "1,1,3", "--out", "{out}"],
            0,
            TOP_KEYS,
            ("schedule", "rates", "cut_set_checked"),
            id="code",
        ),
        pytest.param(
            ["code", "{instance}", "--rates", "1,1,1", "--out", "{out}"],
            2,
            ("command", "payload", "instance_digest", "elapsed_s"),
            ("error", "detail"),
            id="code-infeasible",
        ),
        pytest.param(
            ["verify", "{instance}", "{sched}"],
            0,
            ("command", "payload", "instance_digest", "elapsed_s"),
            ("per_user", "all_ok"),
            id="verify",
        ),
        pytest.param(
            ["decode", "{instance}", "{sched}", "--user", "0"],
            0,
            TOP_KEYS,
            ("user", "packets", "matches_truth"),
            id="decode",
        ),
        pytest.param(
            ["validate", "--suite", "paper-examples"],
            0,
            ("command", "payload", "seed", "elapsed_s"),
            ("checks", "failures"),
            id="validate",
        ),
    ],
)
def test_report_keys_are_pinned(instance_file, tmp_path, capsys, argv, expected, top, keys):
    paths = {"out": str(tmp_path / "out.json"), "sched": str(tmp_path / "sched.json")}
    assert run(capsys, "code", instance_file, "--rates", "1,1,3", "--out", paths["sched"])[0] == 0
    code, report, _ = run(capsys, *(a.format(instance=instance_file, **paths) for a in argv))
    assert code == expected
    assert tuple(report) == top and report["command"] == argv[0]
    assert tuple(report["payload"]) == keys


@pytest.mark.parametrize("blob", [b"not json", b"\xff\xfe{}"], ids=["not-json", "not-utf8"])
@pytest.mark.parametrize("cmd", ["solve", "verify"])
def test_instance_file_that_is_not_json_exits_1(tmp_path, capsys, cmd, blob):
    bad = tmp_path / "bad.json"
    bad.write_bytes(blob)
    argv = [cmd, str(bad)] + ([str(tmp_path / "sched.json")] if cmd == "verify" else [])
    code, report, err = run(capsys, *argv)
    assert code == 1
    assert report is None
    assert "bad instance file" in err


@pytest.mark.parametrize(
    "tables",
    [
        "[[NaN, 1], [1, 1], [1, 1]]",
        "[[1, Infinity], [1], [1]]",
        "[[1, 1]]",
        "[1, 2, 3]",
        "[[true, true], [1], [1]]",
        '{"a": 1}',
        '"abc"',
        '[[1], ["x"], [1]]',
        "[[1], [], [1]]",
        "[[1e308, 1e308], [1e308], [1e308]]",
        "[[2.5e307], [2.5e307], [2.5e307]]",
        "[[1], [1" + "0" * 400 + "], [1]]",
    ],
    ids=[
        "nan",
        "inf",
        "too-few-tables",
        "not-tables",
        "bool",
        "object",
        "string",
        "string-entry",
        "empty-table",
        "cost-overflows",
        "total-overflows",
        "huge-int",
    ],
)
def test_solve_rejects_bad_table_file(instance_file, tmp_path, capsys, tables):
    table = tmp_path / "cost.json"
    table.write_text(tables)
    code, report, err = run(capsys, "solve", instance_file, "--cost", "table", "--table", str(table))
    assert code == 1
    assert report is None
    assert "bad table file" in err


def test_solve_table_file_large_finite_costs(instance_file, tmp_path, capsys):
    # Increments whose total cost stays finite are accepted, and the budget
    # search still finds the minimum sum rate 5.
    table = tmp_path / "cost.json"
    table.write_text("[[1e306], [1e306], [1e306]]")
    code, report, _ = run(capsys, "solve", instance_file, "--cost", "table", "--table", str(table))
    assert code == 0
    assert report["payload"]["min_sum_rate"] == 5
    assert report["payload"]["cost"] == 5e306


@pytest.mark.parametrize("retries", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{instance}", "--cost", "fair", "--backend", "randomized"],
        ["code", "{instance}", "--rates", "1,1,3", "--out", "{out}"],
    ],
    ids=["solve", "code"],
)
def test_max_retries_below_one_exits_1(instance_file, tmp_path, capsys, argv, retries):
    out = str(tmp_path / "sched.json")
    argv = [a.format(instance=instance_file, out=out) for a in argv]
    code, report, err = run(capsys, *argv, "--max-retries", retries)
    assert code == 1
    assert report is None
    assert "--max-retries must be at least 1" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["solve"], 1),
        (["solve", "{instance}", "--cost", "bogus"], 1),
        (["solve", "{instance}", "--beta", "x"], 1),
        (["decode", "{instance}", "s.json"], 1),
        (["frobnicate"], 1),
        (["--version"], 0),
        (["solve", "{instance}", "--cost", "fair", "--backend", "subgradient"], 1),
    ],
    ids=[
        "missing-instance", "bad-choice", "bad-int", "missing-user", "bad-command", "version",
        "removed-backend",
    ],
)
def test_argparse_exits_keep_the_exit_code_contract(instance_file, capsys, argv, expected):
    # argparse itself exits 2, which the contract reserves for infeasibility.
    code = main([a.format(instance=instance_file) for a in argv])
    out, err = capsys.readouterr()
    assert code == expected
    if expected:
        assert "error:" in err
    else:
        assert out.startswith("dexchange ")


@pytest.mark.parametrize("user", ["99", "-1"])
def test_decode_user_out_of_range_exits_1(instance_file, tmp_path, capsys, user):
    sched = tmp_path / "sched.json"
    assert run(capsys, "code", instance_file, "--rates", "1,1,3", "--out", str(sched))[0] == 0
    code, report, err = run(capsys, "decode", instance_file, str(sched), "--user", user)
    assert code == 1
    assert report is None
    assert "--user must lie in [0, 3)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--preset", "example1", "--seed", "-1"],
        ["solve", "{instance}", "--cost", "fair", "--backend", "randomized", "--seed", "-1"],
        ["code", "{instance}", "--rates", "1,1,3", "--seed", "-5", "--out", "{sched}"],
        ["code", "{instance}", "--rates", "1,1,3", "--stream", "-1", "--out", "{sched}"],
        ["decode", "{instance}", "{sched}", "--user", "0", "--seed", "-3"],
        ["validate", "--suite", "paper-examples", "--seed", "-1"],
    ],
    ids=["gen", "solve", "code-seed", "code-stream", "decode", "validate"],
)
def test_negative_seed_or_stream_exits_1(instance_file, tmp_path, capsys, argv):
    sched = str(tmp_path / "sched.json")
    assert run(capsys, "code", instance_file, "--rates", "1,1,3", "--out", sched)[0] == 0
    code, report, err = run(capsys, *(a.format(instance=instance_file, sched=sched) for a in argv))
    assert code == 1
    assert report is None
    assert "must be at least 0" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "rlnc", "--trials", "0"], "argument --trials: must be at least 1"),
        (["--suite", "properties", "--trials", "0"], "argument --trials: must be at least 1"),
        (["--max-m", "1"], "argument --max-m: must be at least 2"),
        (["--max-n", "1"], "argument --max-n: must be at least 2"),
        (["--suite", "rlnc", "--q", "4"], "bad --q: field order 4 is not prime"),
        (["--suite", "rlnc", "--q", "2"], "bad --q: the rlnc suite needs a field order above its 3 users"),
        (["--suite", "all", "--q", "3"], "bad --q: the rlnc suite needs a field order above its 3 users"),
        (["--suite", "properties", "--max-m", "12", "--max-n", "40"], "exceeds 1048576"),
        (["--suite", "all", "--max-m", "5", "--max-n", "8"], "bad --max-m/--max-n"),
        (["--suite", "rlnc", "--q", "5"], "bad --q/--trials: the rlnc pass mark at q=5 over 50 trials"),
        (["--suite", "rlnc", "--q", "7"], "bad --q/--trials: the rlnc pass mark at q=7 over 50 trials"),
        (["--suite", "all", "--q", "5"], "bad --q/--trials: the rlnc pass mark at q=5 over 400 trials"),
        (["--suite", "rlnc", "--q", "19", "--trials", "5"], "not above 0"),
    ],
)
def test_validate_rejects_out_of_range_options(capsys, argv, message):
    code, report, err = run(capsys, "validate", *argv)
    assert code == 1
    assert report is None
    assert message in err


def test_validate_unwritable_artifact_exits_1(tmp_path, capsys, monkeypatch):
    import dexchange.cli as cli
    from dexchange.validate import CheckResult

    monkeypatch.setattr(
        cli, "run_reference_examples", lambda: [CheckResult("forced", False, {"why": "test"})]
    )
    artifact = str(tmp_path / "missing" / "failures.json")
    code, _, err = run(capsys, "validate", "--suite", "paper-examples", "--artifact", artifact)
    assert code == 1
    assert "cannot write output" in err


@pytest.mark.parametrize("q", [3, 17])
def test_randomized_search_skips_budgets_below_the_floor(tmp_path, capsys, monkeypatch, q):
    # Budgets below the cut-set floor cannot decode, so skipping their draws
    # must leave every output as it is with the floor forced to 0.
    import dexchange.cli as cli
    from dexchange.model import ProblemInstance, generate_instance
    from dexchange.ratealloc import min_cost

    drawn = []
    draw = cli.randomized_alloc
    monkeypatch.setattr(
        cli, "randomized_alloc", lambda inst, beta, *a: drawn.append(beta) or draw(inst, beta, *a)
    )
    real_floor = ProblemInstance.sum_rate_floor
    path, sched = tmp_path / "inst.json", tmp_path / "sched.json"

    def solve(*extra):
        code, report, err = run(
            capsys, "solve", str(path), "--cost", "fair", "--backend", "randomized",
            "--seed", str(seed), "--schedule-out", str(sched), *extra,
        )
        out = sched.read_bytes() if sched.exists() else None
        sched.unlink(missing_ok=True)
        return code, report["payload"], err, out

    for seed in range(8):
        inst = generate_instance("coded", 4, 6, FieldSpec(q), seed=seed)
        save_instance(inst, path)
        floor = inst.sum_rate_floor()
        exact = min_cost(CutSetOracle(inst), FairCost()).allocation.rates
        below = [[floor - 1, 0, 0, 0]] if floor else []
        for caps in [None, exact, *below]:
            extra = () if caps is None else ("--caps", ",".join(map(str, caps)))
            drawn.clear()
            monkeypatch.setattr(ProblemInstance, "sum_rate_floor", real_floor)
            got = solve(*extra)
            assert min(drawn, default=floor) >= floor
            monkeypatch.setattr(ProblemInstance, "sum_rate_floor", lambda self: 0)
            assert solve(*extra) == got
            if caps is not None and sum(caps) < floor:
                assert got[0] == 2 and "no budget up to" in got[2]


def test_randomized_search_needs_no_rank_table(wide_instance_file, capsys, monkeypatch):
    import dexchange.model as model

    def no_table(instance):
        raise AssertionError("rank table built")

    monkeypatch.setattr(model, "rank_table", no_table)
    m = MAX_TABLE_USERS + 1
    assert load_instance(wide_instance_file).sum_rate_floor() == m
    code, report, _ = run(
        capsys, "solve", wide_instance_file, "--cost", "fair", "--backend", "randomized"
    )
    assert code == 0
    assert report["payload"]["beta"] == m


def test_cached_parser_carries_nothing_between_calls(instance_file, tmp_path, capsys):
    from dexchange.cli import build_parser
    from dexchange.netcode import RngSpec

    assert build_parser() is build_parser()
    assert run(capsys, "solve", instance_file, "--cost", "fair", "--beta", "3")[0] == 2
    code, report, _ = run(capsys, "solve", instance_file, "--cost", "fair")
    assert code == 0
    assert report["payload"]["beta"] == report["payload"]["min_sum_rate"] == 5

    sched, truth = tmp_path / "sched.json", tmp_path / "w.json"
    truth.write_text(json.dumps([1, 2, 3, 4, 5, 6]))
    assert run(capsys, "code", instance_file, "--rates", "1,1,3", "--out", str(sched))[0] == 0
    argv = ("decode", instance_file, str(sched), "--user", "0")
    assert run(capsys, *argv, "--truth", str(truth))[1]["payload"]["packets"] == [1, 2, 3, 4, 5, 6]
    code, report, _ = run(capsys, *argv)
    demo = RngSpec(0).generator().integers(0, 257, size=6).tolist()
    assert code == 0
    assert report["payload"]["packets"] == demo


@pytest.mark.parametrize("bad", [1.5, True, 2**70, -1, 257], ids=["float", "bool", "huge", "negative", "q"])
def test_decode_rejects_bad_truth_entries(instance_file, tmp_path, capsys, bad):
    sched, truth = tmp_path / "sched.json", tmp_path / "w.json"
    truth.write_text(json.dumps([bad, 2, 3, 4, 5, 6]))
    assert run(capsys, "code", instance_file, "--rates", "1,1,3", "--out", str(sched))[0] == 0
    code, report, err = run(
        capsys, "decode", instance_file, str(sched), "--user", "0", "--truth", str(truth)
    )
    assert code == 1
    assert report is None
    assert "bad truth file: packets must be integers in [0, 257)" in err
    assert "Traceback" not in err
