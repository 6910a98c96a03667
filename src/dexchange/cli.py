"""Command-line front end.

Machine-readable JSON goes to stdout, a one-line human summary to stderr, so
reports pipe straight into analysis scripts.  Exit codes are a stable
contract: 0 ok, 1 usage or I/O, 2 infeasible budget/caps, 3 code
construction failed, 4 not decodable, 5 property violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from itertools import chain

import numpy as np

from . import __version__
from .gf import FieldSpec
from .model import (
    MAX_TABLE_USERS,
    CutSetOracle,
    PRESETS,
    ProblemInstance,
    TableTooLarge,
    generate_instance,
    json_ints,
    json_text,
    load_instance,
    preset_instance,
    read_json,
    save_instance,
    write_json,
)
from .netcode import (
    ConstructionFailed,
    InfeasibleRates,
    NotDecodable,
    RngSpec,
    construct_code,
    decode,
    load_schedule,
    randomized_alloc,
    save_schedule,
    transmit_values,
    verify_decodable,
)
from .ratealloc import (
    FairCost,
    Infeasible,
    LinearCost,
    TableCost,
    _check_caps,
    budget_ceiling,
    eval_h,
    min_cost,
    optimal_budget,
)
from .validate import (
    MAX_GRID_ENTRIES,
    RLNC_USERS,
    grid_fits,
    rlnc_pass_mark,
    run_properties,
    run_reference_examples,
    run_rlnc_stats,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_CONSTRUCTION = 3
EXIT_DECODE = 4
EXIT_PROPERTY = 5

#: Stride between the RNG streams of successive randomized attempts; every
#: budget the CLI accepts (at most m*N) lies below it.
MAX_BUDGET = 1 << 62


def _stream(beta: int, attempt: int) -> int:
    """RNG stream of randomized attempt ``attempt`` at budget ``beta``; one
    per pair, for any attempt count, since ``beta < MAX_BUDGET``."""
    return attempt * MAX_BUDGET + beta


def _emit(command: str, payload: dict, human: str, t0: float, *, digest=None, seed=None) -> None:
    """Write the JSON report to stdout and the human summary to stderr."""
    report = {"command": command, "payload": payload}
    if digest is not None:
        report["instance_digest"] = digest
    if seed is not None:
        report["seed"] = seed
    report["elapsed_s"] = round(time.perf_counter() - t0, 6)
    sys.stdout.write(json_text(report) + "\n")
    print(human, file=sys.stderr)


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _at_least(low: int):
    """argparse ``type=`` for integers no smaller than ``low``."""

    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return integer


def _write(save, obj, path) -> None:
    try:
        save(obj, path)
    except OSError as exc:
        raise SystemExit(f"cannot write output: {exc}")


def _read(what: str, load, *args):
    """``load(*args)``; a file it cannot read or refuses exits 1 with ``bad {what}: ...``."""
    try:
        return load(*args)
    except (OSError, ValueError, OverflowError) as exc:
        raise SystemExit(f"bad {what}: {exc}")


def _table_cost(path: str, m: int, n_packets: int) -> TableCost:
    derivs = read_json(path)
    if not (
        isinstance(derivs, list)
        and len(derivs) == m
        and all(isinstance(d, list) and d for d in derivs)
        and not set(map(type, chain.from_iterable(derivs))) - {int, float}
    ):
        raise ValueError(f"a list of {m} non-empty lists of numbers required")
    cost = TableCost(derivs)
    # Costs only grow with the rates, so this total bounds every cost reported.
    if not math.isfinite(sum(cost.value(i, n_packets) for i in range(m))):
        raise ValueError(f"the cost of {n_packets} symbols from every user is not finite")
    return cost


def _truth(path: str, inst: ProblemInstance) -> np.ndarray:
    truth = read_json(path)
    if not isinstance(truth, list) or len(truth) != inst.n_packets:
        raise ValueError(f"truth must list {inst.n_packets} packets")
    return json_ints(truth, inst.field.p, "packets")


def _cost_from_args(args, m: int, n_packets: int):
    if args.cost == "linear":
        if args.weights is None:
            raise SystemExit("--cost linear requires --weights")
        if len(args.weights) != m:
            raise SystemExit(f"--weights must list {m} values")
        try:
            return LinearCost(args.weights)
        except ValueError as exc:
            raise SystemExit(f"bad --weights: {exc}")
    if args.cost == "fair":
        return FairCost()
    if args.table is None:
        raise SystemExit("--cost table requires --table FILE")
    return _read("table file", _table_cost, args.table, m, n_packets)


def cmd_gen(args) -> int:
    t0 = time.perf_counter()
    try:
        if args.preset:
            inst = preset_instance(args.preset, q=args.q)
        else:
            if args.m is None or args.n is None:
                raise SystemExit("either --preset or both --m and --n are required")
            inst = generate_instance(
                args.kind, args.m, args.n, FieldSpec(args.q), coverage=args.rows, seed=args.seed
            )
    except ValueError as exc:  # InfeasibleInstance and InstanceError among them
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        _write(save_instance, inst, args.out)
    else:
        sys.stdout.write(json_text(inst.to_json_dict()) + "\n")
    print(
        f"instance {inst.digest()}: m={inst.m} N={inst.n_packets} q={inst.field.p} "
        f"({time.perf_counter() - t0:.3f}s)",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    inst = _read("instance file", load_instance, args.instance)
    oracle = CutSetOracle(inst)
    cost = _cost_from_args(args, inst.m, inst.n_packets)
    try:
        caps = _check_caps(args.caps, inst.m)
    except ValueError as exc:
        raise SystemExit(f"bad --caps: {exc}")
    # A user's broadcasts combine its own rows, so at most N are independent:
    # no useful total exceeds m*N, and the rounds and draws work per unit.
    top = inst.m * inst.n_packets
    if args.beta is not None and not 0 <= args.beta <= top:
        raise SystemExit(f"--beta must lie in [0, m*N = {top}]")
    if args.max_retries < 1:
        raise SystemExit("--max-retries must be at least 1")
    try:
        if args.backend == "randomized":
            value, alloc, extra = _solve_randomized(oracle, cost, caps, args)
        elif args.beta is not None:
            value, alloc = eval_h(oracle, args.beta, cost, caps)
            extra = {}
        else:
            got = min_cost(oracle, cost, caps)
            value, alloc, extra = got.value, got.allocation, {"min_sum_rate": got.min_sum_rate}
    except Infeasible as exc:
        payload = {
            "feasible": False,
            "error": "infeasible",
            "beta": exc.beta,
            "achieved_sum": exc.achieved_sum,
            "rounds_completed": exc.rounds_completed,
        }
        _emit("solve", payload, f"infeasible: {exc}", t0, digest=inst.digest(), seed=args.seed)
        return EXIT_INFEASIBLE
    except TableTooLarge as exc:
        raise SystemExit(f"cannot solve exactly: {exc}; --backend randomized needs no rank table")

    payload = {"feasible": True, "beta": alloc.beta, "rates": list(alloc.rates), "cost": value, **extra}
    human = f"rates {payload['rates']} cost {value} beta {alloc.beta}"
    _emit("solve", payload, human, t0, digest=inst.digest(), seed=args.seed)
    return EXIT_OK


def _solve_randomized(oracle, cost, caps, args):
    """Randomized run at --beta, or a budget search over randomized runs.

    Returns ``(value, allocation, extra)`` as the exact paths do.  A
    budget's run is the first of --max-retries attempts at it that
    completes all rounds with every user decoding, and the budget counts as
    infeasible when none does; small fields make that spurious with
    probability decaying in the attempt count.  Each (beta, attempt) pair
    draws from its own stream, so --beta B reproduces the schedule the
    search found at B.
    """
    inst = oracle.instance

    def solve(beta):
        for attempt in range(args.max_retries):
            rng = RngSpec(args.seed, _stream(beta, attempt))
            try:
                alloc, schedule, report = randomized_alloc(oracle, beta, cost, caps, rng)
            except Infeasible:
                continue
            if report.all_ok:
                return sum(cost.value(i, r) for i, r in enumerate(alloc.rates)), alloc, schedule
        raise Infeasible(
            f"no decodable run at budget {beta} after {args.max_retries} attempts", beta=beta
        )

    if args.beta is not None:
        value, alloc, schedule = solve(args.beta)
    else:
        # Budgets below the cut-set floor cannot decode, so they fail without
        # a draw; the probe sequence, and so every output, stays the same.
        hi = budget_ceiling(inst.n_packets, caps)
        _, _, (value, alloc, schedule) = optimal_budget(solve, hi, floor=inst.sum_rate_floor())
    if args.schedule_out:
        _write(save_schedule, schedule, args.schedule_out)
    return value, alloc, {"schedule": args.schedule_out}


def cmd_code(args) -> int:
    t0 = time.perf_counter()
    inst = _read("instance file", load_instance, args.instance)
    if len(args.rates) != inst.m:
        raise SystemExit(f"--rates must list {inst.m} values")
    if min(args.rates) < 0:
        raise SystemExit("--rates must be non-negative")
    top = inst.m * inst.n_packets  # as for solve --beta
    if sum(args.rates) > top:
        raise SystemExit(f"--rates must sum to at most m*N = {top}")
    if args.max_retries < 1:
        raise SystemExit("--max-retries must be at least 1")
    checked = inst.m <= MAX_TABLE_USERS
    if not checked:
        print(
            f"warning: {inst.m} users exceed the rank-table cap of {MAX_TABLE_USERS}; "
            "the rates are not checked against the cut-set region",
            file=sys.stderr,
        )
    try:
        schedule = construct_code(
            inst, args.rates, RngSpec(args.seed, args.stream), max_retries=args.max_retries
        )
    except InfeasibleRates as exc:
        payload = {"error": "infeasible-rates", "detail": str(exc)}
        _emit("code", payload, f"infeasible rates: {exc}", t0, digest=inst.digest())
        return EXIT_INFEASIBLE
    except ConstructionFailed as exc:
        payload = {"error": "construction-failed", "attempts": exc.attempts}
        _emit("code", payload, f"construction failed: {exc}", t0, digest=inst.digest())
        return EXIT_CONSTRUCTION
    _write(save_schedule, schedule, args.out)
    payload = {
        "schedule": args.out,
        "rates": list(schedule.counts(inst.m)),
        "cut_set_checked": checked,
    }
    human = f"wrote {args.out} ({len(schedule.entries)} transmissions)"
    _emit("code", payload, human, t0, digest=inst.digest(), seed=args.seed)
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    inst = _read("instance file", load_instance, args.instance)
    schedule = _read("schedule", load_schedule, args.schedule)
    _read("schedule", schedule.validate_against, inst)
    report = verify_decodable(inst, schedule)
    payload = {
        "per_user": list(report.per_user),
        "all_ok": report.all_ok,
    }
    human = "all users decodable" if report.all_ok else f"decodability: {list(report.per_user)}"
    _emit("verify", payload, human, t0, digest=inst.digest())
    return EXIT_OK if report.all_ok else EXIT_DECODE


def cmd_decode(args) -> int:
    t0 = time.perf_counter()
    inst = _read("instance file", load_instance, args.instance)
    if not 0 <= args.user < inst.m:
        raise SystemExit(f"--user must lie in [0, {inst.m})")
    schedule = _read("schedule", load_schedule, args.schedule)
    _read("schedule", schedule.validate_against, inst)
    if args.truth:
        w = _read("truth file", _truth, args.truth, inst)
    else:
        # Demo mode: decode a seeded synthetic file and report the round trip.
        w = np.asarray(
            RngSpec(args.seed).generator().integers(0, inst.field.p, size=inst.n_packets)
        )
    observed = inst.observe(args.user, w)
    received = transmit_values(schedule, w)
    try:
        recovered = decode(inst, args.user, schedule, observed, received)
    except NotDecodable as exc:
        payload = {"error": "not-decodable", "user": args.user}
        _emit("decode", payload, f"user {args.user}: {exc}", t0, digest=inst.digest())
        return EXIT_DECODE
    match = bool(np.array_equal(recovered, w))
    payload = {
        "user": args.user,
        "packets": [int(v) for v in recovered],
        "matches_truth": match,
    }
    human = f"user {args.user} decoded; match={match}"
    _emit("decode", payload, human, t0, digest=inst.digest(), seed=args.seed)
    return EXIT_OK if match else EXIT_DECODE


def cmd_validate(args) -> int:
    t0 = time.perf_counter()
    try:
        FieldSpec(args.q)
    except ValueError as exc:
        raise SystemExit(f"bad --q: {exc}")
    rlnc_trials = args.trials if args.suite == "rlnc" else 400
    if args.suite in ("rlnc", "all"):
        if args.q <= RLNC_USERS:
            raise SystemExit(f"bad --q: the rlnc suite needs a field order above its {RLNC_USERS} users")
        floor = rlnc_pass_mark(args.q, rlnc_trials)[1]
        if floor <= 0:
            raise SystemExit(
                f"bad --q/--trials: the rlnc pass mark at q={args.q} over {rlnc_trials} trials"
                f" is {floor:.3f}, not above 0"
            )
    if args.suite in ("properties", "all") and not grid_fits(args.max_m, args.max_n):
        raise SystemExit(f"bad --max-m/--max-n: (max_n + 1)^max_m * 2^max_m exceeds {MAX_GRID_ENTRIES}")
    results = []
    if args.suite in ("properties", "all"):
        results += run_properties(args.trials, args.seed, args.max_m, args.max_n)
    if args.suite in ("paper-examples", "all"):
        results += run_reference_examples()
    if args.suite in ("rlnc", "all"):
        results.append(run_rlnc_stats(args.q, rlnc_trials, args.seed))
    failures = [r for r in results if not r.ok]
    payload = {
        "checks": len(results),
        "failures": [{"name": r.name, "detail": r.detail} for r in failures],
    }
    human = f"{len(results) - len(failures)}/{len(results)} checks passed"
    _emit("validate", payload, human, t0, seed=args.seed)
    if failures:
        _write(write_json, payload["failures"], args.artifact)
        print(f"counterexamples written to {args.artifact}", file=sys.stderr)
        return EXIT_PROPERTY
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; ``parse_args`` returns a fresh
    namespace on every call, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="dexchange",
        description="Cooperative data exchange solver and coded-schedule toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--kind", choices=("raw", "coded"), default="raw")
    g.add_argument("--preset", choices=sorted(PRESETS), help="built-in instance")
    g.add_argument("--m", type=int, help="user count")
    g.add_argument("--n", type=int, help="packet count")
    g.add_argument("--q", type=int, default=257, help="field order (prime)")
    g.add_argument("--rows", type=_parse_ints, help="per-user row counts, comma separated")
    g.add_argument("--seed", type=_at_least(0), default=0)
    g.add_argument("--out", "-o", help="output path (default: stdout)")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="optimal rate allocation")
    s.add_argument("instance")
    s.add_argument("--cost", choices=("linear", "fair", "table"), default="linear")
    s.add_argument("--weights", type=_parse_ints, help="linear cost weights")
    s.add_argument("--table", help="JSON file of per-user increment tables")
    s.add_argument("--beta", type=int, help="fixed total budget (default: optimize)")
    s.add_argument("--caps", type=_parse_ints, help="per-user transmission caps")
    s.add_argument(
        "--backend", choices=("sfm", "randomized"), default="sfm", help="sfm is the exact rank-table solver"
    )
    s.add_argument("--seed", type=_at_least(0), default=0)
    s.add_argument("--max-retries", type=int, default=8, help="randomized attempts per budget")
    s.add_argument("--schedule-out", help="write the randomized schedule here")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("code", help="construct a decodable schedule for given rates")
    c.add_argument("instance")
    c.add_argument("--rates", type=_parse_ints, required=True)
    c.add_argument("--seed", type=_at_least(0), default=0)
    c.add_argument("--stream", type=_at_least(0), default=0)
    c.add_argument("--max-retries", type=int, default=64)
    c.add_argument("--out", "-o", default="schedule.json")
    c.set_defaults(func=cmd_code)

    v = sub.add_parser("verify", help="per-user decodability of a schedule")
    v.add_argument("instance")
    v.add_argument("schedule")
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("decode", help="reconstruct the file for one user")
    d.add_argument("instance")
    d.add_argument("schedule")
    d.add_argument("--user", type=int, required=True)
    d.add_argument("--truth", help="JSON list of the true packets")
    d.add_argument("--seed", type=_at_least(0), default=0, help="seed for the demo packet vector")
    d.set_defaults(func=cmd_decode)

    w = sub.add_parser("validate", help="run the cross-check suites")
    w.add_argument(
        "--suite",
        choices=("properties", "paper-examples", "rlnc", "all"),
        default="all",
    )
    w.add_argument("--max-m", type=_at_least(2), default=4)
    w.add_argument("--max-n", type=_at_least(2), default=6)
    w.add_argument("--trials", type=_at_least(1), default=50, help="suite instances or Monte-Carlo trials")
    w.add_argument("--seed", type=_at_least(0), default=0)
    w.add_argument("--q", type=int, default=19, help="field order for the rlnc suite")
    w.add_argument("--artifact", default="validate_failure.json")
    w.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which would read as "infeasible".
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
        return EXIT_OK if exc.code == 0 else EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
