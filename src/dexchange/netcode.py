"""Random linear coding: allocation with on-the-fly transmissions,
schedule construction for a given rate vector, decodability verification,
and decoding.

A transmission is a uniformly random combination of the sender's observation
rows.  Instead of a deterministic code design, schedules are drawn, verified
against the full-rank decodability condition, and redrawn on failure; with a
field larger than the user count a draw succeeds with probability at least
``(1 - m/q)^beta``, so a handful of retries is ample at desk scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .gf import FMatrix, RowBasis, SingularSystem, rank, solve_full_rank
from .model import MAX_TABLE_USERS, CutSetOracle, ProblemInstance, in_cut_set_region
from .ratealloc import Allocation, _check_caps, allocate_rounds


class InfeasibleRates(ValueError):
    """The requested rate vector lies outside the cut-set region."""


class ConstructionFailed(RuntimeError):
    """No decodable schedule found within the retry budget."""

    def __init__(self, message, *, attempts):
        super().__init__(message)
        self.attempts = attempts


class NotDecodable(ValueError):
    """The user's observations plus received rows do not span the file."""


def _json_int(v, what: str, low: int | None = None, high: int | None = None) -> int:
    """``v`` if it is a JSON integer, not a bool, in [low, high) where given."""
    if type(v) is not int or (low is not None and v < low) or (high is not None and v >= high):
        span = "" if low is None else f" in [{low}, {'inf' if high is None else high})"
        raise ValueError(f"{what} {v!r} is not an integer{span}")
    return v


@dataclass(frozen=True)
class RngSpec:
    """Seed plus stream index for a counter-based generator.

    Identical specs yield identical draw sequences; distinct streams under
    one seed are independent, which is how Monte-Carlo trials parallelize.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class ScheduleEntry:
    """One broadcast: round counter (1-based), sender, combining
    coefficients over the sender's rows, and the resulting packet-space row."""

    round: int
    user: int
    coeffs: tuple[int, ...]
    combo: tuple[int, ...]


@dataclass(frozen=True)
class TransmissionSchedule:
    q: int
    n_packets: int
    entries: tuple[ScheduleEntry, ...]
    rng: RngSpec | None = None

    def counts(self, m: int) -> tuple[int, ...]:
        """Per-user entry counts, i.e. the rate vector this schedule realizes."""
        out = [0] * m
        for e in self.entries:
            out[e.user] += 1
        return tuple(out)

    def combo_rows(self) -> np.ndarray:
        """All packet-space rows as an array of shape (len(entries), N)."""
        if not self.entries:
            return np.zeros((0, self.n_packets), dtype=np.int64)
        return np.array([e.combo for e in self.entries], dtype=np.int64)

    def validate_against(self, instance: ProblemInstance) -> None:
        """Check that rounds run 1, 2, ... in order, that every sender is a
        user of ``instance``, and every stored row against its recomputation
        from (coeffs, A_user)."""
        if instance.field.p != self.q or instance.n_packets != self.n_packets:
            raise ValueError("schedule and instance disagree on field or packet count")
        for k, e in enumerate(self.entries, 1):
            if e.round != k:
                raise ValueError(f"entry {k} has round {e.round!r}; rounds must run 1, 2, ...")
            if not 0 <= e.user < instance.m:
                raise ValueError(f"round {k}: sender {e.user!r} is not among the {instance.m} users")
            expected = instance.observations[e.user].combine_rows(e.coeffs)
            if tuple(int(v) for v in expected) != e.combo:
                raise ValueError(f"round {e.round}: stored row does not match its coefficients")

    def to_json_dict(self) -> dict:
        doc = {
            "q": self.q,
            "N": self.n_packets,
            "entries": [
                {"round": e.round, "user": e.user, "b": list(e.coeffs), "u": list(e.combo)}
                for e in self.entries
            ],
        }
        doc["rng"] = (
            {"seed": self.rng.seed, "stream": self.rng.stream} if self.rng is not None else None
        )
        return doc

    @classmethod
    def from_json_dict(cls, data: dict) -> "TransmissionSchedule":
        try:
            q = _json_int(data["q"], "q")
            n = _json_int(data["N"], "N")
            if type(data["entries"]) is not list:
                raise TypeError("entries must be a list")
            entries = tuple(
                ScheduleEntry(
                    round=_json_int(e["round"], f"entry {k}: rounds must run 1, 2, ...; round"),
                    user=_json_int(e["user"], f"round {k}: sender"),
                    coeffs=tuple(_json_int(v, f"round {k}: coefficient", 0, q) for v in e["b"]),
                    combo=tuple(_json_int(v, f"round {k}: row entry", 0, q) for v in e["u"]),
                )
                for k, e in enumerate(data["entries"], 1)
            )
            rng = data.get("rng")
            spec = None
            if rng is not None:
                seed = _json_int(rng["seed"], "rng seed", 0)
                spec = RngSpec(seed, _json_int(rng.get("stream", 0), "rng stream", 0))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"schedule document is malformed: {exc!r}") from None
        return cls(q, n, entries, spec)


def load_schedule(path) -> TransmissionSchedule:
    with open(path, "r", encoding="utf-8") as f:
        return TransmissionSchedule.from_json_dict(json.load(f))


def save_schedule(schedule: TransmissionSchedule, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(schedule.to_json_dict(), f, indent=1)
        f.write("\n")


@dataclass(frozen=True)
class DecodeReport:
    per_user: tuple[bool, ...]
    all_ok: bool


class ExchangeState:
    """Round-by-round exchange state with incremental rank tracking.

    Keeps one reduced row basis per user (their observation rows plus every
    broadcast row so far), so the per-round transmit set and the decode
    report come from rank lookups instead of re-eliminating stacks.  A user
    may transmit while its span, given the rounds still remaining, can still
    reach full rank.
    """

    def __init__(self, instance: ProblemInstance, beta: int):
        if beta < 0:
            raise ValueError("budget must be non-negative")
        self.instance = instance
        self.beta = beta
        self.round = 1
        self.entries: list[ScheduleEntry] = []
        self._spans = [
            RowBasis(instance.field, instance.n_packets, obs.array)
            for obs in instance.observations
        ]

    def transmit_set(self) -> list[int]:
        threshold = self.instance.n_packets - (self.beta - self.round + 1)
        return [i for i in range(self.instance.m) if self._spans[i].rank > threshold]

    def step(self, user: int, coeffs) -> ScheduleEntry:
        """Record a broadcast by ``user`` with the given combining row."""
        if self.round > self.beta:
            raise ValueError("all rounds already played")
        u = self.instance.observations[user].combine_rows(coeffs)
        entry = ScheduleEntry(
            round=self.round,
            user=user,
            coeffs=tuple(int(v) for v in np.asarray(coeffs, dtype=np.int64)),
            combo=tuple(int(v) for v in u),
        )
        # The sender's own span already holds u, a combination of its rows.
        for i, span in enumerate(self._spans):
            if i != user:
                span.add(u)
        self.entries.append(entry)
        self.round += 1
        return entry

    def report(self) -> DecodeReport:
        """Decodability so far: a user decodes once its span is the packet space."""
        flags = tuple(span.rank == self.instance.n_packets for span in self._spans)
        return DecodeReport(flags, all(flags))


def randomized_alloc(
    oracle: CutSetOracle, beta, cost, caps=None, rng: RngSpec = RngSpec(0)
) -> tuple[Allocation, TransmissionSchedule, DecodeReport]:
    """Allocate ``beta`` units with random transmissions generated as it goes.

    Runs :func:`ratealloc.allocate_rounds` with the rank-based transmit set
    in place of the polyhedral check; the cheapest eligible user broadcasts
    a fresh uniform combination of its rows.  The report says which users
    decode the drawn schedule, read off the per-user bases the run keeps; a
    completed run fails to decode with probability at most
    ``1 - (1 - m/q)^beta``.
    """
    inst = oracle.instance
    caps = _check_caps(caps, inst.m)
    gen = rng.generator()
    state = ExchangeState(inst, beta)

    def broadcast(user):
        state.step(user, gen.integers(0, inst.field.p, size=inst.observations[user].rows))

    alloc = allocate_rounds(inst.m, beta, cost, lambda rates: state.transmit_set(), caps, broadcast)
    schedule = TransmissionSchedule(inst.field.p, inst.n_packets, tuple(state.entries), rng)
    return alloc, schedule, state.report()


def verify_decodable(instance: ProblemInstance, schedule: TransmissionSchedule) -> DecodeReport:
    """Full-rank decodability check, per user and overall.

    Every user hears every broadcast, so user i decodes exactly when its own
    rows stacked with all schedule rows span the packet space.
    """
    rows = schedule.combo_rows()
    if rows.shape[1] != instance.n_packets:
        raise ValueError("schedule rows do not match the instance packet count")
    combos = FMatrix(instance.field, rows, cols=instance.n_packets)
    flags = []
    for obs in instance.observations:
        stacked = FMatrix.vstack(instance.field, [obs, combos], cols=instance.n_packets)
        flags.append(rank(stacked) == instance.n_packets)
    return DecodeReport(tuple(flags), all(flags))


def construct_code(
    instance: ProblemInstance,
    rates,
    rng: RngSpec = RngSpec(0),
    max_retries: int = 64,
) -> TransmissionSchedule:
    """Draw a decodable schedule realizing ``rates``.

    Rejects rate vectors outside the cut-set region; above MAX_TABLE_USERS
    users there is no rank table and that check is skipped.  Draws all
    combining rows uniformly through an :class:`ExchangeState`, sender by
    sender, accepts the first draw every user decodes, and raises
    :class:`ConstructionFailed` once the retry budget is spent; that points
    at a field too small for the user count.
    """
    rates = tuple(int(r) for r in rates)
    if len(rates) != instance.m or any(r < 0 for r in rates):
        raise InfeasibleRates(f"rate vector of length {instance.m} with non-negative entries required")
    if instance.m <= MAX_TABLE_USERS and not in_cut_set_region(CutSetOracle(instance), rates):
        raise InfeasibleRates(f"rates {rates} violate a cut-set bound")
    gen = rng.generator()
    p = instance.field.p
    for _ in range(max_retries):
        state = ExchangeState(instance, sum(rates))
        for user, count in enumerate(rates):
            for _ in range(count):
                state.step(user, gen.integers(0, p, size=instance.observations[user].rows))
        if state.report().all_ok:
            return TransmissionSchedule(p, instance.n_packets, tuple(state.entries), rng)
    raise ConstructionFailed(
        f"no decodable draw in {max_retries} attempts; consider a larger field",
        attempts=max_retries,
    )


def transmit_values(schedule: TransmissionSchedule, w) -> np.ndarray:
    """The broadcast values a packet vector ``w`` would produce."""
    rows = schedule.combo_rows()
    w = np.asarray(w, dtype=np.int64)
    return (rows @ w) % schedule.q


def decode(
    instance: ProblemInstance,
    user: int,
    schedule: TransmissionSchedule,
    observed,
    received,
) -> np.ndarray:
    """Reconstruct the packet vector from a user's view of the exchange.

    ``observed`` are the user's own observation values, ``received`` the
    broadcast values in schedule order.  Raises :class:`NotDecodable` when
    the stacked system is rank deficient for this user.
    """
    obs = instance.observations[user]
    observed = np.asarray(observed, dtype=np.int64)
    received = np.asarray(received, dtype=np.int64)
    if observed.shape != (obs.rows,):
        raise ValueError(f"user {user} holds {obs.rows} values, got shape {observed.shape}")
    if received.shape != (len(schedule.entries),):
        raise ValueError(f"expected {len(schedule.entries)} received values")
    combos = FMatrix(instance.field, schedule.combo_rows(), cols=instance.n_packets)
    stacked = FMatrix.vstack(instance.field, [obs, combos], cols=instance.n_packets)
    rhs = np.concatenate([observed, received]) % instance.field.p
    try:
        return solve_full_rank(stacked, rhs)
    except SingularSystem:
        if rank(stacked) < instance.n_packets:
            raise NotDecodable(f"user {user} cannot reconstruct the file from this schedule") from None
        raise
