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

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .gf import FMatrix, RowBasis, ShapeError, SingularSystem, solve_full_rank
from .model import (
    MAX_DRAW_ENTRIES,
    MAX_TABLE_USERS,
    CutSetOracle,
    ProblemInstance,
    in_cut_set_region,
    json_int,
    json_ints,
    read_json,
    write_json,
)
from .ratealloc import Allocation, _check_caps, allocate_rounds


class InfeasibleRates(ValueError):
    """The requested rate vector lies outside the cut-set region."""


class ConstructionFailed(RuntimeError):
    """No decodable schedule found within the retry budget of ``attempts``
    draws (None only while pickle rebuilds the exception)."""

    def __init__(self, message, *, attempts=None):
        super().__init__(message)
        self.attempts = attempts


class NotDecodable(ValueError):
    """The user's observations plus received rows do not span the file."""


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


@dataclass(frozen=True, eq=False)
class TransmissionSchedule:
    """Broadcasts over GF(q) of an N-packet file, in round order: broadcast k
    is sent by ``users[k]``, combines that sender's rows by ``coeffs[k]`` and
    carries ``combos[k]``, one row of a read-only int64 array of shape
    (broadcasts, N).  Schedules compare equal by value."""

    q: int
    n_packets: int
    users: tuple[int, ...]
    coeffs: tuple[np.ndarray, ...]
    combos: np.ndarray
    rng: RngSpec | None = None

    def __post_init__(self):
        combos = np.array(self.combos, dtype=np.int64).reshape(len(self.users), self.n_packets)
        combos.setflags(write=False)
        object.__setattr__(self, "combos", combos)
        object.__setattr__(self, "coeffs", tuple(np.asarray(c, dtype=np.int64) for c in self.coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, TransmissionSchedule) and self.to_json_dict() == other.to_json_dict()

    def counts(self, m: int) -> tuple[int, ...]:
        """Per-user broadcast counts, i.e. the rate vector this schedule realizes."""
        return tuple(np.bincount(self.users, minlength=m).tolist())

    def validate_against(self, instance: ProblemInstance) -> None:
        """Check every sender against the users of ``instance`` and every
        stored row against its recomputation from (coeffs, A_user), one
        product per sender; the first faulty broadcast decides the error."""
        if instance.field.p != self.q or instance.n_packets != self.n_packets:
            raise ValueError("schedule and instance disagree on field or packet count")
        m, observations = instance.m, instance.observations
        # Products cover the broadcasts before the first bad sender or coefficient count.
        stop, fault = len(self.users), None
        for k, (user, c) in enumerate(zip(self.users, self.coeffs)):
            if not 0 <= user < m:
                stop, fault = k, ValueError(f"round {k + 1}: sender {user!r} is not among the {m} users")
                break
            if c.size != observations[user].rows:
                stop, fault = k, ShapeError(f"coefficient vector of length {observations[user].rows} required")
                break
        users = np.array(self.users[:stop], dtype=np.int64)
        wrong = np.zeros(stop, dtype=bool)
        for i, obs in enumerate(observations):
            mine = np.flatnonzero(users == i)
            block = np.array([self.coeffs[k] for k in mine], dtype=np.int64).reshape(mine.size, obs.rows)
            wrong[mine] = (block @ obs.array % self.q != self.combos[mine]).any(axis=1)
        if wrong.any():
            raise ValueError(f"round {wrong.argmax() + 1}: stored row does not match its coefficients")
        if fault is not None:
            raise fault

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "N": self.n_packets,
            "entries": [
                {"round": k, "user": user, "b": c.tolist(), "u": row}
                for k, (user, c, row) in enumerate(zip(self.users, self.coeffs, self.combos.tolist()), 1)
            ],
            "rng": None if self.rng is None else {"seed": self.rng.seed, "stream": self.rng.stream},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TransmissionSchedule":
        try:
            q = json_int(data["q"], "q", 2)
            n = json_int(data["N"], "N", 1)
            docs = data["entries"]
            if type(docs) is not list:
                raise TypeError("entries must be a list")
            if len(docs) * n > MAX_DRAW_ENTRIES:
                raise ValueError(
                    f"{len(docs)} broadcasts of {n} packets exceed the cap of "
                    f"{MAX_DRAW_ENTRIES} matrix entries"
                )
            b = json_ints(list(chain.from_iterable(e["b"] for e in docs)), q, "b entries")
            combos = json_ints([e["u"] for e in docs], q, "u entries", n)
            users = []
            for k, e in enumerate(docs, 1):
                if json_int(e["round"], f"entry {k}: rounds must run 1, 2, ...; round") != k:
                    raise ValueError(f"entry {k} has round {e['round']!r}; rounds must run 1, 2, ...")
                users.append(json_int(e["user"], f"round {k}: sender"))
            rng = data.get("rng")
            spec = None
            if rng is not None:
                seed = json_int(rng["seed"], "rng seed", 0)
                spec = RngSpec(seed, json_int(rng.get("stream", 0), "rng stream", 0))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"schedule document is malformed: {exc!r}") from None
        # Split at every row's end; the piece after the last end is empty.
        coeffs = np.split(b, np.cumsum([len(e["b"]) for e in docs]))[:-1]
        return cls(q, n, tuple(users), tuple(coeffs), combos, spec)


def load_schedule(path) -> TransmissionSchedule:
    return TransmissionSchedule.from_json_dict(read_json(path))


def save_schedule(schedule: TransmissionSchedule, path) -> None:
    write_json(schedule.to_json_dict(), path)


@dataclass(frozen=True)
class DecodeReport:
    per_user: tuple[bool, ...]

    @property
    def all_ok(self) -> bool:
        return all(self.per_user)


class ExchangeState:
    """Round-by-round exchange state that tracks each user's rank through
    parity checks.

    User i's span is its observation rows plus every broadcast so far.  The
    state keeps N - rank_i check rows spanning the vectors orthogonal to it,
    stacked for all users (starting from :attr:`ProblemInstance.span_checks`,
    which it never writes to).  A broadcast u costs one product d = K u: a
    user with a nonzero d_j gains one rank, its every check k becomes
    K_k - (d_k / d_j) K_j, orthogonal to u, and its first such check j is
    dropped.  The sender's own d is zero.  A user may transmit while its
    span, given the rounds still remaining, can still reach full rank.
    """

    def __init__(self, instance: ProblemInstance, beta: int):
        if beta < 0:
            raise ValueError("budget must be non-negative")
        self.instance = instance
        self.beta = beta
        self.round = 1
        self.users, self.coeffs, self.combos = [], [], []
        self._checks, self._owner = instance.span_checks
        self._ranks = instance.n_packets - np.bincount(self._owner, minlength=instance.m)

    def transmit_set(self) -> list[int]:
        threshold = self.instance.n_packets - (self.beta - self.round + 1)
        return np.flatnonzero(self._ranks > threshold).tolist()

    def step(self, user: int, coeffs) -> np.ndarray:
        """Record a broadcast by ``user`` with the given combining row, and
        return the broadcast row."""
        if self.round > self.beta:
            raise ValueError("all rounds already played")
        u = self.instance.observations[user].combine_rows(coeffs)
        p, owner = self.instance.field.p, self._owner
        d = self._checks @ u % p
        hit = d.nonzero()[0]
        if hit.size:
            # Rows are grouped by owner, so a group's first hit is where the owner changes.
            first = hit[np.flatnonzero(np.diff(owner[hit], prepend=-1))]
            gaining = owner[first]
            inv = np.zeros(self.instance.m, dtype=np.int64)
            inv[gaining] = [pow(v, p - 2, p) for v in d[first].tolist()]
            pivot = np.zeros(self.instance.m, dtype=np.intp)
            pivot[gaining] = first
            f = d * inv[owner] % p
            checks = (self._checks - f[:, None] * self._checks[pivot[owner]]) % p
            keep = np.ones(owner.size, dtype=bool)
            keep[first] = False
            self._checks, self._owner = checks[keep], owner[keep]
            self._ranks[gaining] += 1
        self.users.append(user)
        self.coeffs.append(coeffs)
        self.combos.append(u)
        self.round += 1
        return u

    def schedule(self, rng: RngSpec | None = None) -> TransmissionSchedule:
        """The broadcasts recorded so far."""
        p, n = self.instance.field.p, self.instance.n_packets
        return TransmissionSchedule(p, n, tuple(self.users), tuple(self.coeffs), self.combos, rng)

    def report(self) -> DecodeReport:
        """Decodability so far: a user decodes once its span is the packet space."""
        return DecodeReport(tuple(r == self.instance.n_packets for r in self._ranks.tolist()))


def randomized_alloc(
    instance: ProblemInstance, beta, cost, caps=None, rng: RngSpec = RngSpec(0)
) -> tuple[Allocation, TransmissionSchedule, DecodeReport]:
    """Allocate ``beta`` units with random transmissions generated as it goes.

    Runs :func:`ratealloc.allocate_rounds` with the rank-based transmit set
    in place of the polyhedral check; the cheapest eligible user broadcasts
    a fresh uniform combination of its rows.  The report says which users
    decode the drawn schedule, read off the ranks the run keeps; a
    completed run fails to decode with probability at most
    ``1 - (1 - m/q)^beta``.  No rank table is read.
    """
    caps = _check_caps(caps, instance.m)
    gen = rng.generator()
    state = ExchangeState(instance, beta)

    def broadcast(user):
        state.step(user, gen.integers(0, instance.field.p, size=instance.observations[user].rows))

    alloc = allocate_rounds(instance.m, beta, cost, lambda rates: state.transmit_set(), caps, broadcast)
    return alloc, state.schedule(rng), state.report()


def verify_decodable(instance: ProblemInstance, schedule: TransmissionSchedule) -> DecodeReport:
    """Full-rank decodability check, per user and overall.

    Every user hears every broadcast, so user i decodes exactly when its own
    rows stacked with all schedule rows span the packet space.
    """
    n = instance.n_packets
    if schedule.n_packets != n:
        raise ValueError("schedule rows do not match the instance packet count")
    # Rank does not depend on row order: eliminate the schedule rows once and
    # add each user's rows to a copy.
    shared = RowBasis(instance.field, n, schedule.combos)
    flags = []
    for obs in instance.observations:
        basis = shared.copy()
        basis.extend(obs.array)
        flags.append(basis.rank == n)
    return DecodeReport(tuple(flags))


def construct_code(
    instance: ProblemInstance,
    rates,
    rng: RngSpec = RngSpec(0),
    max_retries: int = 64,
) -> TransmissionSchedule:
    """Draw a decodable schedule realizing ``rates``.

    Rejects rate vectors outside the cut-set region; above MAX_TABLE_USERS
    users there is no rank table and that check is skipped.  Each attempt
    draws every sender's combining rows uniformly as one block, sender by
    sender, and is then checked once by :func:`verify_decodable`; the first
    attempt every user decodes is returned, and :class:`ConstructionFailed`
    is raised once the retry budget is spent, which points at a field too
    small for the user count.
    """
    rates = tuple(int(r) for r in rates)
    if len(rates) != instance.m or any(r < 0 for r in rates):
        raise InfeasibleRates(f"rate vector of length {instance.m} with non-negative entries required")
    if instance.m <= MAX_TABLE_USERS and not in_cut_set_region(CutSetOracle(instance), rates):
        raise InfeasibleRates(f"rates {rates} violate a cut-set bound")
    gen = rng.generator()
    p, n, observations = instance.field.p, instance.n_packets, instance.observations
    users = tuple(user for user, count in enumerate(rates) for _ in range(count))
    for _ in range(max_retries):
        blocks = [gen.integers(0, p, size=(count, obs.rows)) for obs, count in zip(observations, rates)]
        combos = np.concatenate([block @ obs.array % p for block, obs in zip(blocks, observations)])
        schedule = TransmissionSchedule(p, n, users, tuple(chain.from_iterable(blocks)), combos, rng)
        if verify_decodable(instance, schedule).all_ok:
            return schedule
    raise ConstructionFailed(
        f"no decodable draw in {max_retries} attempts; consider a larger field",
        attempts=max_retries,
    )


def transmit_values(schedule: TransmissionSchedule, w) -> np.ndarray:
    """The broadcast values a packet vector ``w`` would produce."""
    w = np.asarray(w, dtype=np.int64)
    return (schedule.combos @ w) % schedule.q


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
    the stacked system is rank deficient for this user, read off the one
    elimination that solves it.
    """
    obs = instance.observations[user]
    observed = np.asarray(observed, dtype=np.int64)
    received = np.asarray(received, dtype=np.int64)
    if observed.shape != (obs.rows,):
        raise ValueError(f"user {user} holds {obs.rows} values, got shape {observed.shape}")
    if received.shape != (len(schedule.users),):
        raise ValueError(f"expected {len(schedule.users)} received values")
    stacked = FMatrix(instance.field, np.concatenate([obs.array, schedule.combos]))
    rhs = np.concatenate([observed, received]) % instance.field.p
    try:
        return solve_full_rank(stacked, rhs)
    except SingularSystem as exc:
        if exc.rank < instance.n_packets:
            raise NotDecodable(f"user {user} cannot reconstruct the file from this schedule") from None
        raise
