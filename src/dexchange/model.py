"""Problem instances and the cut-set set function.

An instance is a collection of m observation matrices over a common prime
field: user i holds the values ``A_i @ w`` for an unknown packet vector w of
length N.  The solvers only ever touch an instance through joint ranks of
stacked observation rows, which :class:`CutSetOracle` holds as a dense table
indexed by user-subset bitmask.

Subsets of users are plain int bitmasks (bit i = user i).  Instances are
capped at MAX_USERS users; the deterministic algorithms read all 2^m joint
ranks, so the rank table is capped at MAX_TABLE_USERS users.  This module
holds only what the solvers read; the brute-force partition bound that
certifies them is in :mod:`dexchange.validate`.

It is also the document boundary: :func:`read_json` reads every JSON file
under one byte ceiling, :func:`json_int` and :func:`json_ints` check its
integers, and every document written is :func:`json_text`.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .gf import FieldSpec, FMatrix, RowBasis, _eliminate_leading, rank

MAX_USERS = 30
#: Largest user count whose 2^m joint-rank table is built (8 MB of int64).
MAX_TABLE_USERS = 20
#: Most matrix entries, sum of coverage times N, that :func:`generate_instance`
#: draws and an instance document may hold (32 MiB of int64).  A full-rank
#: instance has at least N rows, so this caps N at 2,048, and the parity
#: checks an exchange over the instance keeps at m N rows of N int64 entries
#: (960 MiB at MAX_USERS).  A schedule document may hold as many entries,
#: broadcasts times N.
MAX_DRAW_ENTRIES = 1 << 22
#: Bytes per matrix entry of the largest instance file :func:`json_text`
#: writes at MAX_DRAW_ENTRIES: one-entry rows of 7-digit entries (MAX_MODULUS
#: - 1 has 7), each ``[\n     1048575\n    ]`` plus the ``,\n    `` before the
#: next.  :func:`read_json` refuses files over this many bytes per allowed
#: entry, plus 1 KiB, before they are parsed.
FILE_BYTES_PER_ENTRY = 26

#: Packet subsets for the bundled three-user, six-packet demo instance.
PRESETS = {
    "example1": (6, ((0, 1), (1, 3, 4, 5), (2, 3, 4, 5))),
}


class InstanceError(ValueError):
    """Instance data is malformed or does not span the full packet space."""


class InfeasibleInstance(ValueError):
    """Requested generation parameters cannot produce a valid instance."""


class TableTooLarge(ValueError):
    """The instance has more users than the rank table allows."""


def members(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable exchange instance: field, packet count, per-user matrices."""

    field: FieldSpec
    n_packets: int
    observations: tuple[FMatrix, ...]

    def __post_init__(self):
        if self.n_packets < 1:
            raise InstanceError("packet count must be at least 1")
        m = len(self.observations)
        if m < 1:
            raise InstanceError("at least one user required")
        if m > MAX_USERS:
            raise InstanceError(f"user count {m} exceeds the bitmask cap {MAX_USERS}")
        for i, obs in enumerate(self.observations):
            if obs.field != self.field:
                raise InstanceError(f"user {i}: matrix field GF({obs.field.p}) does not match instance")
            if obs.cols != self.n_packets:
                raise InstanceError(
                    f"user {i}: matrix has {obs.cols} columns, expected {self.n_packets}"
                )
        # The rank is at most the row count: too few rows fail before any elimination.
        rows = sum(obs.rows for obs in self.observations)
        enough = rows >= self.n_packets
        r = rank(FMatrix.vstack(self.field, self.observations, cols=self.n_packets)) if enough else rows
        if r < self.n_packets:
            shown = r if enough else f"at most {r}"
            raise InstanceError(
                f"collective rank {shown} is below the packet count {self.n_packets}; "
                "the users together cannot reconstruct the file"
            )

    @property
    def m(self) -> int:
        return len(self.observations)

    @functools.cached_property
    def span_checks(self) -> tuple[np.ndarray, np.ndarray]:
        """Every user's :meth:`RowBasis.checks`, stacked user by user, and the
        user owning each row; both read-only.  A vector lies in user i's span
        exactly when each of user i's rows is orthogonal to it."""
        blocks = [RowBasis(self.field, self.n_packets, obs.array).checks() for obs in self.observations]
        checks = np.concatenate(blocks)
        owner = np.repeat(np.arange(self.m), [len(b) for b in blocks])
        checks.setflags(write=False)
        owner.setflags(write=False)
        return checks, owner

    def sum_rate_floor(self) -> int:
        """:func:`singleton_floor` from :attr:`span_checks` and no rank table:
        user i's rank is N minus its check rows."""
        _, owner = self.span_checks
        ranks = self.n_packets - np.bincount(owner, minlength=self.m)
        return singleton_floor(self.n_packets, ranks.tolist())

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    def observe(self, user: int, w) -> np.ndarray:
        """Values user ``user`` holds for the packet vector ``w``."""
        return self.observations[user].mat_vec(w)

    def to_json_dict(self) -> dict:
        return {
            "q": self.field.p,
            "N": self.n_packets,
            "users": [{"rows": obs.array.tolist()} for obs in self.observations],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProblemInstance":
        """Validate and build an instance.  A document of more than
        MAX_DRAW_ENTRIES matrix entries is refused at the first user that
        takes the running total over the cap, before that user's rows are
        read."""
        if not isinstance(data, dict):
            raise InstanceError("instance document must be a JSON object")
        try:
            q, n, users = data["q"], data["N"], data["users"]
        except KeyError as exc:
            raise InstanceError(f"instance document is missing key {exc}") from None
        q = json_int(q, "q", 2, InstanceError)
        try:
            field = FieldSpec(q)
        except ValueError as exc:
            raise InstanceError(str(exc)) from None
        n = json_int(n, "N", 1, InstanceError)
        if not isinstance(users, list) or not users:
            raise InstanceError("users must be a non-empty list")
        mats = []
        total = 0
        for i, entry in enumerate(users):
            rows = entry.get("rows") if isinstance(entry, dict) else None
            if not isinstance(rows, list):
                raise InstanceError(f"user {i}: expected an object with a 'rows' list")
            total += len(rows)
            if total * n > MAX_DRAW_ENTRIES:
                raise InstanceError(
                    f"{total * n} matrix entries ({total} rows of {n} packets in users 0 to {i}) "
                    f"exceed the cap of {MAX_DRAW_ENTRIES}"
                )
            mats.append(FMatrix(field, json_ints(rows, q, f"user {i}: entries", n, InstanceError), cols=n))
        return cls(field, n, tuple(mats))

    def digest(self) -> str:
        """Stable short hash of the canonical JSON form."""
        blob = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def json_text(doc, pad: str = "\n") -> str:
    """``json.dumps(doc, indent=1, default=str)`` for dicts with str keys,
    built by joins: a list of ints is one join, where the indenting encoder
    makes a call and a write per token."""
    inner = pad + " "
    if isinstance(doc, dict):
        items = (encode_basestring_ascii(k) + ": " + json_text(v, inner) for k, v in doc.items())
    elif isinstance(doc, (list, tuple)):
        ints = all(type(v) is int for v in doc)
        items = map(int.__repr__, doc) if ints else (json_text(v, inner) for v in doc)
    else:
        return json.dumps(doc, default=str)
    body = ("," + inner).join(items)
    brackets = "{}" if isinstance(doc, dict) else "[]"
    return brackets[0] + inner + body + pad + brackets[1] if body else brackets


def write_json(doc, path) -> None:
    """Write :func:`json_text` of ``doc`` and a newline to ``path``."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json_text(doc) + "\n")


def read_json(path, error=ValueError):
    """The JSON document in the file at ``path``; ``error`` for a file over
    the byte ceiling (checked before it is read), not UTF-8 JSON or too deep."""
    with open(path, "r", encoding="utf-8") as f:
        size = os.fstat(f.fileno()).st_size
        ceiling = FILE_BYTES_PER_ENTRY * MAX_DRAW_ENTRIES + 1024
        if size > ceiling:
            raise error(f"file of {size} bytes exceeds the ceiling of {ceiling} bytes")
        try:
            return json.load(f)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
            raise error(f"not a JSON document: {exc}") from None


def json_int(v, what: str, low: int | None = None, error=ValueError) -> int:
    """``v`` if its type is exactly int (JSON booleans are ints to Python) and
    it is at least ``low`` where given, else ``error``."""
    if type(v) is not int or (low is not None and v < low):
        raise error(f"{what} must be an integer{'' if low is None else f' >= {low}'}, not {v!r}")
    return v


def json_ints(doc, high: int, what: str, width: int | None = None, error=ValueError) -> np.ndarray:
    """``doc``, a JSON list of integers in [0, high), or with ``width`` a list
    of rows of ``width`` of them, as an int64 array.  :func:`json_int`'s rule,
    for all values in one pass; the first bad one is looked up only on failure."""
    if type(doc) is not list:
        raise error(f"{what} must be a JSON list")
    if width is not None and (set(map(type, doc)) - {list} or set(map(len, doc)) - {width}):
        raise error(f"{what} must form rows of length {width}")
    if not set(map(type, doc if width is None else chain.from_iterable(doc))) - {int}:
        with contextlib.suppress(OverflowError):  # an int beyond int64 is beyond every field
            a = np.array(doc, dtype=np.int64)
            if not a.size or (a.min() >= 0 and a.max() < high):
                return a
    flat = doc if width is None else chain.from_iterable(doc)
    bad = next(v for v in flat if type(v) is not int or not 0 <= v < high)
    raise error(f"{what} must be integers in [0, {high}) (the field range), not {bad!r}")


def load_instance(path) -> ProblemInstance:
    return ProblemInstance.from_json_dict(read_json(path, InstanceError))


def save_instance(instance: ProblemInstance, path) -> None:
    write_json(instance.to_json_dict(), path)


def instance_from_packet_sets(field: FieldSpec, n_packets: int, packet_sets) -> ProblemInstance:
    """Build a raw-packet instance: user i holds the listed packets verbatim."""
    mats = []
    for packets in packet_sets:
        rows = np.zeros((len(packets), n_packets), dtype=np.int64)
        for r, pkt in enumerate(sorted(packets)):
            if not 0 <= pkt < n_packets:
                raise InstanceError(f"packet index {pkt} out of range [0, {n_packets})")
            rows[r, pkt] = 1
        mats.append(FMatrix(field, rows, cols=n_packets))
    return ProblemInstance(field, n_packets, tuple(mats))


def singleton_floor(n_packets: int, user_ranks) -> int:
    """Lower bound on the minimum sum rate from the m singleton cuts, given
    each user's own rank.

    User i must receive ``N - rank(A_i)`` rows from the others, so
    ``R(M - i) >= N - rank(A_i)``; summed over i this bounds ``(m - 1) R(M)``.
    """
    need = [n_packets - r for r in user_ranks]
    return max(max(need), -(-sum(need) // max(len(need) - 1, 1)))


def preset_instance(name: str, q: int = 257) -> ProblemInstance:
    """One of the named built-in instances (see PRESETS)."""
    try:
        n, sets = PRESETS[name]
    except KeyError:
        raise InstanceError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
    return instance_from_packet_sets(FieldSpec(q), n, sets)


def generate_instance(
    kind: str,
    m: int,
    n_packets: int,
    field: FieldSpec = FieldSpec(257),
    coverage=None,
    seed: int = 0,
) -> ProblemInstance:
    """Sample a random instance that is collectively full rank.

    ``kind='raw'`` gives every user a subset of distinct packets (standard
    basis rows); ``kind='coded'`` gives uniform random matrices.  ``coverage``
    is the per-user row count; the default spreads roughly 2N rows evenly.
    Sampling retries until the union spans all packets, so the result is
    deterministic in ``seed``.  A draw of more than MAX_DRAW_ENTRIES matrix
    entries is refused before anything is allocated.
    """
    if kind not in ("raw", "coded"):
        raise ValueError(f"kind must be 'raw' or 'coded', got {kind!r}")
    if m < 1 or n_packets < 1:
        raise InfeasibleInstance("m and N must be positive")
    if m > MAX_USERS:
        raise InfeasibleInstance(f"user count {m} exceeds the bitmask cap {MAX_USERS}")
    if coverage is None:
        per = max(1, math.ceil(2 * n_packets / m))
        if kind == "raw":
            per = min(per, n_packets)
        coverage = [per] * m
    coverage = [int(c) for c in coverage]
    if len(coverage) != m:
        raise InfeasibleInstance(f"coverage must list {m} row counts")
    if any(c < 0 for c in coverage):
        raise InfeasibleInstance("row counts must be non-negative")
    if sum(coverage) < n_packets:
        raise InfeasibleInstance(
            f"total of {sum(coverage)} rows cannot span {n_packets} packets"
        )
    if kind == "raw" and any(c > n_packets for c in coverage):
        raise InfeasibleInstance(f"a user cannot hold more than {n_packets} distinct packets")
    if sum(coverage) * n_packets > MAX_DRAW_ENTRIES:
        raise InfeasibleInstance(
            f"{sum(coverage)} rows of {n_packets} packets exceed the draw cap of "
            f"{MAX_DRAW_ENTRIES} matrix entries"
        )

    rng = np.random.default_rng(seed)
    for _ in range(1000):
        if kind == "raw":
            sets = [rng.choice(n_packets, size=c, replace=False) for c in coverage]
            covered = set()
            for s in sets:
                covered.update(int(v) for v in s)
            if len(covered) < n_packets:
                continue
            return instance_from_packet_sets(field, n_packets, [tuple(s) for s in sets])
        mats = [
            FMatrix(field, rng.integers(0, field.p, size=(c, n_packets)), cols=n_packets)
            for c in coverage
        ]
        try:
            return ProblemInstance(field, n_packets, tuple(mats))
        except InstanceError:  # the draw does not span all packets
            continue
    raise InfeasibleInstance("no collectively full-rank draw found after 1000 attempts")


#: Most entries (subsets x rows x packets) the coded table build eliminates at once:
#: on two cores, coded m=16, N=40 builds in 0.32 s, 5.2 MiB peak (2^20: 0.37 s, 22 MiB).
_BATCH_ENTRIES = 1 << 17

#: Set bits of every byte value, for popcounts of packet bitmasks.
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _raw_supports(instance: ProblemInstance):
    """Per-user sets of packet columns, or None unless every observation row
    has at most one nonzero entry (scaled unit rows, as in raw instances)."""
    supports = []
    for obs in instance.observations:
        a = obs.array
        if np.any(np.count_nonzero(a, axis=1) > 1):
            return None
        supports.append(np.flatnonzero(a.any(axis=0)))
    return supports


def _raw_ranks(supports, m: int, n: int) -> np.ndarray:
    """rank(S) = popcount of the union of the users' packet bitmasks.

    The union over all 2^m subsets is built by doubling, which is the
    recurrence ``union[s] = union[s ^ top] | mask[user(top)]`` run for one
    top bit at a time; packets are taken 64 at a time so memory stays O(2^m).
    """
    ranks = np.zeros(1 << m, dtype=np.int64)
    for lo in range(0, n, 64):
        union = np.zeros(1, dtype=np.uint64)
        for cols in supports:
            word = sum(1 << int(c - lo) for c in cols if lo <= c < lo + 64)
            union = np.concatenate([union, union | np.uint64(word)])
        ranks += _POPCOUNT8[union.view(np.uint8)].reshape(-1, 8).sum(axis=1, dtype=np.int64)
    return ranks


def _coded_ranks(instance: ProblemInstance) -> np.ndarray:
    """Joint ranks by doubling over users, a batch of subsets at a time.

    A batch at user j holds masks S of users below j, each with the rows of
    users j, j+1, ... reduced modulo span(A_S).  One batched elimination of
    user j's block gives every child S + j its rank over S and reduces the
    later blocks modulo the child's span.  A child of rank N fills every
    superset that adds only users above j with N; the other children join
    their parents, block j sliced off, for user j+1.  A batch over
    _BATCH_ENTRIES entries is split, and the parts run depth first.  The
    batches are uint32 when (p - 1)(2p - 1) < 2^32 (see
    :func:`gf._eliminate_leading`), uint64 above that.
    """
    m, n, p = instance.m, instance.n_packets, instance.field.p
    sizes = [o.rows for o in instance.observations]
    ranks = np.zeros(1 << m, dtype=np.int64)
    rows = np.concatenate([o.array for o in instance.observations])
    rows = rows.astype(np.uint32 if (p - 1) * (2 * p - 1) < 1 << 32 else np.uint64)
    stack = [(0, np.zeros(1, dtype=np.int64), rows[None])]
    while stack:
        j, masks, res = stack.pop()
        gained, rest = _eliminate_leading(res, sizes[j], p)
        child = masks | 1 << j
        ranks[child] = ranks[masks] + gained
        full = ranks[child] == n
        ranks[(child[full, None] + np.arange(0, 1 << m, 2 << j)).ravel()] = n
        if j + 1 < m:
            masks = np.concatenate([masks, child[~full]])
            res = np.concatenate([res[:, sizes[j]:], rest[~full]])
            parts = min(masks.size, -(-res.size // _BATCH_ENTRIES) or 1)
            stack += zip([j + 1] * parts, np.array_split(masks, parts), np.array_split(res, parts))
    return ranks


def rank_table(instance: ProblemInstance) -> np.ndarray:
    """Read-only int64 array of rank(A_S) for every user subset S.

    Raises :class:`TableTooLarge` above MAX_TABLE_USERS users.
    """
    m = instance.m
    if m > MAX_TABLE_USERS:
        raise TableTooLarge(
            f"{m} users exceed the rank-table cap of {MAX_TABLE_USERS}; the exact "
            "solvers read all 2^m joint ranks"
        )
    supports = _raw_supports(instance)
    if supports is None:
        table = _coded_ranks(instance)
    else:
        table = _raw_ranks(supports, m, instance.n_packets)
    table.setflags(write=False)
    return table


class CutSetOracle:
    """Joint ranks and the budgeted cut-set set function.

    ``cut_set_f(beta, S)`` is the per-subset transmission cap implied by a
    total budget ``beta``: 0 on the empty set, ``beta`` on the full set, and
    ``beta - N + rank(A_S)`` in between (possibly negative for small
    budgets).  All 2^m joint ranks are built in one pass on the first rank
    query, never on construction, so callers that need no ranks work above
    MAX_TABLE_USERS.  The table, the ints scalar queries read and the last
    :meth:`ordered_ranks` table are each published by one assignment, so
    concurrent first readers at worst build the same value twice.
    """

    def __init__(self, instance: ProblemInstance):
        self.instance = instance
        self._full = instance.full_mask
        self._n = instance.n_packets
        self._table = None
        self._values = None
        self._ordered = None

    @property
    def ranks(self) -> np.ndarray:
        """The read-only rank table, indexed by subset bitmask."""
        table = self._table
        if table is None:
            table = self._table = rank_table(self.instance)
        return table

    def ordered_ranks(self, order) -> np.ndarray:
        """The read-only rank table with bit k meaning user ``order[k]`` (a view
        of :attr:`ranks` for the identity order); the last order's is kept."""
        order = tuple(order)
        kept = self._ordered
        if kept is None or kept[0] != order:
            m = len(order)  # axis j of the (2,) * m view is bit m - 1 - j
            table = self.ranks.reshape((2,) * m).transpose([m - 1 - u for u in order[::-1]]).reshape(-1)
            table.setflags(write=False)
            kept = self._ordered = (order, table)
        return kept[1]

    def joint_rank(self, subset: int) -> int:
        """Rank of the stacked observation rows of the users in ``subset``."""
        if not 0 <= subset <= self._full:
            raise ValueError(f"subset {subset:#x} has bits beyond user count {self.instance.m}")
        values = self._values
        if values is None:
            values = self._values = self.ranks.tolist()
        return values[subset]

    def cut_set_f(self, beta: int, subset: int) -> int:
        if beta < 0:
            raise ValueError("budget must be non-negative")
        if subset == 0:
            return 0
        if subset == self._full:
            return beta
        return beta - self._n + self.joint_rank(subset)


def subset_sums(values) -> np.ndarray:
    """``out[S] = sum(values[i] for i in S)`` for every subset bitmask S,
    built by doubling: O(2^m) memory and no 2^m x m membership matrix."""
    values = list(values)
    out = np.zeros(1 << len(values), dtype=np.int64)
    for i, v in enumerate(values):
        half = 1 << i
        np.add(out[:half], v, out=out[half : 2 * half])
    return out


def in_cut_set_region(oracle: CutSetOracle, rates) -> bool:
    """Membership test for the cut-set rate region.

    Checks ``R(S) >= N - rank(A_{M\\S})`` for every proper subset S as one
    array comparison over the rank table.
    """
    inst = oracle.instance
    rates = list(rates)
    if len(rates) != inst.m:
        raise ValueError(f"rate vector of length {inst.m} required")
    # The complement of S is full ^ S = full - S, so reversing the table
    # lines rank(complement) up with R(S); the last entry (S = full) is dropped.
    lower = inst.n_packets - oracle.ranks[::-1]
    return bool(np.all(subset_sums(rates)[:-1] >= lower[:-1]))
