"""The four benchmark workloads.

Each workload builds a seeded pool of inputs at set-up (``setup``), runs
one op per input (``op``; op k uses pool entry k mod the pool size, always
with a fresh ``CutSetOracle`` so no rank work is shared between ops), checks
every op's output outside the timed region (``check``), and lists the op's
deterministic outputs for the run's digest (``record``).  Ops drive only names exported from
the ``dexchange`` package or ``dexchange.cli.main(argv)``, looked up on the
package at call time, so the traced run's hooks see them and refactors that
keep the public API and CLI contract keep the timed path working.
``dexchange.validate`` is used only to check outputs.

Why each workload exists (see README.md for the layer map):

* ``coded-linear`` builds all 2^m joint ranks from scratch each op: the
  rank-table (``gf.rank``) workload, which bypasses the convex round loop.
* ``raw-fair`` builds the rank table once and reads it from three solves:
  the coordinate-step (``sfm.min_pinned``) and solver-driver workload.
* ``rlnc-cli`` goes through the CLI: RLNC draws with retries, verification,
  decoding and JSON I/O, touching the rank table only in ``code``.
* ``subgrad-small`` runs the subgradient coordinate engine, which reads
  only chain prefixes of the rank table: an eager whole-table build must
  show no change here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import zlib

import numpy as np

#: Inputs generated at set-up.  Ops cycle through the pool; at the op rates
#: measured when the benchmark was written a run uses each entry at most once.
POOL = 64

#: Floating-point tolerance for comparing costs computed on different paths.
TOL = 1e-9


def _rng(name, seed):
    return np.random.default_rng((zlib.crc32(name.encode()), seed))


def _region_ok(dx, oracle, alloc, caps=None):
    rates = alloc.rates
    if sum(rates) != alloc.beta or not dx.in_cut_set_region(oracle, rates):
        return False
    return caps is None or all(r <= c for r, c in zip(rates, caps))


class CodedLinear:
    """``min_cost`` with a linear cost on a fresh coded instance."""

    name = "coded-linear"
    M, N, Q = 10, 24, 257

    def setup(self, dx, seed, workdir):
        rng = _rng(self.name, seed)
        pool = []
        for _ in range(POOL):
            inst = dx.generate_instance(
                "coded", self.M, self.N, dx.FieldSpec(self.Q), seed=int(rng.integers(2**31))
            )
            weights = tuple(int(w) for w in rng.integers(1, 5, size=self.M))
            pool.append((inst, dx.LinearCost(weights)))
        return pool

    def op(self, dx, entry):
        inst, cost = entry
        oracle = dx.CutSetOracle(inst)
        return oracle, dx.min_cost(oracle, cost)

    def check(self, dx, entry, out):
        _, cost = entry
        oracle, got = out
        rates = got.allocation.rates
        value = sum(w * r for w, r in zip(cost.weights, rates))
        return got.beta == got.allocation.beta and value == got.value and _region_ok(
            dx, oracle, got.allocation
        )

    def record(self, entry, out):
        got = out[1]
        return [got.beta, got.allocation.rates, got.value]


class RawFair:
    """Three solves sharing one oracle on a fresh raw-packet instance:
    fair ``min_cost``, table ``min_cost``, and fair ``eval_h`` at the fair
    optimum's budget with caps one above its rates."""

    name = "raw-fair"
    M, N = 9, 16

    def setup(self, dx, seed, workdir):
        rng = _rng(self.name, seed)
        pool = []
        for _ in range(POOL):
            inst = dx.generate_instance("raw", self.M, self.N, seed=int(rng.integers(2**31)))
            tables = [sorted(int(v) for v in rng.integers(1, 10, size=self.N)) for _ in range(self.M)]
            pool.append((inst, dx.TableCost(tables)))
        return pool

    def op(self, dx, entry):
        inst, table = entry
        oracle = dx.CutSetOracle(inst)
        fair = dx.FairCost()
        fair_opt = dx.min_cost(oracle, fair)
        table_opt = dx.min_cost(oracle, table)
        caps = tuple(r + 1 for r in fair_opt.allocation.rates)
        capped_value, capped = dx.eval_h(oracle, fair_opt.beta, fair, caps)
        return oracle, fair_opt, table_opt, caps, capped_value, capped

    def check(self, dx, entry, out):
        oracle, fair_opt, table_opt, caps, capped_value, capped = out
        return (
            _region_ok(dx, oracle, fair_opt.allocation)
            and _region_ok(dx, oracle, table_opt.allocation)
            and _region_ok(dx, oracle, capped, caps)
            and abs(capped_value - fair_opt.value) <= TOL
        )

    def record(self, entry, out):
        _, fair_opt, table_opt, _, capped_value, capped = out
        return [
            [a.beta, a.allocation.rates, a.allocation.tsets, a.value]
            for a in (fair_opt, table_opt)
        ] + [capped.rates, capped.tsets, capped_value]


class RlncCli:
    """In-process CLI round trip on an instance file written at set-up:
    randomized ``solve`` with a schedule, ``verify`` of that schedule,
    ``code`` at the solved rates, and ``decode`` for every user."""

    name = "rlnc-cli"
    M, N, Q = 6, 24, 17

    def setup(self, dx, seed, workdir):
        rng = _rng(self.name, seed)
        pool = []
        for j in range(POOL):
            inst = dx.generate_instance(
                "coded", self.M, self.N, dx.FieldSpec(self.Q), seed=int(rng.integers(2**31))
            )
            path = os.path.join(workdir, f"instance-{j}.json")
            dx.save_instance(inst, path)
            pool.append((path, str(int(rng.integers(2**31)))))
        return pool

    @staticmethod
    def _cli(dx, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dx.cli.main(argv)
        return code, out.getvalue()

    def op(self, dx, entry):
        path, seed = entry
        workdir = os.path.dirname(path)
        solved = os.path.join(workdir, "solve-schedule.json")
        coded = os.path.join(workdir, "code-schedule.json")
        runs = []
        runs.append(self._cli(dx, [
            "solve", path, "--cost", "fair", "--backend", "randomized",
            "--seed", seed, "--schedule-out", solved,
        ]))
        if runs[0][0] != 0:
            return runs, None
        rates = json.loads(runs[0][1])["payload"]["rates"]
        runs.append(self._cli(dx, ["verify", path, solved]))
        runs.append(self._cli(dx, [
            "code", path, "--rates", ",".join(map(str, rates)), "--seed", seed, "--out", coded,
        ]))
        for user in range(len(rates)):
            runs.append(self._cli(dx, ["decode", path, coded, "--user", str(user), "--seed", seed]))
        return runs, rates

    def check(self, dx, entry, out):
        runs, rates = out
        if rates is None or any(code != 0 for code, _ in runs):
            return False
        reports = [json.loads(text)["payload"] for _, text in runs]
        verified, coded, decoded = reports[1], reports[2], reports[3:]
        return (
            verified["all_ok"] is True
            and coded["rates"] == rates
            and len(decoded) == self.M
            and all(d["matches_truth"] is True for d in decoded)
        )

    def record(self, entry, out):
        runs, _ = out
        solved = json.loads(runs[0][1])["payload"]
        packets = json.loads(runs[3][1])["payload"]["packets"]
        return [solved["beta"], solved["rates"], solved["cost"], packets]


class SubgradSmall:
    """Fair ``eval_h`` with the subgradient coordinate engine at one unit
    above the instance's minimum sum rate."""

    name = "subgrad-small"
    M, N = 4, 6
    #: Instances are drawn from the common class with minimum sum rate 4
    #: (about three in four raw m=4, N=6 draws; the rest have 5).  Op time
    #: grows with the budget, so a mixed pool makes op latency bimodal with
    #: the split near the tail percentile.
    MIN_SUM_RATE = 4

    def setup(self, dx, seed, workdir):
        rng = _rng(self.name, seed)
        pool = []
        while len(pool) < POOL:
            inst = dx.generate_instance("raw", self.M, self.N, seed=int(rng.integers(2**31)))
            base = dx.min_sum_rate(dx.CutSetOracle(inst))
            if base == self.MIN_SUM_RATE:
                pool.append((inst, base + 1))
        return pool

    def op(self, dx, entry):
        inst, beta = entry
        oracle = dx.CutSetOracle(inst)
        return oracle, dx.eval_h(oracle, beta, dx.FairCost(), minimizer=dx.subgradient_minimizer())

    def check(self, dx, entry, out):
        inst, beta = entry
        oracle, (value, alloc) = out
        default_value, _ = dx.eval_h(dx.CutSetOracle(inst), beta, dx.FairCost())
        brute = dx.validate.brute_eval_h(oracle, dx.FairCost(), beta)
        return (
            alloc.beta == beta
            and brute is not None
            and abs(value - default_value) <= TOL
            and abs(value - brute[0]) <= TOL
        )

    def record(self, entry, out):
        _, (value, alloc) = out
        return [alloc.beta, alloc.rates, alloc.tsets, value]


WORKLOADS = {w.name: w for w in (CodedLinear(), RawFair(), RlncCli(), SubgradSmall())}
