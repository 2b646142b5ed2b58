"""The four benchmark workloads: their inputs, the timed calls, output checks.

Every task is one public charclass call plus a check of its output.  Checks
run outside the timed region and rest on a theorem or a second route, never
on a timing.  Calls go through attributes of the ``charclass`` package at
call time, so the traced run's wrappers see them.

Why each workload (the mapping note in README.md gives the layer table):

* bott-verdict: boundary-grade dual-class verdicts (``scan-bott``,
  ``verify-main``); the dense sweep is most of the time.
* bott-table: every grade rendered (``class-table``); Poly conversion and
  formatting sit beside the sweeps.
* steenrod-generic: Kronecker duality off the main pattern; every Milnor
  term goes through ``normal_form``.
* witness: the paper's headline checks on the fast paths; it loads the
  chain-ring fold, the Dold grid product and ``top_class_bit``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Callable

import charclass as cc

@dataclass(frozen=True)
class Task:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    render: Callable[[object], str] = repr  # canonical text of an output


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: tuple[Task, ...]
    inputs: str  # canonical text of every generated input, in task order

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.inputs.encode()).hexdigest()[:16]


def _matrix_text(M: cc.BottMatrix) -> str:
    return f"{M.n}:{sorted(M.ones)}"


def _random_orientable(n: int, rng: random.Random, main_ok: bool = True) -> cc.BottMatrix:
    while True:
        M = cc.random_orientable_matrix(n, rng.getrandbits(32))
        if main_ok or not M.is_main_pattern:
            return M


# Inputs come from this fixed key; the run's seed sets the task order.  Task
# cost varies a lot between random inputs (up to 1000x between (matrix, z)
# pairs at n=12, 2x between matrices of one size in the Bott workloads), so a
# fresh sample per seed moved batch time and tail latency by 10-20% from seed
# to seed, more than the bounds in BENCHMARK.json could absorb.
INPUT_KEY = 0x5EED_2507


def _shuffled(tasks: list[Task], inputs: list[str], seed: int) -> tuple[list[Task], str]:
    order = list(range(len(tasks)))
    random.Random(seed).shuffle(order)
    return [tasks[i] for i in order], "\n".join(inputs[i] for i in order)


# -- bott-verdict --------------------------------------------------------------
#
# `scan-bott` checks one dimension per call, 16 random candidates by default.
# The workload keeps that shape, an equal number of candidates per dimension,
# scaled down so that a run holds four or more passes (see README.md).

VERDICT_DIMS, VERDICT_PER_DIM = (14, 15, 16, 17, 18), 1
VERDICT_WITNESSES = (17, 18, 19)
VERDICT_TINY = ((6, 7), 1, (5, 6))


def _past_boundary_bit(M: cc.BottMatrix) -> bool:
    """Nonvanishing of the dual class one grade past n - alpha_hat(n)."""
    grade = M.n - cc.alpha_hat(M.n) + 1
    return not cc.dual_sw(M, grade)[grade].is_zero()


def _direct_bit(n: int) -> bool:
    return cc.verify_main(n, method="direct", direct_cap=19).direct


def bott_verdict(seed: int, tiny: bool) -> Workload:
    rng = random.Random(INPUT_KEY)
    dims, per_dim, witnesses = (
        VERDICT_TINY if tiny else (VERDICT_DIMS, VERDICT_PER_DIM, VERDICT_WITNESSES)
    )
    tasks, inputs = [], []
    for n in dims:
        for _ in range(per_dim):
            M = _random_orientable(n, rng)
            # the bound: dual classes above n - alpha_hat(n) vanish
            tasks.append(Task(f"dual_sw random n={n}", lambda M=M: _past_boundary_bit(M),
                              lambda bit: bit is False))
            inputs.append(f"random {_matrix_text(M)}")
    # the first witness has n = 1 mod 4, where the Steenrod route also runs
    steenrod_bit = cc.verify_main(witnesses[0], method="steenrod").steenrod
    for n in witnesses:
        expected = steenrod_bit if n == witnesses[0] else True
        tasks.append(Task(f"verify_main direct n={n}", lambda n=n: _direct_bit(n),
                          lambda bit, e=expected: bit is True and bit == e))
        inputs.append(f"witness main n={n}")
    tasks, text = _shuffled(tasks, inputs, seed)
    return Workload("bott-verdict", tuple(tasks), text)


# -- bott-table ----------------------------------------------------------------
#
# Per dimension the main matrix and random ones, as many at every dimension.

TABLE_DIMS, TABLE_PER_DIM = (14, 15, 16, 17), 3
TABLE_TINY = ((6, 7), 2)


def _class_table(M: cc.BottMatrix) -> tuple:
    w = cc.total_sw(M)
    d = cc.dual_sw(M, M.n)
    pieces = [w[k] for k in range(M.n + 1)] + [d[k] for k in range(M.n + 1)]
    return pieces, [cc.format_poly(p) for p in pieces]


def _table_ok(M: cc.BottMatrix, out: tuple) -> bool:
    pieces, text = out
    n = M.n
    total, dual = pieces[: n + 1], pieces[n + 1 :]
    bound = n - cc.alpha_hat(n)
    return (
        total[1].is_zero()
        and all(dual[k].is_zero() for k in range(bound + 1, n + 1))
        and all(cc.parse_poly(s) == p for s, p in zip(text, pieces, strict=True))
    )


def bott_table(seed: int, tiny: bool) -> Workload:
    rng = random.Random(INPUT_KEY + 1)
    tasks, inputs = [], []
    dims, per_dim = TABLE_TINY if tiny else (TABLE_DIMS, TABLE_PER_DIM)
    for n in dims:
        matrices = [cc.main_matrix(n)] + [_random_orientable(n, rng) for _ in range(per_dim - 1)]
        for M in matrices:
            tasks.append(Task(f"class table n={n}", lambda M=M: _class_table(M),
                              lambda out, M=M: _table_ok(M, out),
                              lambda out: "\n".join(out[1])))
            inputs.append(_matrix_text(M))
    tasks, text = _shuffled(tasks, inputs, seed)
    return Workload("bott-table", tuple(tasks), text)


# -- steenrod-generic ----------------------------------------------------------
#
# Two kinds of task.  At k = n - alpha(n) with z of degree alpha(n), the grade
# k lies above the bound n - alpha_hat(n) for n = 10, 11, 12 (none is 1 mod 4),
# so the theorem makes every answer 0.  A chi_sq that lost its terms would
# pass those, so matrices whose dual class at the boundary grade
# k = n - alpha_hat(n) does not vanish also get a z of degree alpha_hat(n)
# that pairs to 1 with it, and a random one.  n = 12 has no boundary tasks:
# random n = 12 matrices have a vanishing boundary class.

GENERIC_DIMS, GENERIC_MATRICES, GENERIC_ZS = (10, 11, 12), 12, 3
GENERIC_SHARP_DIMS, GENERIC_SHARP_MATRICES = (10, 11), 4
GENERIC_TINY = ((5, 6), 2, 2, (6,), 1)


def _chi_sq_top(k: int, z: cc.Poly, M: cc.BottMatrix) -> int:
    return cc.top_coefficient(cc.chi_sq(k, z, M), M)


def _squarefree(n: int, degree: int) -> list[cc.Poly]:
    return [
        cc.Poly.of([cc.Monomial.from_exponents(dict.fromkeys(s, 1))])
        for s in itertools.combinations(range(1, n + 1), degree)
    ]


def steenrod_generic(seed: int, tiny: bool) -> Workload:
    rng = random.Random(INPUT_KEY + 2)
    dims, n_matrices, n_zs, sharp_dims, n_sharp = GENERIC_TINY if tiny else (
        GENERIC_DIMS, GENERIC_MATRICES, GENERIC_ZS, GENERIC_SHARP_DIMS, GENERIC_SHARP_MATRICES
    )
    tasks, inputs, bits = [], [], []

    def add(k: int, z: cc.Poly, M: cc.BottMatrix, expected: int) -> None:
        tasks.append(Task(f"chi_sq n={M.n} k={k}", lambda: _chi_sq_top(k, z, M),
                          lambda bit: bit == expected))
        inputs.append(f"{_matrix_text(M)} k={k} z={z}")
        bits.append(expected)

    for n in dims:
        k = n - cc.alpha(n)
        zs = _squarefree(n, cc.alpha(n))
        for _ in range(n_matrices):
            M = _random_orientable(n, rng, main_ok=False)
            wbar_k = cc.dual_sw(M, k)[k]
            for z in rng.sample(zs, n_zs):
                # Kronecker duality: <chi(Sq^k) z, [M]> = <wbar_k z, [M]>
                add(k, z, M, cc.top_coefficient(wbar_k * z, M))
    for n in sharp_dims:
        k = n - cc.alpha_hat(n)
        zs = _squarefree(n, cc.alpha_hat(n))
        found = 0
        while found < n_sharp:
            M = _random_orientable(n, rng, main_ok=False)
            wbar_k = cc.dual_sw(M, k)[k]
            if wbar_k.is_zero():
                continue
            found += 1
            rng.shuffle(zs)
            # squarefree monomials span the cohomology, so Poincare duality
            # gives a partner of the nonzero class among them
            partner = next(z for z in zs if cc.top_coefficient(wbar_k * z, M))
            add(k, partner, M, 1)
            z = rng.choice(zs)
            add(k, z, M, cc.top_coefficient(wbar_k * z, M))
    if not (0 in bits and 1 in bits):
        raise AssertionError("steenrod-generic: expected bits are all alike")
    tasks, text = _shuffled(tasks, inputs, seed)
    return Workload("steenrod-generic", tuple(tasks), text)


# -- witness -------------------------------------------------------------------
#
# The paper's headline checks, a fixed list.
# Zero-product cases stop at n=25: at n=29 one part-a case is refused by the
# default budget and another takes seconds.

KEY_PS, MAIN_NS, ZERO_NS = (2, 3, 4, 5), tuple(range(1, 30, 4)), (5, 9, 13, 17, 21, 25)
SCANS = ((9, 2), (15, 2), (17, 2), (23, 2), (31, 3))  # (dimension, max_r)
WITNESS_TINY = ((2, 3), (1, 5, 9), (5, 9, 13), ((9, 2),))


def dold_witnesses() -> list[cc.DoldSpec]:
    """The 21 witness-family specs of acceptance criterion 8."""
    specs = [cc.DoldSpec(2**e - 3, (2,)) for e in range(2, 7)]
    specs += [cc.DoldSpec(2**e - 1, (2, 2**f)) for e in range(2, 5) for f in range(e, 5)]
    specs += [
        cc.DoldSpec(2**e - 1, (2, 2**f, 2**g))
        for e in range(2, 6) for f in range(e, 6) for g in range(f + 1, 6)
    ]
    return specs


def _zero_cases(n: int) -> list[tuple[str, tuple[int, ...]]]:
    r = (n - 1).bit_count()
    cases = [("a", (n, i, j)) for j in range(1, r + 1) for i in range(1, j)]
    return cases + [("b", (n, j)) for j in range(1, r + 1)]


def _report_text(report) -> str:
    return report.to_json()


def witness(seed: int, tiny: bool) -> Workload:
    ps, ns, zero_ns, scans = WITNESS_TINY if tiny else (KEY_PS, MAIN_NS, ZERO_NS, SCANS)
    specs = dold_witnesses()
    if tiny:
        specs = specs[:3]
    tasks, inputs = [], []
    for p in ps:
        tasks.append(Task(f"verify_key p={p}", lambda p=p: cc.verify_key(p, workers=1),
                          lambda r, p=p: r.verified and r.nonzero == 2 ** (p * (p - 1)),
                          _report_text))
        inputs.append(f"key p={p}")
    for n in ns:
        tasks.append(Task(f"verify_main steenrod n={n}",
                          lambda n=n: cc.verify_main(n, method="steenrod"),
                          lambda r: r.verified, _report_text))
        inputs.append(f"main steenrod n={n}")
    for n in zero_ns:
        for part, args in _zero_cases(n):
            fn = f"verify_zero_{part}"
            tasks.append(Task(f"{fn} n={n}", lambda fn=fn, args=args: getattr(cc, fn)(*args),
                              lambda ok: ok is True))
            inputs.append(f"{fn}{args}")
    for spec in specs:
        tasks.append(Task(f"verify_dold N={spec.dimension}", lambda s=spec: cc.verify_dold(s),
                          lambda r: r.verified, _report_text))
        inputs.append(f"dold {spec.to_json()}")
    for dim, max_r in scans:
        family = {s for s in dold_witnesses() if s.dimension == dim}
        tasks.append(Task(f"scan_dold N={dim}", lambda d=dim, r=max_r: cc.scan_dold(d, r),
                          lambda found, fam=family: fam <= set(found),
                          lambda found: repr([s.to_json() for s in found])))
        inputs.append(f"scan dim={dim} max_r={max_r}")
    tasks, text = _shuffled(tasks, inputs, seed)
    return Workload("witness", tuple(tasks), text)


BUILDERS = {
    "bott-verdict": bott_verdict,
    "bott-table": bott_table,
    "steenrod-generic": steenrod_generic,
    "witness": witness,
}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, tiny)
