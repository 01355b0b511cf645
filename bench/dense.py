"""Dense graph(P) workloads: seeded inputs, timed library runs, and an oracle.

An instance is the Dirac structure E = graph(P) = {(P#a, a)} on Q^m, with
P = p(x) d0^d1 + d2^d3 (+ d4^d5).  With p = 1 the bivector is constant,
hence Poisson, and both the integrability and the module-property checks
must pass; with p = x2 it is not Poisson and both must fail.  E is
Lagrangian, so E' = E; the two frames are the same bundle mixed by two
different seeded unimodular polynomial matrices U (E rows = U * graph rows).

The mixing works block by block on the coordinate pairs (0,1), (2,3), ...
(the last block takes three coordinates when m is odd) with three row
operations per adjacent pair, each adding c * x_v times another row.  Three
operations are the fewest that leave no entry of U a nonzero constant, so
no frame entry can serve as a constant pivot and every membership test runs
the full polynomial path.  The operation pattern is fixed; the seed only
picks the coefficients c, so every seed gives the same monomial structure
and about the same cost.

The oracle uses its own sparse polynomials, its own Courant bracket and its
own Fraction elimination; it shares no code with bigiso.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction

SIZES = {"dense-pass": (4, 4, 5, 5, 5), "dense-fail": (4, 4, 4, 4)}
COEFFICIENTS = (1, 2, 3, -1, -2, -3)
ORACLE_POINTS = 3


# ---- sparse polynomials: {exponent tuple: nonzero Fraction} ----------------

def _const(m, c):
    return {(0,) * m: Fraction(c)} if c else {}


def _var(m, i, c=1):
    exps = [0] * m
    exps[i] = 1
    return {tuple(exps): Fraction(c)}


def _add(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _diff(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def _eval(p, point):
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term *= x**k
        total += term
    return total


def is_nonzero_constant(p) -> bool:
    return bool(p) and all(sum(e) == 0 for e in p)


# ---- construction --------------------------------------------------------

def bivector(m: int, poisson: bool) -> list:
    """Skew matrix of P: constant pairs, first coefficient x2 unless Poisson."""
    P = [[{} for _ in range(m)] for _ in range(m)]
    for a in range(0, m - 1, 2):
        c = _var(m, 2) if (a == 0 and not poisson) else _const(m, 1)
        P[a][a + 1] = c
        P[a + 1][a] = {e: -v for e, v in c.items()}
    return P


def blocks(m: int) -> list:
    out = [[i, i + 1] for i in range(0, m - 1, 2)]
    if m % 2:
        out[-1].append(m - 1)
    return out


def mixing(m: int, rng: random.Random, lower_first: bool) -> list:
    """Unimodular m x m polynomial matrix with no nonzero constant entry."""
    U = [[_const(m, int(i == j)) for j in range(m)] for i in range(m)]

    def op(i, j, v):
        mult = _var(m, v, rng.choice(COEFFICIENTS))
        U[i] = [_add(a, _mul(mult, b)) for a, b in zip(U[i], U[j])]

    for blk in blocks(m):
        n = len(blk)
        v = (blk[0] + 2) % m if lower_first else (blk[-1] + 1) % m
        lower = [(blk[i], blk[i - 1]) for i in range(n - 1, 0, -1)]
        upper = [(blk[i], blk[i + 1]) for i in range(n - 1)]
        last = (blk[-1], blk[-2]) if lower_first else (blk[0], blk[1])
        for i, j in (lower + upper if lower_first else upper + lower) + [last]:
            op(i, j, v)
    return U


def graph_rows(P: list, U: list) -> list:
    """Rows of U * [P | I]: the mixed frame (P#a, a) as 2m polynomials."""
    m = len(P)
    base = [P[l] + [_const(m, int(l == j)) for j in range(m)] for l in range(m)]
    rows = []
    for i in range(m):
        row = [{} for _ in range(2 * m)]
        for l in range(m):
            if U[i][l]:
                row = [_add(r, _mul(U[i][l], b)) for r, b in zip(row, base[l])]
        rows.append(row)
    return rows


@dataclass(frozen=True)
class Instance:
    m: int
    poisson: bool
    e_rows: tuple
    ep_rows: tuple
    points: tuple  # seeded rational points for the oracle


def make_instances(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}/{seed}")
    poisson = workload == "dense-pass"
    out = []
    for m in SIZES[workload]:
        P = bivector(m, poisson)
        e_rows = graph_rows(P, mixing(m, rng, True))
        ep_rows = graph_rows(P, mixing(m, rng, False))
        points = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m))
            for _ in range(ORACLE_POINTS)
        )
        out.append(Instance(m, poisson, tuple(e_rows), tuple(ep_rows), points))
    return out


def to_library(inst: Instance):
    """The instance as bigiso objects: (chart, E sections, E' sections)."""
    from bigiso.calculus import BigSection, Chart, PolyOneForm, PolyVectorField
    from bigiso.scalars import Polynomial

    chart = Chart(tuple(f"x{i}" for i in range(inst.m)))

    def section(row):
        polys = [Polynomial(chart.names, p) for p in row]
        return BigSection(
            PolyVectorField(chart, polys[: inst.m]), PolyOneForm(chart, polys[inst.m :])
        )

    return chart, [section(r) for r in inst.e_rows], [section(r) for r in inst.ep_rows]


# ---- timed library run -----------------------------------------------------

def _failed_pairs(verdict) -> frozenset:
    """Index pairs named by the failure messages, e.g. 'sections 0,1'."""
    pairs = set()
    for item in verdict.failures:
        message = item[0] if isinstance(item, tuple) else item
        ints = re.findall(r"\d+", str(message))
        pairs.add(tuple(int(t) for t in ints[:2]) if len(ints) >= 2 else str(message))
    return frozenset(pairs)


def run_instance(library) -> tuple:
    """Seconds from the start of build to the last verdict, and the verdicts."""
    from bigiso import structures

    chart, e_frame, ep_frame = library
    t0 = time.perf_counter()
    s = structures.BigIsotropicStructure.build(chart, e_frame, ep_frame)
    integrability = structures.check_integrability(s)
    module = structures.check_module_property(s)
    elapsed = time.perf_counter() - t0
    verdicts = {
        "integrability": (integrability.ok, _failed_pairs(integrability)),
        "module property": (module.ok, _failed_pairs(module)),
    }
    return elapsed, verdicts


# ---- independent oracle ------------------------------------------------------

def _rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class _Jet:
    """Values and first partials of a frame row at one point."""

    def __init__(self, row, point):
        m = len(point)
        self.X = [_eval(p, point) for p in row[:m]]
        self.a = [_eval(p, point) for p in row[m:]]
        self.dX = [[_eval(_diff(p, i), point) for p in row[:m]] for i in range(m)]
        self.da = [[_eval(_diff(p, i), point) for p in row[m:]] for i in range(m)]


def _courant_at(s: _Jet, t: _Jet) -> list:
    """([X,Y], L_X b - L_Y a + d(a(Y) - b(X))/2) at the point of the jets."""
    m = len(s.X)
    X, a, dX, da = s.X, s.a, s.dX, s.da
    Y, b, dY, db = t.X, t.a, t.dX, t.da
    vec = [sum(X[j] * dY[j][i] - Y[j] * dX[j][i] for j in range(m)) for i in range(m)]
    form = []
    for i in range(m):
        lx_b = sum(X[j] * db[j][i] + b[j] * dX[i][j] for j in range(m))
        ly_a = sum(Y[j] * da[j][i] + a[j] * dY[i][j] for j in range(m))
        d_f = sum(da[i][j] * Y[j] + a[j] * dY[i][j] - db[i][j] * X[j] - b[j] * dX[i][j] for j in range(m))
        form.append(lx_b - ly_a + d_f / 2)
    return vec + form


def oracle(inst: Instance) -> dict:
    """Bracket pairs that leave the frame: rank k+1 at some seeded point."""
    k = inst.m
    fails = {"integrability": set(), "module property": set()}
    for point in inst.points:
        e = [_Jet(r, point) for r in inst.e_rows]
        ep = [_Jet(r, point) for r in inst.ep_rows]
        e_vals = [j.X + j.a for j in e]
        ep_vals = [j.X + j.a for j in ep]
        if _rank(e_vals) != k or _rank(ep_vals) != k:
            raise ValueError(f"frame rank drop at {point}")
        for i in range(k):
            for j in range(i + 1, k):
                if _rank(e_vals + [_courant_at(e[i], e[j])]) > k:
                    fails["integrability"].add((i, j))
            for j in range(k):
                if _rank(ep_vals + [_courant_at(e[i], ep[j])]) > k:
                    fails["module property"].add((i, j))
    return {name: frozenset(pairs) for name, pairs in fails.items()}


def verdict_errors(inst: Instance, verdicts: dict, expected: dict) -> list:
    """Disagreements with the construction (Poisson or not) and the oracle."""
    errors = []
    for name, (ok, failed) in verdicts.items():
        if ok != inst.poisson:
            errors.append(f"m={inst.m} {name}: ok={ok}, construction says {inst.poisson}")
        if failed != expected[name]:
            errors.append(
                f"m={inst.m} {name}: reported failures {sorted(failed, key=str)}, "
                f"oracle finds {sorted(expected[name])}"
            )
    return errors
