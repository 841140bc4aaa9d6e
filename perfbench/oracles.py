"""Reference checks for benchmark outputs that do not trust lambdaprime.

Every check reads the files or plain values an op produced and returns a list
of problems; an empty list means the op's output is correct. The checks use
their own LP model (solved with scipy's HiGHS), their own clustering scores
and their own parsing of the file formats, so a defect in the package cannot
hide itself by also corrupting the reference. In particular the pipeline check
does not rely on `lambdaprime verify cover`, which trusts each member's stored
(P, N) and accepts forged covers.
"""
from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

#: relative agreement required between an exact value and HiGHS
REL_TOL = 1e-7
#: random partitions tried against each exact curve
RANDOM_PARTITIONS = 200

_HIGHS_OPTS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class HighsLp:
    """The metric LP of one graph, built independently and solved by HiGHS.

    min sum_E x_uv + lam * sum_pairs (1 - x_uv)  s.t. triangle inequalities,
    0 <= x <= 1. Values are cached per lambda.
    """

    def __init__(self, n, edges):
        self.pairs = list(combinations(range(n), 2))
        idx = {p: k for k, p in enumerate(self.pairs)}
        self.is_edge = np.array([p in edges for p in self.pairs], dtype=float)
        data, rows, cols = [], [], []
        r = 0
        for i, j, k in combinations(range(n), 3):
            ij, ik, jk = idx[(i, j)], idx[(i, k)], idx[(j, k)]
            # x_a <= x_b + x_c for each side a of the triangle
            for a, b, c in ((ij, ik, jk), (ik, ij, jk), (jk, ij, ik)):
                rows += [r, r, r]
                cols += [a, b, c]
                data += [1.0, -1.0, -1.0]
                r += 1
        self.A = csr_matrix((data, (rows, cols)), shape=(r, len(self.pairs)))
        self.b = np.zeros(r)
        self._cache = {}

    def value(self, lam: Fraction) -> float:
        if lam not in self._cache:
            lf = float(lam)
            c = self.is_edge - lf
            res = linprog(c, A_ub=self.A, b_ub=self.b, bounds=(0, 1),
                          method="highs", options=_HIGHS_OPTS)
            if res.status != 0:
                raise RuntimeError("HiGHS failed at lambda=%s: %s" % (lam, res.message))
            self._cache[lam] = float(res.fun) + lf * len(self.pairs)
        return self._cache[lam]


def close(exact, ref: float) -> bool:
    return abs(float(exact) - ref) <= REL_TOL * max(1.0, abs(ref))


def score_line(assignment, edges):
    """(cut edges, co-clustered pairs) of a partition given as labels."""
    cut = sum(1 for u, v in edges if assignment[u] != assignment[v])
    sizes = {}
    for a in assignment:
        sizes[a] = sizes.get(a, 0) + 1
    together = sum(s * (s - 1) // 2 for s in sizes.values())
    return cut, together


def _check_domain(pieces, problems):
    if not pieces:
        problems.append("curve has no pieces")
        return False
    if pieces[0][0] != 0 or pieces[-1][1] != 1:
        problems.append("curve does not span [0, 1]")
    for (lo, hi, _, _), nxt in zip(pieces, pieces[1:] + [None]):
        if lo >= hi:
            problems.append("empty piece [%s, %s]" % (lo, hi))
        if nxt is not None and nxt[0] != hi:
            problems.append("pieces not contiguous at %s" % hi)
    return not problems


# -- pipeline: cover JSON and rounded JSON -----------------------------------

def check_cover(n, edges, cover: dict, lp: HighsLp) -> list:
    """Each member's x is a metric in [0,1] realizing its (P, N), and optimal."""
    problems = []
    members = cover.get("members") or []
    if not members:
        return ["cover has no members"]
    pairs = list(combinations(range(n), 2))
    idx = {p: k for k, p in enumerate(pairs)}
    for i, m in enumerate(members):
        lam = Fraction(m["lambda"])
        P, N, value = Fraction(m["P"]), Fraction(m["N"]), Fraction(m["value"])
        x = [Fraction(v) for v in m.get("x", [])]
        if len(x) != len(pairs):
            problems.append("member %d: x has %d entries, need %d" % (i, len(x), len(pairs)))
            continue
        if any(v < 0 or v > 1 for v in x):
            problems.append("member %d: x outside [0, 1]" % i)
        for a, b, c in combinations(range(n), 3):
            xab, xac, xbc = x[idx[(a, b)]], x[idx[(a, c)]], x[idx[(b, c)]]
            if xab > xac + xbc or xac > xab + xbc or xbc > xab + xac:
                problems.append("member %d: triangle (%d,%d,%d) violated" % (i, a, b, c))
                break
        px = sum(x[idx[e]] for e in edges)
        nx = len(pairs) - sum(x)
        if (px, nx) != (P, N):
            problems.append("member %d: stored (P, N) = (%s, %s) but x gives (%s, %s)"
                            % (i, P, N, px, nx))
        if value != P + lam * N:
            problems.append("member %d: value %s is not P + lam*N" % (i, value))
        ref = lp.value(lam)
        if not close(value, ref):
            problems.append("member %d: value %s but HiGHS optimum %.12g at lambda=%s"
                            % (i, value, ref, lam))
    return problems


def check_rounded(n, edges, cover: dict, rounded: list) -> list:
    """Each rounded score is its assignment's score and bounds its LP value."""
    members = cover.get("members") or []
    if len(rounded) != len(members):
        return ["%d rounded clusterings for %d members" % (len(rounded), len(members))]
    problems = []
    for i, (m, r) in enumerate(zip(members, rounded)):
        a = r["assignment"]
        if len(a) != n:
            problems.append("rounded %d: assignment has %d labels" % (i, len(a)))
            continue
        lam = Fraction(m["lambda"])
        cut, together = score_line(a, edges)
        score = cut + lam * together
        if Fraction(r["score"]) != score:
            problems.append("rounded %d: written score %s, assignment scores %s"
                            % (i, r["score"], score))
        if Fraction(r["lp_value"]) != Fraction(m["value"]):
            problems.append("rounded %d: lp_value differs from the member value" % i)
        if score < Fraction(m["value"]):
            problems.append("rounded %d: score %s below LP value %s" % (i, score, m["value"]))
    return problems


# -- lp-curve: piecewise-linear LP value curve --------------------------------

def check_lp_curve(pieces, lp: HighsLp) -> list:
    """HiGHS agrees with each piece's own line at its ends and midpoint."""
    problems = []
    if not _check_domain(pieces, problems):
        return problems
    for lo, hi, P, N in pieces:
        for lam in (lo, (lo + hi) / 2, hi):
            ref = lp.value(lam)
            if not close(P + lam * N, ref):
                problems.append("piece [%s, %s]: %s at lambda=%s, HiGHS %.12g"
                                % (lo, hi, P + lam * N, lam, ref))
    return problems


# -- opt-curve: exact optimum curve files -------------------------------------

def read_pieces_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["lambda_lo", "lambda_hi", "P", "N"]:
        raise ValueError("unexpected pieces CSV header")
    return [tuple(Fraction(v) for v in row) for row in rows[1:]]


def read_samples_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["lambda", "value"]:
        raise ValueError("unexpected samples CSV header")
    return [tuple(Fraction(v) for v in row) for row in rows[1:]]


def _curve_value(pieces, lam):
    for lo, hi, P, N in pieces:
        if lo <= lam <= hi:
            return P + lam * N
    raise ValueError("lambda %s outside the curve" % lam)


def check_opt_curve(n, edges, pieces, family, samples, rng, star=False) -> list:
    """Each piece is realized by its clustering; no partition beats the curve."""
    problems = []
    if not _check_domain(pieces, problems):
        return problems
    if len(family) != len(pieces):
        return ["%d clusterings for %d pieces" % (len(family), len(pieces))]
    for (lo, hi, P, N), a in zip(pieces, family):
        mid = (lo + hi) / 2
        cut, together = score_line(a, edges)
        if len(a) != n or cut + mid * together != P + mid * N:
            problems.append("piece [%s, %s]: clustering scores %s, curve %s"
                            % (lo, hi, cut + mid * together, P + mid * N))
    # a line lies above a concave piecewise-linear curve everywhere iff it
    # does at the curve's breakpoints and domain ends
    points = [(lam, _curve_value(pieces, lam)) for lam in
              [pieces[0][0]] + [p[1] for p in pieces]]
    for _ in range(RANDOM_PARTITIONS):
        a = [rng.randrange(n) for _ in range(n)]
        cut, together = score_line(a, edges)
        for lam, val in points:
            if cut + lam * together < val:
                problems.append("partition %s scores below the curve at lambda=%s" % (a, lam))
                break
    if star and len(pieces) != n - 1:
        problems.append("star on %d nodes gave %d pieces, expected %d"
                        % (n, len(pieces), n - 1))
    if not samples:
        problems.append("samples CSV is empty")
    for lam, val in samples:
        if _curve_value(pieces, lam) != val:
            problems.append("sample at lambda=%s reads %s" % (lam, val))
            break
    return problems


def digest(obj) -> str:
    """sha256 of a JSON-able value in canonical form."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()
