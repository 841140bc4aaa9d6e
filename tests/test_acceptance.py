"""Acceptance suite: twelve pinned criteria, one test (and one -v line) each.

Exact criteria use Fraction comparisons with zero tolerance; float criteria
state their tolerance inline. Timed criteria assert their wall-clock budget.
"""
import itertools
import math
import random
import time
from dataclasses import replace
from fractions import Fraction as F

from lambdaprime.analytic import (
    MS_CONSTANT,
    lamcc_ratio,
    lamcc_schedule,
    ms_gamma,
    ring_g,
    ring_lower_bound,
    ring_lp,
    ring_q,
    ring_special_lambdas,
)
from lambdaprime.exact import scaled_sparsest_cut
from lambdaprime.graphs import gen_ring, gen_star
from lambdaprime.lp import solve_lp
from lambdaprime.objectives import (
    Clustering,
    lamcc_score,
    lamprime_score,
    weighted_lamprime_score,
)
from lambdaprime.rationals import GUARD, ceil_log, floor_log
from lambdaprime.rounding import build_clustering_family
from lambdaprime.sensitivity import eps_range, orlp
from lambdaprime.sweeps import certify_cover, sweep_fe, sweep_febe


def test_criterion_01_optimal_family_bound(corpus, cache):
    """Breakpoints <= |E|, P strictly increasing, first breakpoint = lam*."""
    t0 = time.monotonic()
    assert len(corpus) >= 30
    for name, g in corpus:
        curve, family = cache.opt_curve(name, g)
        assert len(curve.breakpoints) <= g.m, name
        ps = [p.line.P for p in curve.pieces]
        assert all(a < b for a, b in zip(ps, ps[1:])), name
        assert curve.breakpoints[0] == scaled_sparsest_cut(g)[0], name
        assert len(family) == len(curve.pieces)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print("criterion 01 PASS: %d graphs, %.1fs" % (len(corpus), elapsed))


def test_criterion_02_star_tightness(cache):
    """Star n in 4..9: exactly n-1 pieces, leaves merge one at a time."""
    for n in range(4, 10):
        g = gen_star(n)
        curve, family = cache.opt_curve("star%d" % n, g)
        assert len(curve.pieces) == n - 1, n
        for j, c in enumerate(family):
            blocks = sorted(c.blocks(), key=len, reverse=True)
            assert len(blocks[0]) == n - j
            assert 0 in blocks[0]
            assert all(len(b) == 1 for b in blocks[1:])
    print("criterion 02 PASS: stars 4..9 give families of size n-1")


def test_criterion_03_ring_closed_form():
    """Simplex == closed form: exact on k=3, 1e-8 relative in float on k=4."""
    t0 = time.monotonic()
    g8 = gen_ring(3)
    lo, hi = F(1, 8), F(1, 2)
    for i in range(25):
        lam = lo + (hi - lo) * i / 24
        assert solve_lp(g8, lam).value == ring_lp(3, lam)[0], lam
    g16 = gen_ring(4)
    lo = F(8, 256)
    worst = 0.0
    for i in range(25):
        lam = lo + (hi - lo) * i / 24
        got = solve_lp(g16, lam, mode="float").value
        want = float(ring_lp(4, lam)[0])
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print("criterion 03 PASS: k=3 exact, k=4 float rel err %.2e, %.1fs"
          % (worst, elapsed))


def test_criterion_04_special_lambda_coincidence(cache):
    """At lam_i: closed form == g within 1e-9, == OPT exactly, blocks optimal."""
    g = gen_ring(3)
    curve, _ = cache.opt_curve("ring8", g)
    for i, lam in enumerate(ring_special_lambdas(3), start=1):
        lp_val = ring_lp(3, lam)[0]
        assert abs(float(lp_val) - ring_g(3, lam)) <= 1e-9
        assert curve.value_at(lam) == lp_val
        t = 2 ** (3 - i)
        blocks = [list(range(j * t, (j + 1) * t)) for j in range(8 // t)]
        c = Clustering.from_blocks(blocks, 8)
        assert lamprime_score(c, g, lam) == lp_val
    print("criterion 04 PASS: lam_i coincidence and block optimality on k=3")


def test_criterion_05_sandwich_bounds():
    """q <= g <= lp <= sqrt2*g <= (4*sqrt2/3)*q on 200-point grids, 1e-9 rel."""
    s2 = math.sqrt(2)
    slack = 1e-9
    for k in (3, 4, 5):
        n = 2 ** k
        lo, hi = F(8, n * n), F(1, 2)
        for i in range(200):
            lam = lo + (hi - lo) * i / 199
            q = ring_q(k, lam)
            gv = ring_g(k, lam)
            lpv = float(ring_lp(k, lam)[0])
            chain = [(q, gv), (gv, lpv), (lpv, s2 * gv), (s2 * gv, MS_CONSTANT * q)]
            for a, b in chain:
                assert a <= b + slack * max(1.0, abs(b)), (k, lam, a, b)
    print("criterion 05 PASS: sandwich holds on k=3,4,5 (200-point grids)")


def test_criterion_06_geometric_cover(corpus, cache):
    """Size <= floor_log(1+eps, n) + 2 and exact worst ratio <= 1+eps."""
    worst = F(0)
    for name, g in corpus:
        curve = cache.lp_curve(name, g)
        for eps in (F(1, 2), F(1)):
            fam = cache.geometric_cover(name, g, eps)
            assert len(fam.members) <= floor_log(1 + eps, g.n) + 2, name
            rep = certify_cover(fam, g, curve=curve)
            assert rep.ok, (name, eps, rep.gap, rep.worst_ratio)
            assert rep.worst_ratio <= 1 + eps, (name, eps)
            worst = max(worst, rep.worst_ratio / (1 + eps))
    print("criterion 06 PASS: %d graphs x 2 eps, worst ratio/(1+eps) = %s"
          % (len(corpus), worst))


def test_criterion_07_orlp_ranges(corpus, cache):
    """eps=0 ranges equal envelope breakpoints; nesting and sharpness hold."""
    qualifying = 0
    for name, g in corpus:
        if qualifying >= 10:
            break
        lpc = cache.lp_curve(name, g)
        opt, _ = cache.opt_curve(name, g)
        for piece in lpc.pieces:
            mid = (piece.lo + piece.hi) / 2
            if not (0 < mid < 1) or opt.value_at(mid) != piece.line.value_at(mid):
                continue
            sol = solve_lp(g, mid)
            if sol.line != piece.line:
                continue
            rng = eps_range(sol, mid, 0, g)
            assert rng.lo == (piece.lo if piece.lo > 0 else GUARD), name
            assert rng.hi == (piece.hi if piece.hi < 1 else 1 - GUARD), name
            assert rng.lo_clamped == (piece.lo == 0)
            assert rng.hi_clamped == (piece.hi == 1)
            qualifying += 1
            break
    assert qualifying >= 10
    eps = F(1, 2)
    for name, g in corpus:
        lam0 = F(2, 5)
        sol = solve_lp(g, lam0)
        r0 = eps_range(sol, lam0, 0, g)
        r1 = eps_range(sol, lam0, eps, g)
        assert r1.lo <= r0.lo and r0.hi <= r1.hi, name
        lpc = cache.lp_curve(name, g)
        if not r1.hi_clamped:
            probe = r1.hi + min(GUARD, (1 - r1.hi) / 2)
            assert sol.line.value_at(probe) > (1 + eps) * lpc.value_at(probe), name
        if not r1.lo_clamped:
            probe = r1.lo - min(GUARD, r1.lo / 2)
            assert sol.line.value_at(probe) > (1 + eps) * lpc.value_at(probe), name
    print("criterion 07 PASS: %d coincident ranges; nesting+sharpness on %d graphs"
          % (qualifying, len(corpus)))


def _widened_fe_intervals(fe, g):
    out = []
    for m in fe.members:
        theta, clamped = orlp(m.solution, -1, m.solution.lam, fe.eps, g)
        out.append(
            replace(m.interval, lo=m.solution.lam - theta, lo_clamped=clamped)
        )
    return out


def _brute_min_cover_size(widened, domain):
    lo, hi = domain
    for k in range(1, len(widened) + 1):
        for combo in itertools.combinations(widened, k):
            cur = lo
            for iv in sorted(combo, key=lambda v: v.covered_lo()):
                if iv.covered_lo() > cur:
                    break
                cur = max(cur, iv.covered_hi())
            if cur >= hi:
                return k
    return len(widened)


def test_criterion_08_fe_febe_bounds(corpus, cache):
    """FE size bound; FEBE = certified minimum subcover; star fringe bound."""
    for name, g in corpus:
        curve = cache.lp_curve(name, g)
        for eps in (F(1, 2), F(1)):
            fe = sweep_fe(g, eps)
            assert len(fe.members) <= ceil_log(1 + eps, g.n), (name, eps)
            febe = sweep_febe(g, eps)
            assert len(febe.members) <= len(fe.members)
            rep = certify_cover(febe, g, curve=curve)
            assert rep.ok, (name, eps)
            fe_keys = {(m.solution.lam, m.solution.line) for m in fe.members}
            assert all(
                (m.solution.lam, m.solution.line) in fe_keys for m in febe.members
            ), name
            assert len(fe.members) <= 20
            widened = _widened_fe_intervals(fe, g)
            assert len(febe.members) == _brute_min_cover_size(widened, febe.domain)
    for n in range(4, 10):
        g = gen_star(n)
        for eps in (F(1, 4), F(1, 2), F(1)):
            fe = sweep_fe(g, eps)
            febe = sweep_febe(g, eps)
            assert len(febe.members) <= 3, (n, eps)
            assert len(febe.members) <= len(fe.members)
    print("criterion 08 PASS: FE/FEBE bounds on %d graphs x 2 eps + stars"
          % len(corpus))


def test_criterion_09_transfer_bounds(corpus, cache):
    """Cross-evaluation obeys delta = lam_hi/lam_lo; lamcc schedule gives 1+eps."""
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        name, g = corpus[rng.randrange(len(corpus))]
        curve = cache.lp_curve(name, g)
        da, db = rng.randint(3, 59), rng.randint(3, 59)
        la = F(rng.randint(1, da - 1), da)
        lb = F(rng.randint(1, db - 1), db)
        if la == lb:
            continue
        lt, ln = min(la, lb), max(la, lb)
        delta = ln / lt
        xt = curve.piece_at(lt).tag
        xn = curve.piece_at(ln).tag
        assert xt.line.value_at(ln) <= delta * curve.value_at(ln), (name, lt, ln)
        assert xn.line.value_at(lt) <= delta * curve.value_at(lt), (name, lt, ln)
        checked += 1
    eps = F(1, 2)
    for name, g in corpus[:8]:
        curve = cache.lp_curve(name, g)
        sched = lamcc_schedule(g.n, eps)
        for a, b in zip(sched, sched[1:]):
            assert lamcc_ratio(a, b) == 1 + eps
            xa = curve.piece_at(a).tag
            transferred = xa.line.value_at(b) - b * g.m
            lcc = curve.value_at(b) - b * g.m
            assert transferred <= (1 + eps) * lcc, (name, a, b)
    print("criterion 09 PASS: 200 random transfers + lamcc schedule on 8 graphs")


def test_criterion_10_objective_identity(corpus):
    """lamprime = lamcc + lam*m and unit weights = unweighted, exactly."""
    rng = random.Random(4242)
    total = 0
    for name, g in corpus:
        ones = {v: 1 for v in range(g.n)}
        for _ in range(1000):
            c = Clustering(tuple(rng.randrange(g.n) for _ in range(g.n)))
            den = rng.randint(2, 97)
            lam = F(rng.randint(1, den - 1), den)
            lp = lamprime_score(c, g, lam)
            assert lp == lamcc_score(c, g, lam) + lam * g.m
            assert weighted_lamprime_score(c, g, ones, lam) == lp
            total += 1
    print("criterion 10 PASS: %d exact identity samples" % total)


def test_criterion_11_rounding_pipeline(corpus, cache):
    """Rounded eps=1 covers: valid partitions, score >= LP, OPT ratio bounded."""
    t0 = time.monotonic()
    worst = 0.0
    for name, g in corpus:
        cover = cache.geometric_cover(name, g, F(1))
        opt, _ = cache.opt_curve(name, g)
        bound = 3 * math.log(g.n + 1)
        for rm in build_clustering_family(cover, g):
            c = rm.clustering
            assert c.n == g.n
            assert sorted(set(c.assignment)) == list(range(c.num_clusters))
            assert rm.score >= rm.lp_value, (name, rm.lam)
            ratio_opt = rm.score / opt.value_at(rm.lam)
            assert ratio_opt <= bound, (name, rm.lam, ratio_opt)
            worst = max(worst, float(ratio_opt / bound))
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print("criterion 11 PASS: worst OPT-ratio/bound %.3f, %.1fs" % (worst, elapsed))


def test_criterion_12_lower_bound_calculator():
    """B nondecreasing in k; gamma(sqrt2) = (3+2*sqrt2)^2 within 1e-9."""
    want = (3 + 2 * math.sqrt(2)) ** 2
    assert abs(ms_gamma(math.sqrt(2)) - want) <= 1e-9 * want
    for p in (F(11, 10), F(3, 2), 2):
        vals = [ring_lower_bound(k, p) for k in range(3, 16)]
        assert all(a <= b for a, b in zip(vals, vals[1:])), p
    print("criterion 12 PASS: B monotone, gamma(sqrt2) matches")
