"""Region-growing rounding of fractional LP solutions."""
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from lambdaprime.analytic import star_lp_solution
from lambdaprime.graphs import gen_gnp, gen_path, gen_ring, gen_star
from lambdaprime.lp import LpSolution, pair_index, solve_lp
from lambdaprime.objectives import Clustering, lamcc_score, lamprime_score, line_of
from lambdaprime.rounding import build_clustering_family, round_region_growing
from lambdaprime.sweeps import sweep_geometric


def _solution_from_x(g, xs, lam):
    """Wrap a raw pair vector as an exact solution object."""
    _, idx = pair_index(g.n)
    xmap = {pair: xs[k] for pair, k in idx.items()}
    line = line_of(xmap, g)
    return LpSolution(g.n, F(lam), tuple(map(F, xs)), line.value_at(lam), line, ())


def _encode(c, n):
    pairs, _ = pair_index(n)
    return [0 if c.together(u, v) else 1 for u, v in pairs]


def test_integral_input_recovers_clustering():
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randint(3, 8)
        g = gen_gnp(n, 0.5, seed=100 + trial)
        c = Clustering(tuple(rng.randint(0, 2) for _ in range(n)))
        sol = _solution_from_x(g, _encode(c, n), F(1, 3))
        assert round_region_growing(sol, g) == c


def test_all_zero_vector_gives_single_cluster():
    g = gen_path(6)
    sol = _solution_from_x(g, [0] * 15, F(1, 4))
    c = round_region_growing(sol, g)
    assert c.num_clusters == 1


def test_star_half_solution():
    g = gen_star(5)
    xs, line, _ = star_lp_solution(5)
    lam = F(3, 10)
    sol = LpSolution(5, lam, xs, line.value_at(lam), line, ())
    assert sol.value == F(13, 5)
    c = round_region_growing(sol, g)
    # leaves sit at exactly 1/2 from the center, so no radius captures them
    assert c.num_clusters == 5
    score = lamprime_score(c, g, lam)
    assert score >= sol.value
    opt = F(14, 5)  # grow-center-to-three-leaves clustering
    assert score / opt <= 3 * math.log(6)


def test_rejects_triangle_violation():
    g = gen_path(3)
    bad = _solution_from_x(g, [0, 0, 0], F(1, 3))
    bad = replace(bad, x=(F(0), F(0), F(1)))
    with pytest.raises(ValueError):
        round_region_growing(bad, g)


def test_rejects_wrong_graph_size():
    g = gen_path(4)
    sol = _solution_from_x(g, [0] * 6, F(1, 3))
    with pytest.raises(ValueError):
        round_region_growing(sol, gen_path(5))


@pytest.mark.parametrize(
    "g,lam",
    [
        (gen_ring(3), F(1, 8)),
        (gen_ring(3), F(1, 5)),
        (gen_star(6), F(1, 3)),
        (gen_gnp(7, 0.5, seed=2), F(1, 4)),
        (gen_path(7), F(2, 5)),
    ],
    ids=["ring8-special", "ring8", "star6", "gnp7", "path7"],
)
def test_score_dominates_lp_value(g, lam):
    sol = solve_lp(g, lam)
    c = round_region_growing(sol, g)
    assert c.n == g.n
    assert lamprime_score(c, g, lam) >= sol.value


def test_deterministic():
    g = gen_gnp(8, 0.4, seed=5)
    sol = solve_lp(g, F(1, 5))
    assert round_region_growing(sol, g) == round_region_growing(sol, g)


def test_float_solution_rounds_too():
    g = gen_ring(3)
    sol = solve_lp(g, F(1, 5), mode="float")
    c = round_region_growing(sol, g)
    assert c.n == g.n
    assert float(lamprime_score(c, g, F(1, 5))) >= sol.value - 1e-6


def test_family_from_geometric_cover():
    g = gen_ring(3)
    cover = sweep_geometric(g, 1)
    fam = build_clustering_family(cover, g)
    assert len(fam) == len(cover.members)
    bound = 3 * math.log(g.n + 1)
    for rm, mem in zip(fam, cover.members):
        assert rm.interval == mem.interval
        assert rm.lam == mem.solution.lam
        assert rm.score >= rm.lp_value
        assert 1 <= rm.ratio <= bound
        assert rm.score == lamprime_score(rm.clustering, g, rm.lam)


def test_family_scaled_objective():
    g = gen_star(5)
    cover = sweep_geometric(g, 1, objective="lamcc")
    fam = build_clustering_family(cover, g)
    assert len(fam) == len(cover.members)
    for rm in fam:
        assert rm.lp_value == replace(rm).lp_value  # dataclass round-trips
        assert rm.score >= rm.lp_value
        assert rm.ratio >= 1
    for rm, mem in zip(fam, cover.members):
        assert rm.score == lamcc_score(rm.clustering, g, rm.lam)
        assert rm.lp_value == mem.solution.value - rm.lam * g.m


def test_family_of_size_one():
    g = gen_star(5)
    cover = sweep_geometric(g, 1)
    single = replace(cover, members=cover.members[:1])
    assert len(build_clustering_family(single, g)) == 1


def test_family_rejects_foreign_graph():
    cover = sweep_geometric(gen_star(5), 1)
    with pytest.raises(ValueError):
        build_clustering_family(cover, gen_ring(3))
