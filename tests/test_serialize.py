"""Round-trip serialization of solutions, covers, curves, clusterings."""
import json
import os
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdaprime.curves import PwlCurve, PwlPiece
from lambdaprime.graphs import gen_ring, gen_star, save_graph
from lambdaprime.lp import LpSolution, lp_curve, solve_lp
from lambdaprime.objectives import CostLine
from lambdaprime.rationals import ceil_log, floor_log, format_rat, parse_rat
from lambdaprime.rounding import build_clustering_family
from lambdaprime.serialize import (
    atomic_write_text,
    clustering_family_to_list,
    curve_csv_text,
    curve_samples,
    family_from_dict,
    family_to_dict,
    read_json,
    solution_from_dict,
    solution_to_dict,
    write_json,
    write_samples_csv,
)
from lambdaprime.sensitivity import LambdaInterval
from lambdaprime.sweeps import CoverFamily, CoverMember, certify_cover, sweep_geometric


def test_solution_round_trip():
    g = gen_ring(3)
    sol = solve_lp(g, F(1, 8))
    d = solution_to_dict(sol)
    assert d["lambda"] == "1/8" and d["value"] == "7/2"
    back = solution_from_dict(json.loads(json.dumps(d)))
    assert back.n == 8 and back.lam == sol.lam and back.value == sol.value
    assert back.x == sol.x and back.line == sol.line


def test_float_solution_refused():
    sol = solve_lp(gen_star(4), F(1, 3), mode="float")
    with pytest.raises(ValueError):
        solution_to_dict(sol)


def test_family_round_trip_preserves_certification(tmp_path):
    g = gen_star(5)
    fam = sweep_geometric(g, 1)
    path = tmp_path / "cover.json"
    write_json(family_to_dict(fam), path)
    back = family_from_dict(read_json(path), g.n)
    assert back.eps == fam.eps and back.domain == fam.domain
    assert back.lp_solve_count == fam.lp_solve_count
    assert back.algo == fam.algo == "geometric"
    assert len(back.members) == len(fam.members)
    for a, b in zip(back.members, fam.members):
        assert a.interval == replace(b.interval, eps=fam.eps)
        assert a.solution.x == b.solution.x
        assert a.solution.line == b.solution.line
    assert certify_cover(back, g).ok


def test_family_wrong_length_x_rejected():
    d = family_to_dict(sweep_geometric(gen_star(4), 1))
    d["members"][0]["x"] = d["members"][0]["x"][:-1]
    with pytest.raises(ValueError):
        family_from_dict(d, 4)


_RATS = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6)
_UNIT = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6).filter(
    lambda v: 0 < v < 1)


@st.composite
def _families(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    eps = draw(st.fractions(min_value=0, max_value=4, max_denominator=100).filter(bool))
    members = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        x = tuple(draw(_RATS) for _ in range(n * (n - 1) // 2))
        line = CostLine(draw(_RATS), draw(_RATS))
        sol = LpSolution(n, draw(_UNIT), x, draw(_RATS), line, ())
        lo, hi = sorted((draw(_UNIT), draw(_UNIT)))
        iv = LambdaInterval(lo, hi, eps, lo_clamped=draw(st.booleans()),
                            hi_clamped=draw(st.booleans()))
        members.append(CoverMember(sol, iv))
    members.sort(key=lambda m: m.interval.lo)
    lo_d, hi_d = sorted((draw(_UNIT), draw(_UNIT)))
    return CoverFamily(
        tuple(members), eps, (lo_d, hi_d), draw(st.integers(0, 10 ** 4)),
        draw(st.sampled_from(["lamprime", "lamcc"])),
        draw(st.sampled_from(["", "geometric", "fe", "febe"])),
    )


@settings(derandomize=True, deadline=None, max_examples=60)
@given(fam=_families())
def test_family_round_trip_is_lossless(fam):
    for mem in fam.members:
        # an `lp solve --json` dict carries x and no n
        sd = json.loads(json.dumps(solution_to_dict(mem.solution)))
        assert solution_from_dict(sd) == mem.solution
    d = json.loads(json.dumps(family_to_dict(fam)))
    assert family_from_dict(d, fam.members[0].solution.n) == fam


def test_family_member_without_x_rejected():
    d = family_to_dict(sweep_geometric(gen_star(4), 1))
    assert "objective" not in d
    del d["members"][0]["x"]
    with pytest.raises(ValueError):
        family_from_dict(d, 4)


def test_family_scaled_objective_key():
    fam = sweep_geometric(gen_star(4), 1, objective="lamcc")
    d = family_to_dict(fam)
    assert d["objective"] == "lamcc"
    assert family_from_dict(d, 4).objective == "lamcc"


def test_clustering_family_schema():
    g = gen_star(5)
    cover = sweep_geometric(g, 1)
    rows = clustering_family_to_list(build_clustering_family(cover, g))
    assert len(rows) == len(cover.members)
    for row in rows:
        assert set(row) == {"lambda_interval", "assignment", "score",
                            "lp_value", "ratio"}
        assert len(row["assignment"]) == 5
        assert F(row["score"]) >= F(row["lp_value"])


def test_curve_csv_frozen_star5():
    curve = lp_curve(gen_star(5))
    text = curve_csv_text(curve)
    assert text.splitlines() == [
        "lambda_lo,lambda_hi,P,N",
        "0,1/4,0,10",
        "1/4,1,2,2",
    ]


def test_curve_samples_cover_endpoints_and_breaks():
    curve = lp_curve(gen_star(5))
    pts = dict(curve_samples(curve, grid=4))
    for lam in (F(0), F(1, 4), F(1, 2), F(1)):
        assert lam in pts
    assert pts[F(1, 4)] == F(5, 2)
    assert all(curve.value_at(k) == v for k, v in pts.items())


def test_curve_samples_needs_a_grid():
    curve = lp_curve(gen_star(5))
    with pytest.raises(ValueError, match="^grid must be at least 1$"):
        curve_samples(curve, 0)
    assert curve_samples(curve, 1)[0] == (F(0), F(0))


def set_and_sort_samples(curve, grid):
    # the definition: endpoints, breakpoints and grid points, each once
    lo, hi = curve.domain_lo, curve.domain_hi
    pts = {lo, hi}
    pts.update(curve.breakpoints)
    step = F(hi - lo, grid)
    pts.update(lo + i * step for i in range(grid + 1))
    return [(lam, curve.piece_at(lam).line.value_at(lam)) for lam in sorted(pts)]


def random_curve(rng, grid):
    # a concave curve on [lo, hi] inside (0, 4), some breakpoints on grid
    # points, some off the grid, some repeated (a piece of width 0)
    lo = F(rng.randrange(0, 30), rng.randrange(1, 10))
    hi = lo + F(rng.randrange(1, 30), rng.randrange(1, 10))
    step = (hi - lo) / grid
    breaks = []
    for _ in range(rng.randrange(0, 6)):
        if rng.random() < 0.5 and grid > 1:
            breaks.append(lo + rng.randrange(1, grid) * step)
        else:
            breaks.append(lo + (hi - lo) * F(rng.randrange(1, 97), 97))
    if lo > 0 and rng.random() < 0.2:
        breaks.append(lo)
    breaks.sort()
    if breaks and rng.random() < 0.2:
        j = rng.randrange(len(breaks))
        breaks.insert(j, breaks[j])
    line = CostLine(F(rng.randrange(0, 9), rng.randrange(1, 4)), F(rng.randrange(40, 60)))
    pieces, a = [], lo
    for b in breaks:
        pieces.append(PwlPiece(line, a, b))
        slope = line.N - rng.randrange(1, 5)
        line = CostLine(line.value_at(b) - b * slope, slope)
        a = b
    pieces.append(PwlPiece(line, a, hi))
    return PwlCurve(tuple(pieces), lo, hi)


def test_curve_samples_match_set_and_sort():
    import random

    rng = random.Random(28)
    for _ in range(400):
        grid = rng.randrange(1, 61)
        curve = random_curve(rng, grid)
        assert curve_samples(curve, grid) == set_and_sort_samples(curve, grid), curve
    point = PwlCurve((PwlPiece(CostLine(F(1), F(2)), F(1, 3), F(1, 3)),), F(1, 3), F(1, 3))
    assert curve_samples(point, 4) == [(F(1, 3), F(5, 3))]


def test_samples_csv_unchanged_on_corpus(corpus, cache, tmp_path):
    for name, g in corpus:
        curve, _ = cache.opt_curve(name, g)
        for grid in (1, 7, 50):
            path = tmp_path / ("%s.%d.csv" % (name, grid))
            write_samples_csv(curve, path, grid)
            want = "lambda,value\r\n" + "".join(
                "%s,%s\r\n" % (format_rat(lam), format_rat(v))
                for lam, v in set_and_sort_samples(curve, grid))
            assert path.read_bytes() == want.encode(), (name, grid)


def test_atomic_write_replaces_whole_file(tmp_path):
    p = tmp_path / "out.txt"
    p.write_text("old")
    atomic_write_text(p, "new contents\n")
    assert p.read_text() == "new contents\n"
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")] == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_follow_the_umask(tmp_path, umask):
    # the mode a plain open() gives: 0o666 less the umask
    old = os.umask(umask)
    try:
        write_json({"a": 1}, tmp_path / "out.json")
        save_graph(gen_ring(3), tmp_path / "ring8.txt")
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    for name in ("out.json", "ring8.txt", "plain.txt"):
        assert os.stat(tmp_path / name).st_mode & 0o777 == 0o666 & ~umask, name


@pytest.mark.parametrize("text", ["1e5", "1E5", " 2e-3 ", "0e0", "1/2e1"])
def test_parse_rat_refuses_exponents(text):
    # '1e999999999' would otherwise build a billion-digit integer
    with pytest.raises(ValueError, match="exponent"):
        parse_rat(text)


def test_parse_rat_reads_fractions_and_decimals():
    assert parse_rat("0.3") == F(3, 10)
    assert parse_rat(" -3/10 ") == F(-3, 10)
    assert parse_rat("7") == 7
    with pytest.raises(ValueError):
        parse_rat("3/0")


def test_floor_and_ceil_log_below_one():
    assert (floor_log(2, F(1, 3)), ceil_log(2, F(1, 3))) == (-2, -1)
    assert (floor_log(2, F(1, 4)), ceil_log(2, F(1, 4))) == (-2, -2)
    assert (floor_log(F(3, 2), F(1, 2)), ceil_log(F(3, 2), F(1, 2))) == (-2, -1)
    assert (floor_log(F(3, 2), F(4, 9)), ceil_log(F(3, 2), F(4, 9))) == (-2, -2)
    # against the definition, on both sides of 1
    for base in (2, 3, F(3, 2), F(11, 10)):
        for x in (F(1, 100), F(1, 7), F(2, 3), F(9, 10), F(1), F(5, 4), F(50)):
            js = range(-60, 60)
            assert floor_log(base, x) == max(j for j in js if F(base) ** j <= x)
            assert ceil_log(base, x) == min(j for j in js if F(base) ** j >= x)
