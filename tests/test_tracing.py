"""The benchmark's tracer still finds every layer it wraps in the package."""
import importlib.util
from fractions import Fraction
from pathlib import Path

from lambdaprime import lp as lp_module
from lambdaprime import sensitivity
from lambdaprime import simplex
from lambdaprime.graphs import gen_ring


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_solver_layers():
    # binding_sites() looks up lp.solve_canonical, lp._solve_exact,
    # lp.build_lp, lp.verify_certificate and the rest by name, so a rename
    # fails here; the counts show that the package still calls them
    tracing = _tracing()
    g = gen_ring(3)
    with tracing.Tracer(tracing.binding_sites(), 0) as tr:
        # through the module: the tracer rebinds names inside the package
        lp_module.solve_lp(g, Fraction(1, 5))
        lp_module.lp_curve(g)
    # one growing tableau, which starts from no rows: ring8's 28 box rows
    # are bounds on its columns
    assert tr.calls["simplex.primal"] == 1
    assert tr.stats["simplex.primal.pivots"] > 0
    assert tr.stats["simplex.primal.rows"] == 0
    assert tr.calls["lp.solve_lp"] == 1 and tr.calls["lp.lp_curve"] == 1
    assert tr.calls["lp.build_lp"] >= 2
    assert tr.calls["sensitivity.verify_certificate"] >= 2
    assert lp_module.solve_canonical is simplex.solve_canonical


def test_tracer_counts_orlp():
    # eps_range reaches the simplex through solve_lp, so ORLP's solves
    # count as lp.solve_canonical's, the primal layer; the layer the tracer
    # keeps for sensitivity.solve_canonical reads 0
    tracing = _tracing()
    g = gen_ring(3)
    lam0 = Fraction(1, 5)
    sol = lp_module.solve_lp(g, lam0)
    pivots = []
    with tracing.Tracer(tracing.binding_sites(), 0) as tr:
        traced = lp_module.solve_canonical

        def counted(*args, **kwargs):
            res = traced(*args, **kwargs)
            pivots.append(res.pivots)
            return res

        lp_module.solve_canonical = counted
        try:
            sensitivity.eps_range(sol, lam0, Fraction(1, 2), g)
        finally:
            lp_module.solve_canonical = traced
    assert tr.calls["sensitivity.orlp"] == 2
    assert tr.calls["simplex.orlp"] == 0
    # a solve at each edge, and one Newton step from 0; x = 0 is optimal
    # at 0 before any pivot
    assert tr.calls["simplex.primal"] == tr.calls["lp.solve_lp"] == 3
    assert pivots == [7, 0, 20]
    assert tr.stats["simplex.primal.pivots"] == sum(pivots) == 27
    assert lp_module.solve_canonical is simplex.solve_canonical


def test_tracer_counts_every_pivot_of_the_tableau():
    # the cuts grow the tableau inside the one traced call, so the traced
    # pivots are the solution's own, dual simplex pivots included
    tracing = _tracing()
    with tracing.Tracer(tracing.binding_sites(), 0) as tr:
        sol = lp_module.solve_lp(gen_ring(3), Fraction(1, 5))
    assert tr.calls["simplex.primal"] == 1
    assert tr.stats["simplex.primal.pivots"] == sol.pivots == 26
