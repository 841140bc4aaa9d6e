"""Command-line interface.

Exit codes: 0 success, 2 argument parsing, 3 precondition violated,
4 verification failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .analytic import (MS_CONSTANT, ms_gamma, ring_lower_bound, ring_sandwich,
                       ring_special_lambdas)
from .exact import exact_opt_curve
from .graphs import gen_ring, gen_star, load_graph, save_graph
from .lp import solve_lp
from .rationals import parse_rat
from .rounding import build_clustering_family
from .serialize import (
    assignments_to_list,
    clustering_family_to_list,
    family_from_dict,
    family_to_dict,
    read_json,
    solution_to_dict,
    write_curve_csv,
    write_json,
    write_samples_csv,
)
from .simplex import SimplexError
from .sweeps import certify_cover, sweep_fe, sweep_febe, sweep_geometric


def _rational(text):
    try:
        return parse_rat(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a rational: %r" % text)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lambdaprime",
        description="Parametric graph clustering: exact curves, LP sweeps, "
        "covers, rounding, and ring/star oracles.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a generated graph as an edge list")
    gsub = gen.add_subparsers(dest="family", required=True)
    gring = gsub.add_parser("ring", help="cycle on 2^k nodes")
    gring.add_argument("--k", type=int, required=True)
    gring.add_argument("--out", required=True)
    gring.set_defaults(func=_cmd_gen_ring)
    gstar = gsub.add_parser("star", help="star on n nodes")
    gstar.add_argument("--n", type=int, required=True)
    gstar.add_argument("--out", required=True)
    gstar.set_defaults(func=_cmd_gen_star)

    curve = sub.add_parser("curve", help="exact optimal-value curves")
    csub = curve.add_subparsers(dest="kind", required=True)
    cexact = csub.add_parser(
        "exact", help="enumerate clusterings, emit the optimum curve"
    )
    cexact.add_argument("--graph", required=True)
    cexact.add_argument("--out", required=True, help="pieces CSV path")
    cexact.add_argument("--grid", type=int, default=50,
                        help="sample density for the companion samples CSV")
    cexact.set_defaults(func=_cmd_curve_exact)

    lp = sub.add_parser("lp", help="metric LP relaxation")
    lsub = lp.add_subparsers(dest="kind", required=True)
    lsolve = lsub.add_parser("solve", help="solve at one lambda, exactly")
    lsolve.add_argument("--graph", required=True)
    lsolve.add_argument("--lambda", dest="lam", type=_rational, required=True)
    lsolve.add_argument("--json", action="store_true",
                        help="emit full solution JSON instead of a summary")
    lsolve.set_defaults(func=_cmd_lp_solve)

    sweep = sub.add_parser("sweep", help="build a (1+eps) cover family")
    sweep.add_argument("--graph", required=True)
    sweep.add_argument("--epsilon", type=_rational, required=True)
    sweep.add_argument("--algo", choices=("geometric", "fe", "febe"),
                       default="geometric")
    sweep.add_argument("--objective", choices=("lamprime", "lamcc"),
                       default="lamprime")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    rnd = sub.add_parser("round", help="round a cover family to clusterings")
    rnd.add_argument("--cover", required=True)
    rnd.add_argument("--graph", required=True)
    rnd.add_argument("--out", required=True)
    rnd.set_defaults(func=_cmd_round)

    verify = sub.add_parser("verify", help="re-check certificates from scratch")
    vsub = verify.add_subparsers(dest="kind", required=True)
    vcover = vsub.add_parser("cover", help="coverage + worst-ratio audit")
    vcover.add_argument("--cover", required=True)
    vcover.add_argument("--graph", required=True)
    vcover.set_defaults(func=_cmd_verify_cover)
    vring = vsub.add_parser("ring", help="ring sandwich bounds on a grid")
    vring.add_argument("--k", type=int, required=True)
    vring.add_argument("--grid", type=int, default=50)
    vring.set_defaults(func=_cmd_verify_ring)

    bounds = sub.add_parser("bounds", help="analytic lower-bound calculator")
    bsub = bounds.add_subparsers(dest="kind", required=True)
    bring = bsub.add_parser("ring", help="minimum family size forced by rings")
    bring.add_argument("--k", type=int, required=True)
    bring.add_argument("--p", type=_rational, required=True)
    bring.set_defaults(func=_cmd_bounds_ring)

    return top


def _cmd_gen_ring(args) -> int:
    save_graph(gen_ring(args.k), args.out)
    print("wrote ring 2^%d -> %s" % (args.k, args.out))
    return 0


def _cmd_gen_star(args) -> int:
    save_graph(gen_star(args.n), args.out)
    print("wrote star n=%d -> %s" % (args.n, args.out))
    return 0


def _derived(path, suffix):
    root, _ = os.path.splitext(os.fspath(path))
    return root + suffix


def _cmd_curve_exact(args) -> int:
    if args.grid < 1:
        raise ValueError("grid must be at least 1")
    g = load_graph(args.graph)
    curve, family = exact_opt_curve(g)
    write_curve_csv(curve, args.out)
    fam_path = _derived(args.out, ".family.json")
    write_json(assignments_to_list(family), fam_path)
    samples_path = _derived(args.out, ".samples.csv")
    write_samples_csv(curve, samples_path, args.grid)
    print(
        "n=%d pieces=%d -> %s, %s, %s"
        % (g.n, len(curve.pieces), args.out, fam_path, samples_path)
    )
    return 0


def _cmd_lp_solve(args) -> int:
    g = load_graph(args.graph)
    sol = solve_lp(g, args.lam)
    if args.json:
        print(json.dumps(solution_to_dict(sol), indent=2))
    else:
        print(
            "lambda=%s value=%s P=%s N=%s pivots=%d"
            % (sol.lam, sol.value, sol.line.P, sol.line.N, sol.pivots)
        )
    return 0


def _cmd_sweep(args) -> int:
    g = load_graph(args.graph)
    if args.algo == "geometric":
        fam = sweep_geometric(g, args.epsilon, objective=args.objective)
    else:
        if args.objective != "lamprime":
            raise ValueError("algo %r supports only the lamprime objective"
                             % args.algo)
        runner = sweep_fe if args.algo == "fe" else sweep_febe
        fam = runner(g, args.epsilon)
    write_json(family_to_dict(fam), args.out)
    print(
        "%s cover: %d members, %d LP solves -> %s pivots=%d"
        % (args.algo, len(fam.members), fam.lp_solve_count, args.out,
           sum(m.solution.pivots for m in fam.members))
    )
    return 0


def _cmd_round(args) -> int:
    g = load_graph(args.graph)
    fam = family_from_dict(read_json(args.cover), g.n)
    rounded = build_clustering_family(fam, g)
    write_json(clustering_family_to_list(rounded), args.out)
    print("rounded %d members -> %s" % (len(rounded), args.out))
    return 0


def _cmd_verify_cover(args) -> int:
    g = load_graph(args.graph)
    fam = family_from_dict(read_json(args.cover), g.n)
    rep = certify_cover(fam, g)
    print("coverage gap: %s" % (rep.gap,))
    print(
        "worst ratio %s at lambda=%s (bound %s, %d points)"
        % (rep.worst_ratio, rep.worst_lambda, rep.bound, rep.points_checked)
    )
    if rep.member_fail is not None:
        i, lam = rep.member_fail
        print("FAIL: member %d (lambda=%s) exceeds %s times the LP value at "
              "lambda=%s, inside its own interval"
              % (i, fam.members[i].solution.lam, rep.bound, lam))
    if not rep.ok:
        print("FAIL: cover does not certify")
        return 4
    print("OK")
    return 0


def _cmd_verify_ring(args) -> int:
    if args.grid < 1:
        raise ValueError("grid must be at least 1")
    k = args.k
    lo, *_, hi = ring_special_lambdas(k)  # the ring lambda-domain [8/n^2, 1/2]
    slack = 1e-9
    for i in range(args.grid):
        lam = lo + (hi - lo) * i / (args.grid - 1) if args.grid > 1 else lo
        for name, a, b in ring_sandwich(k, lam):
            if a > b + slack * max(1.0, abs(b)):
                print("FAIL at lambda=%s: %s (%r > %r)" % (lam, name, a, b))
                return 4
    print("sandwich bounds hold on k=%d, %d-point grid" % (k, args.grid))
    return 0


def _cmd_bounds_ring(args) -> int:
    b = ring_lower_bound(args.k, args.p)  # checks p before gamma needs it
    gamma = ms_gamma(args.p * MS_CONSTANT)
    print("M = %.12g" % MS_CONSTANT)
    print("gamma(p*M) = %.12g" % gamma)
    print("B = %d" % b)
    return 0


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on first use and shared by every main
    call in the process: parse_args leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, SimplexError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
