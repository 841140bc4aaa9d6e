"""End-to-end command-line runs."""
import argparse
import contextlib
import io
import json
import os
import re
import shlex
from fractions import Fraction as F

import pytest

from lambdaprime import cli, serialize
from lambdaprime.cli import build_parser, main
from lambdaprime.graphs import (format_edgelist, gen_path, gen_ring, gen_star,
                                load_graph, save_graph)
from lambdaprime.lp import lp_curve, solve_lp
from lambdaprime.objectives import CostLine
from lambdaprime.rationals import GUARD
from lambdaprime.sweeps import sweep_febe


def test_gen_ring_and_star(tmp_path):
    ring_path = tmp_path / "ring.txt"
    assert main(["gen", "ring", "--k", "3", "--out", str(ring_path)]) == 0
    g = load_graph(ring_path)
    assert g.n == 8 and g.m == 8
    star_path = tmp_path / "star.txt"
    assert main(["gen", "star", "--n", "5", "--out", str(star_path)]) == 0
    g2 = load_graph(star_path)
    assert g2.n == 5 and g2.m == 4


def test_lp_solve_json(tmp_path, capsys):
    gpath = tmp_path / "ring.txt"
    main(["gen", "ring", "--k", "3", "--out", str(gpath)])
    capsys.readouterr()
    rc = main(["lp", "solve", "--graph", str(gpath), "--lambda", "1/8", "--json"])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert d["value"] == "7/2"
    assert len(d["x"]) == 28


def test_lp_solve_summary_line(tmp_path, capsys):
    gpath = tmp_path / "star.txt"
    main(["gen", "star", "--n", "5", "--out", str(gpath)])
    capsys.readouterr()
    assert main(["lp", "solve", "--graph", str(gpath), "--lambda", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "value=13/5" in out
    pivots = solve_lp(load_graph(gpath), F(3, 10)).pivots
    assert pivots > 0
    assert out.split()[-1] == "pivots=%d" % pivots


def test_sweep_summary_line(tmp_path, capsys):
    gpath = tmp_path / "star.txt"
    main(["gen", "star", "--n", "5", "--out", str(gpath)])
    capsys.readouterr()
    assert main(["sweep", "--graph", str(gpath), "--epsilon", "1/2",
                 "--algo", "febe", "--out", str(tmp_path / "cover.json")]) == 0
    out = capsys.readouterr().out
    fam = sweep_febe(load_graph(gpath), F(1, 2))
    pivots = sum(m.solution.pivots for m in fam.members)
    assert pivots > 0
    assert out.split()[-1] == "pivots=%d" % pivots


def test_sweep_then_verify_roundtrip(tmp_path):
    gpath = tmp_path / "ring.txt"
    main(["gen", "ring", "--k", "3", "--out", str(gpath)])
    cover = tmp_path / "cover.json"
    rc = main([
        "sweep", "--graph", str(gpath), "--epsilon", "1",
        "--algo", "geometric", "--out", str(cover),
    ])
    assert rc == 0
    rc = main([
        "verify", "cover", "--cover", str(cover), "--graph", str(gpath),
    ])
    assert rc == 0


def test_sweep_fe_and_febe(tmp_path):
    gpath = tmp_path / "ring.txt"
    main(["gen", "ring", "--k", "3", "--out", str(gpath)])
    for algo in ("fe", "febe"):
        out = tmp_path / ("%s.json" % algo)
        rc = main([
            "sweep", "--graph", str(gpath), "--epsilon", "1/2",
            "--algo", algo, "--out", str(out),
        ])
        assert rc == 0
        assert main([
            "verify", "cover", "--cover", str(out), "--graph", str(gpath),
        ]) == 0


def test_sweep_rejects_zero_epsilon(tmp_path):
    gpath = tmp_path / "star.txt"
    main(["gen", "star", "--n", "5", "--out", str(gpath)])
    rc = main([
        "sweep", "--graph", str(gpath), "--epsilon", "0", "--algo", "fe",
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 3


def test_cover_with_zero_epsilon_is_accepted(tmp_path):
    # epsilon 0 asks for exact optimality, which star5's geometric members
    # meet on their intervals once the first, solved at 4/25 and optimal up
    # to the LP curve's kink at 1/4, ends there instead of at 8/25
    gpath = tmp_path / "star.txt"
    main(["gen", "star", "--n", "5", "--out", str(gpath)])
    cover = tmp_path / "cover.json"
    main(["sweep", "--graph", str(gpath), "--epsilon", "1", "--algo", "geometric",
          "--out", str(cover)])
    d = json.loads(cover.read_text())
    d["epsilon"] = "0"
    assert d["members"][0]["interval"] == {"lo": "2/25", "hi": "8/25"}
    d["members"][0]["interval"]["hi"] = "1/4"
    cover.write_text(json.dumps(d))
    files = ["--cover", str(cover), "--graph", str(gpath)]
    assert main(["verify", "cover", *files]) == 0
    assert main(["round", *files, "--out", str(tmp_path / "c.json")]) == 0


def test_sweep_rejects_scaled_objective_for_fe(tmp_path):
    gpath = tmp_path / "star.txt"
    main(["gen", "star", "--n", "5", "--out", str(gpath)])
    rc = main([
        "sweep", "--graph", str(gpath), "--epsilon", "1", "--algo", "febe",
        "--objective", "lamcc", "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 3


def test_round_pipeline(tmp_path):
    gpath = tmp_path / "star.txt"
    main(["gen", "star", "--n", "5", "--out", str(gpath)])
    cover = tmp_path / "cover.json"
    main(["sweep", "--graph", str(gpath), "--epsilon", "1", "--out", str(cover)])
    out = tmp_path / "clusterings.json"
    rc = main(["round", "--cover", str(cover), "--graph", str(gpath),
               "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert len(rows) == len(json.loads(cover.read_text())["members"])
    for row in rows:
        assert sorted(set(row["assignment"]))[0] == 0
        assert F(row["score"]) >= F(row["lp_value"])


def test_verify_cover_detects_tampering(tmp_path):
    gpath = tmp_path / "ring.txt"
    main(["gen", "ring", "--k", "3", "--out", str(gpath)])
    cover = tmp_path / "cover.json"
    main(["sweep", "--graph", str(gpath), "--epsilon", "1", "--out", str(cover)])
    d = json.loads(cover.read_text())
    d["members"] = d["members"][:1]
    cover.write_text(json.dumps(d))
    rc = main(["verify", "cover", "--cover", str(cover), "--graph", str(gpath)])
    assert rc == 4


def _ring8_cover(tmp_path, *flags):
    gpath = tmp_path / "ring.txt"
    main(["gen", "ring", "--k", "3", "--out", str(gpath)])
    cover = tmp_path / "cover.json"
    main(["sweep", "--graph", str(gpath), "--epsilon", "1", "--out", str(cover),
          *flags])
    return gpath, cover, json.loads(cover.read_text())


def _zero_members(d):
    for m in d["members"]:
        m["P"] = m["N"] = m["value"] = "0"


def _one_stretched_member(d):
    m = d["members"][0]
    m["P"], m["N"], m["value"] = "0", "1", m["lambda"]
    m["interval"] = dict(d["members"][-1]["interval"], lo=d["domain"][0])
    d["members"] = [m]


def test_verify_cover_where_the_lp_value_vanishes_is_an_error(tmp_path, capsys):
    # domain [0, 1] without member 0: the LP value is 0 at 0, the envelope not
    gpath, cover, d = _ring8_cover(tmp_path)
    d["domain"] = ["0", "1"]
    d["members"] = d["members"][1:]
    cover.write_text(json.dumps(d))
    capsys.readouterr()
    rc = main(["verify", "cover", "--cover", str(cover), "--graph", str(gpath)])
    assert rc == 3
    assert capsys.readouterr().err == "error: LP value vanishes at 0; ratio undefined\n"


@pytest.mark.parametrize(
    "edges,flags",
    [("n 4\n", ["--algo", "geometric"]), ("n 4\n", ["--algo", "febe"]),
     ("n 3\n0 1\n", ["--objective", "lamcc"])],
    ids=["edgeless_geometric", "edgeless_febe", "lamcc_one_edge"],
)
def test_verify_cover_counts_zero_over_zero_as_one(tmp_path, capsys, edges, flags):
    gpath = tmp_path / "g.txt"
    gpath.write_text(edges)
    cover = tmp_path / "cover.json"
    assert main(["sweep", "--graph", str(gpath), "--epsilon", "1/2",
                 "--out", str(cover), *flags]) == 0
    lo = json.loads(cover.read_text())["domain"][0]
    capsys.readouterr()
    assert main(["verify", "cover", "--cover", str(cover), "--graph", str(gpath)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("worst ratio 1 at lambda=%s (bound 3/2," % lo)
    assert out[-1] == "OK"


def test_malformed_edge_list_is_an_error(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("n x\n0 1\n")
    rc = main(["lp", "solve", "--graph", str(gpath), "--lambda", "1/3"])
    assert rc == 3
    assert capsys.readouterr().err == "error: line 1: non-integer n in 'n x'\n"


@pytest.mark.parametrize("forge", [_zero_members, _one_stretched_member])
def test_verify_cover_rejects_forged_lines(tmp_path, forge):
    gpath, cover, d = _ring8_cover(tmp_path)
    forge(d)
    cover.write_text(json.dumps(d))
    rc = main(["verify", "cover", "--cover", str(cover), "--graph", str(gpath)])
    assert rc == 3


def test_verify_cover_rejects_member_without_x(tmp_path, capsys):
    gpath, cover, d = _ring8_cover(tmp_path)
    argv = ["verify", "cover", "--cover", str(cover), "--graph", str(gpath)]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "OK"
    del d["members"][0]["x"]
    cover.write_text(json.dumps(d))
    assert main(argv) == 3


def _unknown_objective(d):
    d["objective"] = "modularity"


def _reversed_domain(d):
    d["domain"] = ["1/2", "1/4"]


def _domain_past_one(d):
    d["domain"] = ["1/16", "2"]


def _repeated_member(d):
    d["members"].insert(1, d["members"][0])


def _no_epsilon(d):
    del d["epsilon"]


def _zero_denominator_epsilon(d):
    d["epsilon"] = "1/0"


def _numeric_epsilon(d):
    d["epsilon"] = 5


def _negative_epsilon(d):
    d["epsilon"] = "-3"


def _member_without_interval(d):
    del d["members"][0]["interval"]


def _top_level_list(d):
    return [d]


def _no_members(d):
    d["members"] = []


def _null_solve_count(d):
    d["lp_solve_count"] = None


def _string_clamp_flag(d):
    d["members"][0]["interval"]["lo_clamped"] = "false"


def _boolean_solve_count(d):
    d["lp_solve_count"] = True


def _member_lambda_past_one(d):
    # value = P + 5N keeps the member on its own line at its solve point
    m = d["members"][0]
    m.update({"lambda": "5", "value": str(F(m["P"]) + 5 * F(m["N"]))})


def _numeric_algo(d):
    d["algo"] = 5


def _member_without_x(d):
    # no x realizes this line: N = 29 exceeds the 28 pairs of ring8
    m = d["members"][0]
    del m["x"]
    m.update(P="0", N="29", value=str(29 * F(m["lambda"])))


@pytest.mark.parametrize("flags,forge", [
    (("--objective", "lamcc"), _unknown_objective),
    (("--algo", "febe"), _reversed_domain),
    ((), _repeated_member),
    ((), _no_epsilon),
    ((), _zero_denominator_epsilon),
    ((), _numeric_epsilon),
    ((), _member_without_interval),
    ((), _top_level_list),
    ((), _no_members),
    ((), _null_solve_count),
    ((), _string_clamp_flag),
    ((), _domain_past_one),
    ((), _boolean_solve_count),
    ((), _member_without_x),
    ((), _member_lambda_past_one),
    ((), _numeric_algo),
    ((), _negative_epsilon),
])
def test_malformed_cover_is_rejected(tmp_path, flags, forge):
    gpath, cover, d = _ring8_cover(tmp_path, *flags)
    forged = forge(d)  # a forge edits d in place or returns a new document
    cover.write_text(json.dumps(d if forged is None else forged))
    files = ["--cover", str(cover), "--graph", str(gpath)]
    assert main(["verify", "cover", *files]) == 3
    assert main(["round", *files, "--out", str(tmp_path / "c.json")]) == 3


@pytest.mark.parametrize("entry", ["0e5", "0E-5"])
def test_cover_with_exponent_text_is_rejected(tmp_path, capsys, entry):
    # the entry keeps the value 0 of the one it replaces, so the file is
    # refused for its text alone, before any number is built from it
    gpath, cover, d = _ring8_cover(tmp_path)
    assert d["members"][0]["x"][0] == "0"
    d["members"][0]["x"][0] = entry
    cover.write_text(json.dumps(d))
    files = ["--cover", str(cover), "--graph", str(gpath)]
    capsys.readouterr()
    assert main(["verify", "cover", *files]) == 3
    assert "exponent" in capsys.readouterr().err
    assert main(["round", *files, "--out", str(tmp_path / "c.json")]) == 3
    assert "exponent" in capsys.readouterr().err


def _one_point_all_ones(d):
    # x = 1 cuts every pair: value 8 at 1/2, where the LP value is 6
    m = d["members"][0]
    m.update({"lambda": "1/2", "x": ["1"] * 28, "P": "8", "N": "0", "value": "8",
              "interval": {"lo": "1/2", "hi": "1/2"}})
    d.update(domain=["1/2", "1/2"], epsilon="1/10", members=[m])


def _one_cluster_to_one(d):
    # x = 0 is one cluster, whose ratio to the LP grows with lambda: epsilon
    # admits it up to 1 - GUARD, but at 1 the ratio is 28/8 = 7/2
    t = 1 - GUARD
    ratio = CostLine(0, 28).value_at(t) / lp_curve(gen_ring(3)).value_at(t)
    assert ratio < F(7, 2)
    m = d["members"][0]
    m.update({"lambda": "1/16", "x": ["0"] * 28, "P": "0", "N": "28",
              "value": "7/4",
              "interval": {"lo": "1/16", "hi": "1/2", "hi_clamped": True}})
    d.update(epsilon=str(ratio - 1), members=[m])


def _one_member_stretched_to_one(d):
    # member 0, solved at 1/16, claims every lambda up to 1: its ratio is 7/3
    # at 1/2 and 7/2 at 1, past the bound 2, though the envelope of all the
    # members stays within it
    d["members"][0]["interval"].update(hi="1/2", hi_clamped=True)


@pytest.mark.parametrize("forge", [_one_point_all_ones, _one_cluster_to_one,
                                   _one_member_stretched_to_one])
def test_verify_cover_audits_the_closed_domain(tmp_path, capsys, forge):
    gpath, cover, d = _ring8_cover(tmp_path)
    forge(d)
    cover.write_text(json.dumps(d))
    capsys.readouterr()
    rc = main(["verify", "cover", "--cover", str(cover), "--graph", str(gpath)])
    assert rc == 4
    assert capsys.readouterr().out.splitlines()[0] == "coverage gap: None"


def test_round_rejects_forged_value(tmp_path):
    gpath, cover, d = _ring8_cover(tmp_path)
    d["members"][0]["value"] = "0"
    cover.write_text(json.dumps(d))
    rc = main(["round", "--cover", str(cover), "--graph", str(gpath),
               "--out", str(tmp_path / "c.json")])
    assert rc == 3


def test_curve_exact_outputs(tmp_path):
    gpath = tmp_path / "star.txt"
    main(["gen", "star", "--n", "5", "--out", str(gpath)])
    out = tmp_path / "curve.csv"
    rc = main(["curve", "exact", "--graph", str(gpath), "--out", str(out),
               "--grid", "10"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda_lo,lambda_hi,P,N"
    assert len(lines) == 1 + 4  # star n=5: exactly n-1 optimal clusterings
    fam = json.loads((tmp_path / "curve.family.json").read_text())
    assert len(fam) == 4
    assert all(len(a) == 5 for a in fam)
    samples = (tmp_path / "curve.samples.csv").read_text().splitlines()
    assert samples[0] == "lambda,value"
    assert len(samples) >= 12


@pytest.mark.parametrize("argv, g", [
    (["gen", "ring", "--k", "3"], gen_ring(3)),
    (["gen", "star", "--n", "5"], gen_star(5)),
], ids=["ring", "star"])
def test_gen_writes_atomically(tmp_path, monkeypatch, argv, g):
    # a write that fails before its rename leaves the old file whole and no
    # temporary file behind
    out = tmp_path / "g.txt"
    out.write_text("old\n")

    def crash(src, dst):
        raise OSError("disk full")

    with monkeypatch.context() as m:
        m.setattr(serialize.os, "replace", crash)
        assert main(argv + ["--out", str(out)]) == 3
    assert out.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["g.txt"]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == format_edgelist(g)


def _run(entry, argv):
    """(exit code, stdout) of entry(argv), an argparse exit included."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = entry(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def _fresh_main(argv):
    """main with a parser of its own, as every call once built it."""
    args = build_parser().parse_args(argv)
    return args.func(args)


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    builds = []
    real = cli.build_parser

    def counted():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    runs = [["bounds", "ring", "--k", "3", "--p", "1.1"],
            ["bounds", "ring", "--k", "three", "--p", "1.1"],  # exit 2
            ["verify", "ring", "--k", "3", "--grid", "5"]]
    got = [_run(main, argv) for argv in runs]
    capsys.readouterr()  # argparse's usage message on stderr
    assert got == [_run(_fresh_main, argv) for argv in runs]
    assert [rc for rc, _ in got] == [0, 2, 0]
    assert builds == [1]
    cli._parser.cache_clear()


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_curve_exact_rejects_empty_grid(tmp_path, grid):
    gpath = tmp_path / "star.txt"
    main(["gen", "star", "--n", "5", "--out", str(gpath)])
    rc = main(["curve", "exact", "--graph", str(gpath),
               "--out", str(tmp_path / "curve.csv"), "--grid", grid])
    assert rc == 3
    assert os.listdir(tmp_path) == ["star.txt"]


def test_curve_exact_cap(tmp_path):
    gpath = tmp_path / "big.txt"
    save_graph(gen_path(13), gpath)
    rc = main(["curve", "exact", "--graph", str(gpath),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 3


def test_verify_ring_sandwich():
    assert main(["verify", "ring", "--k", "3", "--grid", "50"]) == 0


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_verify_ring_rejects_empty_grid(grid, capsys):
    assert main(["verify", "ring", "--k", "3", "--grid", grid]) == 3
    assert "sandwich bounds hold" not in capsys.readouterr().out


def test_bounds_ring(capsys):
    assert main(["bounds", "ring", "--k", "3", "--p", "1.1"]) == 0
    out = capsys.readouterr().out
    assert "B = 1" in out


@pytest.mark.parametrize("p", ["1/2", "1"])
def test_bounds_ring_rejects_p_at_most_one(p, capsys):
    assert main(["bounds", "ring", "--k", "3", "--p", p]) == 3
    assert "approximation factor p must exceed 1" in capsys.readouterr().err


def test_missing_graph_file(tmp_path):
    rc = main(["lp", "solve", "--graph", str(tmp_path / "nope.txt"),
               "--lambda", "1/8"])
    assert rc == 3


def test_bad_rational_is_parse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--graph", "g", "--epsilon", "x/y", "--out", "o"])
    assert exc.value.code == 2


def test_unknown_command_is_parse_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


_README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _parser_options(parser):
    """Every --option string of parser and of all its subcommands."""
    opts = set()
    for action in parser._actions:
        opts.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                opts |= _parser_options(sub)
    return opts


def test_readme_cli_matches_parser():
    with open(_README) as fh:
        text = fh.read()
    commands = [line for line in text.splitlines()
                if line.startswith("lambdaprime ")]
    assert len(commands) >= 8
    for line in commands:
        build_parser().parse_args(shlex.split(line)[1:])
    # options of other programs (pip) are not ours to check
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", "\n".join(
        line for line in text.splitlines() if not line.startswith("pip "))))
    assert named and named <= _parser_options(build_parser())
