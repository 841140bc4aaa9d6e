"""End-to-end command-line runs."""
import json
from fractions import Fraction as F

import pytest

from lambdaprime.cli import main
from lambdaprime.graphs import gen_path, load_graph, save_graph
from lambdaprime.lp import solve_lp


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


def test_round_requires_vectors(tmp_path):
    gpath = tmp_path / "star.txt"
    main(["gen", "star", "--n", "5", "--out", str(gpath)])
    cover = tmp_path / "cover.json"
    main(["sweep", "--graph", str(gpath), "--epsilon", "1", "--out", str(cover),
          "--no-vectors"])
    rc = main(["round", "--cover", str(cover), "--graph", str(gpath),
               "--out", str(tmp_path / "c.json")])
    assert rc == 3


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


@pytest.mark.parametrize("forge", [_zero_members, _one_stretched_member])
def test_verify_cover_rejects_forged_lines(tmp_path, forge):
    gpath, cover, d = _ring8_cover(tmp_path)
    forge(d)
    cover.write_text(json.dumps(d))
    rc = main(["verify", "cover", "--cover", str(cover), "--graph", str(gpath)])
    assert rc == 3


def test_verify_cover_without_vectors_rejects_zero_lines(tmp_path):
    gpath, cover, d = _ring8_cover(tmp_path, "--no-vectors")
    _zero_members(d)
    cover.write_text(json.dumps(d))
    rc = main(["verify", "cover", "--cover", str(cover), "--graph", str(gpath)])
    assert rc == 4


def test_verify_cover_reports_coverage_only_without_vectors(tmp_path, capsys):
    gpath, cover, d = _ring8_cover(tmp_path)
    argv = ["verify", "cover", "--cover", str(cover), "--graph", str(gpath)]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "OK"
    del d["members"][0]["x"]
    cover.write_text(json.dumps(d))
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "OK (coverage only: members without x were not checked against the LP)")


def _unknown_objective(d):
    d["objective"] = "modularity"


def _reversed_domain(d):
    d["domain"] = ["1/2", "1/4"]


def _repeated_member(d):
    d["members"].insert(1, d["members"][0])


@pytest.mark.parametrize("flags,forge", [
    (("--objective", "lamcc"), _unknown_objective),
    (("--algo", "febe"), _reversed_domain),
    ((), _repeated_member),
])
def test_malformed_cover_is_rejected(tmp_path, flags, forge):
    gpath, cover, d = _ring8_cover(tmp_path, *flags)
    forge(d)
    cover.write_text(json.dumps(d))
    files = ["--cover", str(cover), "--graph", str(gpath)]
    assert main(["verify", "cover", *files]) == 3
    assert main(["round", *files, "--out", str(tmp_path / "c.json")]) == 3


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
