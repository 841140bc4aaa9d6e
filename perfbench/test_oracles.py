"""Self-test of the benchmark's reference checks.

    python3 -m pytest perfbench

Each forged output must be counted as a failed op, and the genuine output of
the same op must pass.
"""
import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402
from workloads import Op  # noqa: E402

# a 7-node graph whose covers and curves have several members and pieces
EDGES = {(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6), (1, 5)}


def make(cls, tmp_path):
    wl = cls(0, str(tmp_path))
    wl._add("g7", 7, EDGES)
    return wl


def counted_failed(wl, op, result):
    tally = run.Tally()
    tally.record(op, wl.check(op, result)[0])
    return tally.failed == 1


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    wl = make(workloads.Pipeline, tmp_path_factory.mktemp("pipeline"))
    op = Op("g7/febe", "g7", "febe")
    result = wl.run(op)
    with open(wl.file(op, ".cover.json")) as fh:
        cover = json.load(fh)
    assert len(cover["members"]) >= 2
    return wl, op, result, cover


def write_cover(wl, op, cover):
    with open(wl.file(op, ".cover.json"), "w") as fh:
        json.dump(cover, fh)


def test_genuine_pipeline_op_passes(pipeline):
    wl, op, result, cover = pipeline
    write_cover(wl, op, cover)
    assert wl.check(op, result)[0] == []


def test_forged_cover_all_zero_fails(pipeline):
    wl, op, result, cover = pipeline
    forged = json.loads(json.dumps(cover))
    for m in forged["members"]:
        m["P"] = m["N"] = m["value"] = "0"
    write_cover(wl, op, forged)
    try:
        assert counted_failed(wl, op, result)
    finally:
        write_cover(wl, op, cover)


def test_forged_cover_stretched_member_fails(pipeline):
    wl, op, result, cover = pipeline
    forged = json.loads(json.dumps(cover))
    m = forged["members"][0]
    m["interval"] = {"lo": forged["domain"][0], "hi": "1048575/1048576",
                     "lo_clamped": True, "hi_clamped": True}
    m["P"], m["N"] = "0", "1"
    m["value"] = str(Fraction(m["lambda"]))
    write_cover(wl, op, forged)
    try:
        assert counted_failed(wl, op, result)
    finally:
        write_cover(wl, op, cover)


def fake_curve(pieces):
    return SimpleNamespace(pieces=[
        SimpleNamespace(lo=lo, hi=hi, line=SimpleNamespace(P=P, N=N))
        for lo, hi, P, N in pieces])


def test_lp_curve_shifted_breakpoint_fails(tmp_path):
    wl = make(workloads.LpCurve, tmp_path)
    op = Op("g7", "g7")
    result = wl.run(op)
    assert wl.check(op, result)[0] == []
    pieces = [(p.lo, p.hi, p.line.P, p.line.N) for p in result["curve"].pieces]
    assert len(pieces) >= 2
    (lo0, b, P0, N0), (_, hi1, P1, N1) = pieces[0], pieces[1]
    shifted = (b + hi1) / 2
    forged = [(lo0, shifted, P0, N0), (shifted, hi1, P1, N1)] + pieces[2:]
    assert counted_failed(wl, op, {"curve": fake_curve(forged)})


def test_exact_curve_wrong_piece_fails(tmp_path):
    wl = make(workloads.OptCurve, tmp_path)
    op = Op("g7", "g7")
    result = wl.run(op)
    assert wl.check(op, result)[0] == []
    path = wl.file(op, ".csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) >= 3
    lo, hi, P, N = lines[2].split(",")
    lines[2] = ",".join((lo, hi, str(Fraction(P) + 1), N))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert counted_failed(wl, op, result)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_reference_checks_its_answer():
    from reference import Reference, is_solution

    ref = Reference()
    assert ref.time() > 0 and ref.correct()
    wrong = list(ref.x)
    wrong[0] += 1
    assert not is_solution(ref.rows, wrong)
