"""Lossless JSON/CSV export of solutions, covers, curves, and clusterings.

Rationals are serialized as "num/den" strings so every file re-loads to the
exact same Fractions. Files are written atomically (temp file + rename) so a
crashed run never leaves a half-written artifact behind.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from fractions import Fraction

from .curves import PwlCurve
from .lp import LpSolution
from .objectives import CostLine
from .rationals import format_rat, parse_rat
from .sensitivity import LambdaInterval
from .sweeps import CoverFamily, CoverMember


def atomic_write_text(path, text: str) -> None:
    """Write text to path through a temporary file and a rename.

    The temporary file is created with mode 0o666, so the umask applies as it
    does for a plain `open`.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), ".tmp-" + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(obj, path) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def solution_to_dict(sol: LpSolution) -> dict:
    if not sol.exact:
        raise ValueError("only exact solutions serialize losslessly")
    return {
        "lambda": format_rat(sol.lam),
        "value": format_rat(sol.value),
        "P": format_rat(sol.line.P),
        "N": format_rat(sol.line.N),
        "x": [format_rat(v) for v in sol.x],
    }


def _json(v, kind, *keys):
    """v if it is a JSON object (dict) with every key or an array (list)."""
    if not isinstance(v, kind) or any(k not in v for k in keys):
        raise ValueError("expected a JSON %s" % ("array" if kind is list else
                         "object with keys " + ", ".join(keys)))
    return v


def solution_from_dict(d: dict, n=None) -> LpSolution:
    """Read a solution written by solution_to_dict; the dual is not stored.

    x is required: a solution is checked from its x, never from its stored
    line. Without n (an `lp solve --json` file) n is the node count whose
    pair count is the length of x. An x whose length is not C(n, 2) is
    rejected.
    """
    _json(d, dict, "lambda", "value", "P", "N", "x")
    x = tuple(parse_rat(v) for v in _json(d["x"], list))
    if n is None:
        n = (1 + math.isqrt(1 + 8 * len(x))) // 2
    if len(x) != n * (n - 1) // 2:
        raise ValueError("x has %d entries, need %d for n=%d"
                         % (len(x), n * (n - 1) // 2, n))
    line = CostLine(parse_rat(d["P"]), parse_rat(d["N"]))
    return LpSolution(n, parse_rat(d["lambda"]), x, parse_rat(d["value"]), line, ())


def interval_to_dict(iv: LambdaInterval) -> dict:
    d = {"lo": format_rat(iv.lo), "hi": format_rat(iv.hi)}
    if iv.lo_clamped:
        d["lo_clamped"] = True
    if iv.hi_clamped:
        d["hi_clamped"] = True
    return d


def interval_from_dict(d: dict, eps) -> LambdaInterval:
    _json(d, dict, "lo", "hi")
    clamps = [d.get(k, False) for k in ("lo_clamped", "hi_clamped")]
    if not all(isinstance(c, bool) for c in clamps):
        raise ValueError("lo_clamped and hi_clamped must be JSON booleans")
    return LambdaInterval(parse_rat(d["lo"]), parse_rat(d["hi"]), eps, *clamps)


def family_to_dict(fam: CoverFamily) -> dict:
    members = [
        dict(solution_to_dict(mem.solution),
             interval=interval_to_dict(mem.interval))
        for mem in fam.members
    ]
    out = {
        "epsilon": format_rat(fam.eps),
        "domain": [format_rat(fam.domain[0]), format_rat(fam.domain[1])],
        "members": members,
        "lp_solve_count": fam.lp_solve_count,
    }
    if fam.objective != "lamprime":
        out["objective"] = fam.objective
    if fam.algo:
        out["algo"] = fam.algo
    return out


def family_from_dict(d: dict, n: int) -> CoverFamily:
    _json(d, dict, "epsilon", "domain", "members", "lp_solve_count")
    eps = parse_rat(d["epsilon"])
    members = [
        CoverMember(solution_from_dict(md, n), interval_from_dict(md.get("interval"), eps))
        for md in _json(d["members"], list)
    ]
    if not all(0 < mem.solution.lam < 1 for mem in members):
        raise ValueError("every member lambda must lie in (0, 1)")
    lo, hi = _json(d["domain"], list)  # ValueError unless [lo, hi]
    count = d["lp_solve_count"]
    if type(count) is not int or count < 0:  # bool is an int subclass
        raise ValueError("lp_solve_count must be a nonnegative JSON integer")
    algo = d.get("algo", "")
    if algo not in ("", "geometric", "fe", "febe"):
        raise ValueError("algo must be geometric, fe or febe")
    return CoverFamily(
        tuple(members),
        eps,
        (parse_rat(lo), parse_rat(hi)),
        count,
        d.get("objective", "lamprime"),
        algo,
    )


def clustering_family_to_list(rounded) -> list:
    out = []
    for rm in rounded:
        ratio = "inf" if rm.ratio == math.inf else format_rat(rm.ratio)
        out.append(
            {
                "lambda_interval": interval_to_dict(rm.interval),
                "assignment": list(rm.clustering.assignment),
                "score": format_rat(rm.score),
                "lp_value": format_rat(rm.lp_value),
                "ratio": ratio,
            }
        )
    return out


def curve_csv_text(curve: PwlCurve) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["lambda_lo", "lambda_hi", "P", "N"])
    for p in curve.pieces:
        w.writerow([format_rat(p.lo), format_rat(p.hi), format_rat(p.line.P),
                    format_rat(p.line.N)])
    return buf.getvalue()


def write_curve_csv(curve: PwlCurve, path) -> None:
    atomic_write_text(path, curve_csv_text(curve))


def curve_samples(curve: PwlCurve, grid: int = 50) -> list:
    """(lambda, value) rows at piece endpoints plus a uniform grid.

    Ascending and without repeats; each point reads the first piece whose hi
    reaches it, the piece `PwlCurve.piece_at` would find. Grid point i is
    (a + i*w)/d in integers, merged in one pass with the breakpoints.
    """
    if grid < 1:
        raise ValueError("grid must be at least 1")
    lo, hi = curve.domain_lo, curve.domain_hi
    d = lo.denominator * hi.denominator * grid
    a = lo.numerator * hi.denominator * grid
    w = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    breaks = curve.breakpoints
    out = []
    pieces = iter(curve.pieces)
    piece = next(pieces)
    k = 0  # breaks[:k] are merged
    for x in range(a, a + (grid + 1) * w, w) if w else (a,):
        while k < len(breaks) and breaks[k].numerator * d < x * breaks[k].denominator:
            lam = breaks[k]
            k += 1
            if out and out[-1][0] == lam:  # a repeat, or the last grid point
                continue
            while piece.hi < lam:
                piece = next(pieces)
            out.append((lam, piece.line.value_at(lam)))
        while piece.hi.numerator * d < x * piece.hi.denominator:
            piece = next(pieces)
        P, N = piece.line.P, piece.line.N
        out.append((Fraction(x, d), Fraction(
            P.numerator * N.denominator * d + N.numerator * P.denominator * x,
            P.denominator * N.denominator * d)))
    return out


def write_samples_csv(curve: PwlCurve, path, grid: int = 50) -> None:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["lambda", "value"])
    for lam, val in curve_samples(curve, grid):
        w.writerow([format_rat(lam), format_rat(val)])
    atomic_write_text(path, buf.getvalue())


def assignments_to_list(family) -> list:
    """Exact-curve clustering family as a plain list of assignment arrays."""
    return [list(c.assignment) for c in family]
