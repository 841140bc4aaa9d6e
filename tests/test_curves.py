from fractions import Fraction

import pytest

from lambdaprime.curves import PwlCurve, PwlPiece, envelope_of
from lambdaprime.objectives import CostLine

L = Fraction


def test_single_line():
    c = envelope_of([CostLine(L(1), L(2))])
    assert len(c.pieces) == 1
    assert c.value_at(L(1, 2)) == L(2)
    assert c.breakpoints == []


def test_two_line_breakpoint():
    c = envelope_of([CostLine(L(0), L(28)), CostLine(L(4), L(0))])
    assert c.breakpoints == [L(1, 7)]
    assert c.value_at(L(1, 7)) == L(4)
    assert c.value_at(L(1, 14)) == L(2)
    assert c.value_at(L(1, 2)) == L(4)


def test_parallel_dominated_line_absent():
    c = envelope_of([CostLine(L(1), L(5)), CostLine(L(2), L(5)), CostLine(L(3), L(0))])
    assert all(p.line != CostLine(L(2), L(5)) for p in c.pieces)
    assert len(c.pieces) == 2


def test_middle_line_on_envelope():
    lines = [CostLine(L(0), L(10)), CostLine(L(1), L(4)), CostLine(L(3), L(0))]
    c = envelope_of(lines)
    assert [p.line for p in c.pieces] == lines
    assert c.breakpoints == [L(1, 6), L(1, 2)]


def test_middle_line_skipped_when_dominated():
    # line through the crossing of the outer two, shifted up: never active
    lines = [CostLine(L(0), L(10)), CostLine(L(2), L(5)), CostLine(L(3), L(0))]
    c = envelope_of(lines)
    assert len(c.pieces) == 2


def test_point_contact_line_contributes_no_piece():
    # middle line touches the envelope exactly at the outer crossing
    lines = [CostLine(L(0), L(10)), CostLine(L(5, 4), L(5)), CostLine(L(5, 2), L(0))]
    # outer crossing at lam=1/4 value 5/2; middle at 1/4: 5/4+5/4 = 5/2
    c = envelope_of(lines)
    assert len(c.pieces) == 2
    assert c.breakpoints == [L(1, 4)]


def test_duplicate_line_keeps_first_tag():
    lines = [CostLine(L(0), L(1)), CostLine(L(0), L(1))]
    c = envelope_of(lines, tags=["first", "second"])
    assert c.pieces[0].tag == "first"


def test_domain_clipping():
    lines = [CostLine(L(0), L(10)), CostLine(L(1), L(4)), CostLine(L(3), L(0))]
    c = envelope_of(lines, domain=(L(1, 4), L(2, 5)))
    assert c.domain_lo == L(1, 4) and c.domain_hi == L(2, 5)
    assert len(c.pieces) == 1
    assert c.pieces[0].line == CostLine(L(1), L(4))


def test_domain_requires_width():
    with pytest.raises(ValueError):
        envelope_of([CostLine(L(0), L(1))], domain=(L(1, 2), L(1, 2)))


def test_curve_validation():
    good = PwlPiece(CostLine(L(0), L(2)), L(0), L(1, 2))
    bad_gap = PwlPiece(CostLine(L(1), L(0)), L(3, 4), L(1))
    with pytest.raises(ValueError):
        PwlCurve((good, bad_gap), L(0), L(1))
    with pytest.raises(ValueError):
        PwlCurve((), L(0), L(1))


@pytest.mark.parametrize("pieces, domain, message", [
    # one piece on [0, 1/2] of a curve said to run to 1
    ([(0, 2, L(0), L(1, 2))], (L(0), L(1)), "pieces do not span the stated domain"),
    ([(0, 2, L(1, 4), L(1))], (L(0), L(1)), "pieces do not span the stated domain"),
    # a piece from 1/2 down to 1/4, on a domain said to run so too
    ([(0, 2, L(1, 2), L(1, 4))], (L(1, 2), L(1, 4)), "empty piece interval"),
    # continuous at 1/2 (both lines read 1), but the steeper line comes second
    ([(1, 0, L(0), L(1, 2)), (0, 2, L(1, 2), L(1))], (L(0), L(1)),
     "pieces not strictly concave-ordered"),
    # one line split in two is continuous but not strictly concave
    ([(1, 1, L(0), L(1, 2)), (1, 1, L(1, 2), L(1))], (L(0), L(1)),
     "pieces not strictly concave-ordered"),
], ids=["short_hi", "late_lo", "empty_piece", "convex_turn", "same_line"])
def test_curve_rejects_pieces_that_are_not_a_concave_tiling(pieces, domain, message):
    ps = tuple(PwlPiece(CostLine(L(P), L(N)), lo, hi) for P, N, lo, hi in pieces)
    with pytest.raises(ValueError, match="^%s$" % message):
        PwlCurve(ps, *domain)


def test_value_at_outside_domain():
    c = envelope_of([CostLine(L(0), L(1))], domain=(L(1, 4), L(1, 2)))
    with pytest.raises(ValueError):
        c.value_at(L(3, 4))


def test_random_envelopes_match_pointwise_min():
    import random

    rng = random.Random(3)
    for trial in range(40):
        lines = [
            CostLine(L(rng.randrange(0, 30), rng.randrange(1, 5)),
                     L(rng.randrange(0, 40), rng.randrange(1, 5)))
            for _ in range(rng.randrange(1, 12))
        ]
        c = envelope_of(lines)
        for _ in range(20):
            lam = L(rng.randrange(0, 101), 100)
            expect = min(ln.value_at(lam) for ln in lines)
            assert c.value_at(lam) == expect, (trial, lam)


def test_int_lines_break_at_exact_fraction():
    c = envelope_of([CostLine(0, 3), CostLine(2, 0)])
    assert c.breakpoints == [L(2, 3)]
    assert type(c.breakpoints[0]) is Fraction
    assert c.value_at(L(2, 3)) == 2


def test_tags_must_match_lines():
    lines = [CostLine(L(0), L(2)), CostLine(L(1), L(0))]
    for tags in (["a"], ["a", "b", "c"]):
        with pytest.raises(ValueError):
            envelope_of(lines, tags=tags)


def crossings_and_midpoints(lines):
    """0, 1, every crossing of two lines inside [0, 1], the midpoints between.

    Both the envelope and min(P + x*N) are linear between consecutive
    crossings, so agreeing at these points means agreeing on all of [0, 1].
    """
    xs = {L(0), L(1)}
    for i, a in enumerate(lines):
        for b in lines[:i]:
            if a.N != b.N:
                x = L(b.P - a.P) / L(a.N - b.N)
                if 0 <= x <= 1:
                    xs.add(x)
    xs = sorted(xs)
    return xs + [(u + v) / 2 for u, v in zip(xs, xs[1:])]


def assert_envelope_is_pointwise_min(lines):
    c = envelope_of(lines)
    for x in crossings_and_midpoints(lines):
        assert c.value_at(x) == min(ln.P + x * ln.N for ln in lines), (lines, x)


@pytest.mark.parametrize(
    "lines",
    [[(0, 4), (1, 2), (2, 0)],  # three lines through (1/2, 2)
     [(1, 4), (0, 4), (2, 1), (2, 1), (5, 1)],  # duplicate slopes and lines
     [(3, 4), (1, 2), (5, 0)],  # crossings at x = -1 and x = 2
     [(L(1, 3), L(3, 2)), (L(1, 2), L(1, 2)), (L(5, 9), L(1, 6))]],  # through (1/6, 7/12)
    ids=["three_concurrent", "duplicate_slopes", "cross_outside", "fractions"],
)
def test_envelope_matches_brute_force_named(lines):
    assert_envelope_is_pointwise_min([CostLine(P, N) for P, N in lines])


def test_envelope_matches_brute_force_random():
    import random

    rng = random.Random(25)
    for _ in range(300):
        k = rng.randrange(1, 9)
        ints = [CostLine(rng.randrange(-3, 8), rng.randrange(0, 7)) for _ in range(k)]
        fracs = [CostLine(L(rng.randrange(-6, 12), rng.randrange(1, 4)),
                          L(rng.randrange(0, 12), rng.randrange(1, 4)))
                 for _ in range(k)]
        assert_envelope_is_pointwise_min(ints)
        assert_envelope_is_pointwise_min(fracs)
