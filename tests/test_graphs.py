import os
from fractions import Fraction

import pytest

from lambdaprime import serialize
from lambdaprime.graphs import (
    Graph,
    cut_size,
    format_edgelist,
    gen_gnp,
    gen_path,
    gen_ring,
    gen_star,
    is_connected,
    load_graph,
    make_graph,
    parse_edgelist,
    save_graph,
)


def test_gen_ring_basic():
    g = gen_ring(3)
    assert g.n == 8 and g.m == 8
    assert all(d == 2 for d in g.degrees())
    assert g.has_edge(7, 0)


def test_gen_ring_small_and_large():
    assert gen_ring(2).n == 4
    g = gen_ring(4)
    assert g.n == 16 and g.m == 16
    with pytest.raises(ValueError):
        gen_ring(1)


def test_gen_star():
    g = gen_star(5)
    d = g.degrees()
    assert d[0] == 4 and d[1:] == [1, 1, 1, 1]
    assert gen_star(3).m == 2
    assert gen_star(8).m == 7
    with pytest.raises(ValueError):
        gen_star(2)


def test_gen_path():
    g = gen_path(4)
    assert g.m == 3 and is_connected(g)


def test_gnp_deterministic():
    a = gen_gnp(8, 0.5, seed=11)
    b = gen_gnp(8, 0.5, seed=11)
    assert a == b
    assert all(0 <= u < v < 8 for u, v in a.edges)


def test_degree_sum_is_2m():
    for g in [gen_ring(3), gen_star(7), gen_path(6), gen_gnp(9, 0.4, seed=3)]:
        assert sum(g.degrees()) == 2 * g.m


def test_parse_basics():
    g = parse_edgelist("0 1\n1 2")
    assert g.n == 3 and g.m == 2
    g = parse_edgelist("# c\nn 4\n0 1")
    assert g.n == 4 and g.m == 1


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_edgelist("0 0")
    with pytest.raises(ValueError):
        parse_edgelist("0 1\n1 0")  # duplicate edge
    with pytest.raises(ValueError):
        parse_edgelist("n 2\n0 3")
    with pytest.raises(ValueError):
        parse_edgelist("0 x")
    with pytest.raises(ValueError):
        parse_edgelist("# nothing here")


@pytest.mark.parametrize("text, message", [
    ("n x\n0 1", "line 1: non-integer n in 'n x'"),
    ("n 3\nn 3\n0 1", "line 2: duplicate n header"),
    ("# c\nn\n0 1", "line 2: malformed header 'n'"),
    ("n 0", "line 1: n must be positive"),
    ("0 1\n1 2 3", "line 2: expected 'u v', got '1 2 3'"),
    ("n 3\n0 -1", "line 2: negative node index"),
])
def test_parse_errors_name_their_line(text, message):
    with pytest.raises(ValueError) as exc:
        parse_edgelist(text)
    assert str(exc.value) == message


def test_save_graph_is_atomic(tmp_path, monkeypatch):
    # a write that fails before its rename leaves the old file whole and no
    # temporary file behind
    out = tmp_path / "g.txt"
    out.write_text("old\n")

    def crash(src, dst):
        raise OSError("disk full")

    with monkeypatch.context() as m:
        m.setattr(serialize.os, "replace", crash)
        with pytest.raises(OSError, match="disk full"):
            save_graph(gen_ring(3), out)
    assert out.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["g.txt"]
    save_graph(gen_ring(3), out)
    assert load_graph(out) == gen_ring(3)
    assert out.read_text() == format_edgelist(gen_ring(3))


def test_roundtrip_byte_identical():
    for g in [gen_ring(3), gen_star(6), gen_gnp(7, 0.6, seed=5)]:
        text = format_edgelist(g)
        g2 = parse_edgelist(text)
        assert g2 == g
        assert format_edgelist(g2) == text


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        make_graph(2, [(0, 0)])


def test_cut_size():
    g = gen_ring(3)
    assert cut_size(g, {0, 1, 2, 3}) == 2
    assert cut_size(g, {0}) == 2
    assert cut_size(g, set(range(8))) == 0


def test_is_connected():
    assert is_connected(gen_ring(2))
    assert not is_connected(make_graph(4, [(0, 1), (2, 3)]))
