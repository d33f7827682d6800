import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactenv import SizingError, ball, build_box, graph_distance
from contactenv.lattice import l1_ball_sites


def test_path_graph_counts():
    g = build_box(1, 2)
    assert g.n_sites == 5
    assert g.n_edges == 4


def test_3x3_grid_counts():
    g = build_box(2, 1)
    assert g.n_sites == 9
    assert g.n_edges == 12


def test_closed_form_edge_count_d3():
    g = build_box(3, 10)
    assert g.n_sites == 9261
    assert g.n_edges == 3 * 21 ** 2 * 20 == 26460


@given(st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_edge_count_closed_form(d, L):
    g = build_box(d, L)
    assert g.n_edges == d * (2 * L + 1) ** (d - 1) * 2 * L


def test_budget_error_names_product():
    with pytest.raises(SizingError, match=r"3\*21\^3"):
        build_box(3, 10, cell_budget=100)


def test_every_edge_is_nearest_neighbour():
    g = build_box(2, 3)
    for a, b in g.edge_ends:
        assert np.abs(g.coords[a] - g.coords[b]).sum() == 1


def test_interior_degree():
    g = build_box(2, 2)
    for s in range(g.n_sites):
        if g.is_interior(s):
            assert g.degree[s] == 4
        else:
            assert g.degree[s] < 4


def test_site_index_roundtrip():
    g = build_box(3, 2)
    for s in (0, 17, g.n_sites - 1):
        assert g.site_index(g.site_coord(s)) == s


def test_distance_examples():
    g = build_box(2, 4)
    o = g.site_index((0, 0))
    assert graph_distance(g, o, o) == 0
    assert graph_distance(g, o, g.site_index((2, 3))) == 5
    assert graph_distance(g, g.site_index((-1, -1)), g.site_index((1, 1))) == 4


@given(st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_distance_symmetry(i, j):
    g = build_box(2, 1)
    assert graph_distance(g, i, j) == graph_distance(g, j, i)


def test_site_ball_1d():
    g = build_box(1, 4)
    got = ball(g, g.site_index((0,)), 2)
    assert [g.site_coord(s)[0] for s in got.indices] == [-2, -1, 0, 1, 2]
    assert not got.clipped


def test_site_ball_2d_radius1():
    g = build_box(2, 2)
    got = ball(g, g.site_index((0, 0)), 1)
    assert len(got.indices) == 5


def test_line_ball_1d():
    # line graph of the 1-d lattice is again a 1-d lattice
    g = build_box(1, 3)
    e = g.edge_between(g.site_index((0,)), g.site_index((1,)))
    got = ball(g, e, 1, kind="line")
    pairs = {tuple(sorted((g.site_coord(a)[0], g.site_coord(b)[0])))
             for a, b in g.edge_ends[got.indices]}
    assert pairs == {(-1, 0), (0, 1), (1, 2)}


def test_ball_kind_aliases():
    g = build_box(1, 3)
    assert ball(g, 0, 1, "site-ball").indices.tolist() == ball(g, 0, 1, "site").indices.tolist()
    assert ball(g, 0, 1, "line-ball-around-edge").indices.tolist() == \
        ball(g, 0, 1, "line").indices.tolist()


def test_ball_clipping_flag():
    g = build_box(1, 2)
    inside = ball(g, g.site_index((0,)), 2)
    assert not inside.clipped
    clipped = ball(g, g.site_index((1,)), 2)
    assert clipped.clipped
    assert len(clipped.indices) == 4  # {-1, 0, 1, 2}


@given(st.integers(0, 3), st.integers(0, 24))
@settings(max_examples=30, deadline=None)
def test_ball_nesting(radius, center):
    g = build_box(2, 2)
    small = set(ball(g, center, radius).indices.tolist())
    big = set(ball(g, center, radius + 1).indices.tolist())
    assert small <= big


def test_l1_ball_matches_bfs():
    g = build_box(2, 3)
    c = g.site_index((1, -1))
    for radius in range(4):
        assert set(l1_ball_sites(g, c, radius).tolist()) == \
            set(ball(g, c, radius).indices.tolist())


def test_cube_sites():
    g = build_box(2, 3)
    cube = g.cube_sites((1, 0), 1)
    assert len(cube) == 9
    with pytest.raises(ValueError):
        g.cube_sites((3, 0), 1)


def _reference_box(d, L):
    """build_box's tables from a loop over the edges as plain ints."""
    g = build_box(d, L)
    n_sites, edge_ends = g.n_sites, g.edge_ends
    nbrs = [[] for _ in range(n_sites)]
    incident = [[] for _ in range(n_sites)]
    dir_src, dir_dst, dir_edge = [], [], []
    lookup = {}
    ends_l = edge_ends.tolist()
    for e, (a, b) in enumerate(ends_l):
        nbrs[a].append(b); incident[a].append(e)
        nbrs[b].append(a); incident[b].append(e)
        dir_src += (a, b)
        dir_dst += (b, a)
        dir_edge += (e, e)
        lookup[a, b] = e
    line_nbrs = [tuple(sorted({*incident[a], *incident[b]} - {e}))
                 for e, (a, b) in enumerate(ends_l)]
    return dict(
        degree=np.array([len(v) for v in nbrs], dtype=np.int32),
        site_nbrs=tuple(tuple(v) for v in nbrs),
        site_edges=tuple(tuple(v) for v in incident),
        dir_src=tuple(dir_src), dir_dst=tuple(dir_dst), dir_edge=tuple(dir_edge),
        line_nbrs=tuple(line_nbrs),
        norm_inf=tuple(np.abs(g.coords).max(axis=1).tolist()),
        _edge_lookup=lookup)


def _flat(x):
    """Every scalar in nested tuples and dict items, with its type."""
    if isinstance(x, dict):
        return [(_flat(k), _flat(v)) for k, v in x.items()]
    if isinstance(x, tuple):
        return [_flat(v) for v in x]
    return type(x), x


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [1, 2, 5])
def test_box_tables_match_a_loop_over_the_edges(d, L):
    g = build_box(d, L)
    for name, want in _reference_box(d, L).items():
        got = getattr(g, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        else:
            assert type(got) is type(want) and _flat(got) == _flat(want), name
    side = 2 * L + 1
    assert g.coords.dtype == np.int32 and g.edge_ends.dtype == np.int32
    assert g.coords.shape == (side ** d, d) and g.edge_ends.shape == (g.n_edges, 2)
