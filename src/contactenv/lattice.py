"""Finite boxes of the d-dimensional integer lattice with nearest-neighbour edges.

Sites are the points of ``[-L, L]^d`` indexed row-major; edges are unordered
nearest-neighbour pairs, grouped by axis and then row-major over their lower
endpoint.  These fixed total orders on sites and edges give deterministic
tie-breaking to everything built on top (event generation, set dumps, CSV
rows).

A box is a truncation of the infinite lattice, not a torus: recovery clocks
act on every site, but infection arrows only emanate from the open interior
``(-L, L)^d``.  Consumers that need to know whether that truncation mattered
check the boundary-touched flag the engine records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

DEFAULT_CELL_BUDGET = 50_000_000


class SizingError(ValueError):
    """A requested object would exceed the configured memory budget."""


class Ball(NamedTuple):
    indices: np.ndarray
    clipped: bool


@dataclass(eq=False)
class GraphView:
    """Immutable view of one lattice box.

    Alongside the raw site/edge tables it gives the adjacency structures
    the interpreted loops (reference.py and some analysis helpers) index
    millions of times per run, as plain tuples (CPython indexes tuples of
    ints far faster than ndarray scalars).  Those are made on first read
    and kept: the compiled kernel reads its own arrays (kernel.graph_tables)
    and never needs them.
    """

    dimension: int
    half_width: int
    n_sites: int
    n_edges: int
    coords: np.ndarray           # (n_sites, d) int32, row-major order
    edge_ends: np.ndarray        # (n_edges, 2) int32 site ids, ends[e,0] < ends[e,1]
    degree: np.ndarray           # (n_sites,) int32
    _shape: tuple = ()
    _strides: tuple = ()

    @cached_property
    def _ids(self) -> np.ndarray:
        """One int object per index, which every tuple table shares."""
        return np.array(range(max(self.n_sites, self.n_edges)), dtype=object)

    @cached_property
    def _incidences(self):
        """Per site, its neighbours and its incident edges, each a list cut
        at cuts: incidence k is edge k // 2 at its site edge_ends.ravel()[k];
        sorted by (site, edge), each site's edges come ascending, with the
        neighbour across each."""
        order, degree, _ = _incidence(self.edge_ends, self.n_sites, self.dimension)
        cuts = np.concatenate(([0], np.cumsum(degree))).tolist()
        other = self.edge_ends[:, ::-1].ravel()
        return cuts, self._ids.take(other[order]).tolist(), self._ids.take(order // 2).tolist()

    @cached_property
    def site_nbrs(self) -> tuple:
        """Per site: tuple of neighbour site ids."""
        cuts, nbrs, _ = self._incidences
        return tuple(tuple(nbrs[a:b]) for a, b in zip(cuts, cuts[1:]))

    @cached_property
    def site_edges(self) -> tuple:
        """Per site: tuple of incident edge ids, aligned with site_nbrs."""
        cuts, _, incident = self._incidences
        return tuple(tuple(incident[a:b]) for a, b in zip(cuts, cuts[1:]))

    @cached_property
    def dir_src(self) -> tuple:
        """Directed pair 2e + o -> its source site."""
        return tuple(self._ids.take(self.edge_ends.ravel()).tolist())

    @cached_property
    def dir_dst(self) -> tuple:
        """Directed pair 2e + o -> its target site."""
        return tuple(self._ids.take(self.edge_ends[:, ::-1].ravel()).tolist())

    @cached_property
    def dir_edge(self) -> tuple:
        """Directed pair 2e + o -> its edge e."""
        return tuple(self._ids.take(np.arange(2 * self.n_edges) // 2).tolist())

    @cached_property
    def line_nbrs(self) -> tuple:
        """Per edge: tuple of the edge ids sharing an endpoint with it."""
        line_cuts, line = line_graph(self.edge_ends, self.n_sites, self.dimension)
        line_cuts, line = line_cuts.tolist(), self._ids.take(line).tolist()
        return tuple(tuple(line[a:b]) for a, b in zip(line_cuts, line_cuts[1:]))

    @cached_property
    def norm_inf(self) -> tuple:
        """Per site: max |coordinate|."""
        return tuple(np.abs(self.coords).max(axis=1).tolist())

    @cached_property
    def _edge_lookup(self) -> dict:
        ids = self._ids
        return dict(zip(zip(*ids.take(self.edge_ends.T).tolist()), ids[:self.n_edges].tolist()))

    @property
    def interior_line_degree(self) -> int:
        """Line-graph degree of an interior edge: 4d - 2."""
        return 4 * self.dimension - 2

    def site_index(self, coord: Sequence[int]) -> int:
        L = self.half_width
        if len(coord) != self.dimension:
            raise ValueError(f"coordinate has {len(coord)} components, box is {self.dimension}-dimensional")
        i = 0
        for c, stride in zip(coord, self._strides):
            if not -L <= c <= L:
                raise ValueError(f"coordinate {tuple(coord)} outside box [-{L},{L}]^{self.dimension}")
            i += (c + L) * stride
        return i

    def site_coord(self, index: int) -> tuple:
        return tuple(int(v) for v in self.coords[index])

    def edge_between(self, a: int, b: int) -> int:
        """Edge id of the unordered pair {a, b}; raises if not adjacent."""
        key = (a, b) if a < b else (b, a)
        try:
            return self._edge_lookup[key]
        except KeyError:
            raise ValueError(f"sites {a} and {b} are not nearest neighbours") from None

    def origin(self) -> int:
        return self.site_index((0,) * self.dimension)

    def is_interior(self, site: int) -> bool:
        return self.norm_inf[site] < self.half_width

    def cube_sites(self, center: Sequence[int], n: int) -> np.ndarray:
        """Site ids of ``center + [-n, n]^d``; the cube must lie in the box."""
        c = np.asarray(center, dtype=np.int64)
        L = self.half_width
        if np.any(np.abs(c) + n > L):
            raise ValueError(f"cube around {tuple(int(v) for v in c)} with radius {n} leaves the box")
        axes = [np.arange(v - n, v + n + 1) for v in c]
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([m.ravel() for m in mesh], axis=1) + L
        idx = np.zeros(len(flat), dtype=np.int64)
        for k, stride in enumerate(self._strides):
            idx += flat[:, k] * stride
        return np.sort(idx).astype(np.int32)


def build_box(d: int, L: int, *, cell_budget: int = DEFAULT_CELL_BUDGET) -> GraphView:
    """Construct the box [-L, L]^d with nearest-neighbour edges.

    Raises SizingError when d*(2L+1)^d exceeds ``cell_budget``.
    """
    if d < 1 or L < 1:
        raise ValueError(f"need d >= 1 and L >= 1, got d={d}, L={L}")
    side = 2 * L + 1
    n_sites = side ** d
    cells = d * n_sites
    if cells > cell_budget:
        raise SizingError(
            f"d*(2L+1)^d = {d}*{side}^{d} = {cells} exceeds the cell budget {cell_budget}")

    shape = (side,) * d
    idx = np.arange(n_sites)
    coords = (np.stack(np.unravel_index(idx, shape), axis=1) - L).astype(np.int32)
    strides = tuple(int(np.prod(shape[k + 1:], dtype=np.int64)) for k in range(d))

    ends = []
    for axis in range(d):
        lower = idx[coords[:, axis] < L]
        upper = lower + strides[axis]
        ends.append(np.stack([lower, upper], axis=1))
    edge_ends = np.concatenate(ends, axis=0).astype(np.int32)
    n_edges = len(edge_ends)
    assert n_edges == d * side ** (d - 1) * 2 * L

    return GraphView(
        dimension=d,
        half_width=L,
        n_sites=n_sites,
        n_edges=n_edges,
        coords=coords,
        edge_ends=edge_ends,
        degree=np.bincount(edge_ends.ravel(), minlength=n_sites).astype(np.int32),
        _shape=shape,
        _strides=strides,
    )


def line_graph(edge_ends: np.ndarray, n_sites: int, d: int):
    """Line-graph neighbours of every edge, the other edges at either end,
    as int32 arrays (ptr, nbr): edge e's, ascending, are nbr[ptr[e]:ptr[e+1]]."""
    _, degree, inc = _incidence(edge_ends, n_sites, d)
    return _line_graph(edge_ends, degree, inc)


def _incidence(edge_ends, n_sites, d):
    """The incidences sorted by (site, edge), as the order of
    edge_ends.ravel(); each site's degree; and per site its incident edges
    ascending, an (n_sites, 2d) int32 matrix padded at the end with
    n_edges."""
    n_edges = len(edge_ends)
    site = edge_ends.ravel()
    order = np.argsort(site, kind="stable")
    degree = np.bincount(site, minlength=n_sites)
    ranked = site[order]
    inc = np.full((n_sites, 2 * d), n_edges, dtype=np.int32)
    inc[ranked, np.arange(2 * n_edges) - (np.cumsum(degree) - degree)[ranked]] = order // 2
    return order, degree, inc


def _line_graph(edge_ends, degree, inc):
    n_edges = len(edge_ends)
    rows = np.concatenate([inc[edge_ends[:, 0]], inc[edge_ends[:, 1]]], axis=1)
    rows[rows == np.arange(n_edges)[:, None]] = n_edges     # an edge is not its own neighbour
    rows.sort(axis=1)       # the padding goes last
    counts = degree[edge_ends[:, 0]] + degree[edge_ends[:, 1]] - 2
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int32), rows[rows < n_edges]


def graph_distance(g: GraphView, x: int, y: int) -> int:
    """Graph distance between two sites: the l1 distance of their coordinates."""
    return int(np.abs(g.coords[x] - g.coords[y]).sum())


def ball(g: GraphView, center: int, radius: int, kind: str = "site") -> Ball:
    """Ball of the given radius around a site ("site") or an edge ("line").

    The result is clipped to the box; ``clipped`` is set when the same ball on
    the infinite lattice would have contained sites or edges the box lacks.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    kind = {"site-ball": "site", "line-ball-around-edge": "line"}.get(kind, kind)
    if kind == "site":
        nbrs = g.site_nbrs
        full_degree = 2 * g.dimension
        n_nodes = g.n_sites
    elif kind == "line":
        nbrs = g.line_nbrs
        full_degree = g.interior_line_degree
        n_nodes = g.n_edges
    else:
        raise ValueError(f"kind must be 'site' or 'line', got {kind!r}")
    if not 0 <= center < n_nodes:
        raise ValueError(f"center {center} out of range for kind {kind!r}")

    dist = {center: 0}
    frontier = [center]
    clipped = False
    for r in range(radius):
        nxt = []
        for u in frontier:
            local = nbrs[u]
            if len(local) < full_degree:
                clipped = True
            for v in local:
                if v not in dist:
                    dist[v] = r + 1
                    nxt.append(v)
        frontier = nxt
        if not frontier:
            break
    return Ball(np.array(sorted(dist), dtype=np.int32), clipped)


def l1_ball_sites(g: GraphView, center: int, radius: int) -> np.ndarray:
    """Fast path for site balls: sites at l1 distance <= radius from center."""
    diff = np.abs(g.coords.astype(np.int64) - g.coords[center].astype(np.int64)).sum(axis=1)
    return np.flatnonzero(diff <= radius).astype(np.int32)
