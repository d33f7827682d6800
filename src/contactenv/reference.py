"""The event kernel in plain Python: the flip rule (grow), the infection
loop (run) and its sweep over many arrow rates in many environments at
once (scan), with the arguments and return values of kernel.Kernel's.  The
engine runs it when the compiled kernel does not load (no C compiler), and
tests/test_oracle.py runs it once over a whole table to check the engine's
runs, under either kernel, against it.

It is written from the definitions, not for speed.  Each stretch of the
table is read one event at a time, as (time, kind, target, mark), from
plain values converted a block at a time, as a run may stop early.  A
reversed stretch is read newest first, at anchor - t, with each arrow's
directed pair id flipped to the other orientation (j ^ 1).  A flip is
decided by the edge's count of open line-graph neighbours in open_nbrs,
kept up to date as the compiled kernel keeps it; tests/test_oracle.py
steps its own copies with flip's recount, which checks the kept counts.
A scan without arrow flags keeps each edge's state in every column as one
bit of a Python int.  The double comparisons are the compiled kernel's,
so the two give bit-identical outputs.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain

import numpy as np

from .graphical import KIND_ARROW, KIND_FLIP, KIND_RECOVERY

_BLOCK = 512      # events converted to plain values at a time


def _events(table, lo, hi, rev, anchor):
    """Table indices lo..hi-1 as (index, time, kind, target, mark), in
    time order, or newest first at anchor - t with arrows reversed."""
    cuts = [(a, min(a + _BLOCK, hi)) for a in range(lo, hi, _BLOCK)]
    if rev:     # blocks from the top
        cuts = [(lo + hi - b, lo + hi - a) for a, b in cuts]
    return chain.from_iterable(_block(table, a, b, rev, anchor) for a, b in cuts)


def _block(table, a, b, rev, anchor):
    times, kinds, idx, marks = ((arr[a:b][::-1] if rev else arr[a:b]).tolist() for arr in table)
    if not rev:
        return zip(range(a, b), times, kinds, idx, marks)
    return ((i, anchor - t, k, j ^ 1 if k == KIND_ARROW else j, u)
            for i, t, k, j, u in zip(range(b - 1, a - 1, -1), times, kinds, idx, marks))


def _arrays(deltas):
    """(time, index, sign) tuples as float64, int32 and int8 arrays."""
    t, x, s = zip(*deltas) if deltas else ((), (), ())
    return np.array(t, np.float64), np.array(x, np.int32), np.array(s, np.int8)


def flip(g, edges, rule, x, u, n=None) -> int:
    """The flip rule at a candidate with mark u on edge x: closes an open
    edge if (1 - u) q <= down[n], opens a closed one if u q < up[n], where
    n counts x's open line-graph neighbours (recounted when not given) and
    rule is (up, down, q).  Updates edges; returns the sign of the flip, 0
    for none."""
    up, down, q = rule
    if n is None:
        n = sum(map(edges.__getitem__, g.line_nbrs[x]))
    if edges[x]:
        if (1.0 - u) * q <= down[n]:
            edges[x] = 0
            return -1
    elif u * q < up[n]:
        edges[x] = 1
        return 1
    return 0


def grow(table, n_valid, lo, hi, rev_top, anchor, g, rule, edges, open_nbrs, flags):
    """Sweep feed offsets lo..hi-1 of table, whose first n_valid events are
    drawn: feed offset k is table index k, or rev_top - k on a reversed
    feed (rev_top >= 0).  flags[k] is set to the state of an arrow's edge
    just before it.  rule is (up, down, candidate rate), or None for no
    flips.  Returns the flips as arrays of times (float64), edges (int32),
    signs (int8) and feed offsets (int32)."""
    rev = rev_top >= 0
    top = rev_top + 1 if rev else hi
    if not 0 <= lo <= hi <= top <= n_valid:
        raise ValueError(f"offsets {lo}..{hi} outside the {n_valid} drawn events")
    if rule is not None:
        rule = ([float(v) for v in rule[0]], [float(v) for v in rule[1]], rule[2])
    dir_edge, line_nbrs = g.dir_edge, g.line_nbrs
    deltas, at = [], array("i")
    a, b = (top - hi, top - lo) if rev else (lo, hi)
    for k, (_, t, kind, j, u) in enumerate(_events(table, a, b, rev, anchor), lo):
        if kind == KIND_ARROW:
            flags[k] = edges[dir_edge[j]]
        elif kind == KIND_FLIP and rule is not None:
            sign = flip(g, edges, rule, j, u, open_nbrs[j])
            if sign:
                for e in line_nbrs[j]:
                    open_nbrs[e] += sign
                deltas.append((t, j, sign))
                at.append(k)
    return (*_arrays(deltas), np.array(at, dtype=np.int32))


def run(table, n_valid, lo, hi, rev, anchor, t_cut, g, fracs, limits, windows, flags,
        flag_top, edges, infected, state, tau, want_deltas):
    """One stretch of a run over table indices lo..hi-1, read forward or,
    when rev, from the anchor back; it ends at the first event after t_cut.
    fracs is (lam_frac, r_frac): an event is kept iff its mark is below
    its kind's.  limits is (emanation, entry): arrows leave only sites of
    norm below the first and enter only sites of norm below the second.
    windows is (no arrows until, free infection until, no recoveries
    until), each active when positive.  An arrow at table index i reads
    its edge as flags[flag_top - i] (flag_top >= 0), flags[i], or, when
    flags is None, edges.  infected, state (array('q') of infected count,
    boundary touched, extinct) and tau (array('d') of one) carry the run:
    when a recovery empties the infected set, tau[0] is set to its time,
    state[2] to 1 and the run stops.  Returns the site deltas as arrays of
    times (float64), sites (int32) and signs (int8), empty unless
    want_deltas."""
    if not 0 <= lo <= hi <= n_valid:
        raise ValueError(f"offsets {lo}..{hi} outside the {n_valid} drawn events")
    lam_frac, r_frac = fracs
    eman_limit, entry_limit = limits
    no_arrows_until, free_until, no_recs_until = windows
    src, dst, dir_edge, norm = g.dir_src, g.dir_dst, g.dir_edge, g.norm_inf
    n_inf, touched = state[0], state[1]
    deltas = []
    for i, t, kind, j, u in _events(table, lo, hi, rev, anchor):
        if t > t_cut:
            break
        if kind == KIND_ARROW:
            s, d = src[j], dst[j]
            if not infected[s] or infected[d] or u >= lam_frac or norm[s] >= eman_limit:
                continue
            if no_arrows_until > 0.0 and t <= no_arrows_until:
                continue
            if flags is None:
                is_open = edges[dir_edge[j]]
            else:
                is_open = flags[flag_top - i if flag_top >= 0 else i]
            if not is_open and not (free_until > 0.0 and t <= free_until):
                continue
            if norm[d] >= entry_limit:
                continue
            infected[d] = 1
            n_inf += 1
            touched = touched or norm[d] >= g.half_width
            if want_deltas:
                deltas.append((t, d, 1))
        elif kind == KIND_RECOVERY:
            if not infected[j] or u >= r_frac:
                continue
            if no_recs_until > 0.0 and t <= no_recs_until:
                continue
            infected[j] = 0
            n_inf -= 1
            if want_deltas:
                deltas.append((t, j, -1))
            if not n_inf:
                tau[0] = t
                state[2] = 1
                break
    state[0], state[1] = n_inf, touched
    return _arrays(deltas)


def scan(table, n_valid, lo, hi, g, col_ptr, fracs, r_fracs, rule, masks, flags, level,
         state, touch, taus):
    """One stretch of a scan over table indices lo..hi-1, forward: the runs
    of run that emanate below g.half_width, at many arrow fractions in each
    of K = len(col_ptr) - 1 environments, all at once.  Column k holds the
    arrow fractions fracs[col_ptr[k]:col_ptr[k + 1]] (nondecreasing) and
    the recovery fraction r_fracs[k].  Site x is infected in column k's run
    at f exactly when level[x * K + k] < f (inf: healthy): an arrow x -> y
    with mark u whose edge is open sets y's level to min(y's level,
    max(x's level, u)), and a recovery kept at r_fracs[k] sets x's level to
    inf.  The least level never falls, so a column's runs die in the order
    of their fractions: state[2k:2k + 2] is (runs extinct, sites below the
    lowest live fraction), and taus[col_ptr[k] + m] is set to the time of
    the recovery after which no level is below fracs[col_ptr[k] + m].
    touch[k] is the least level written to a site of norm g.half_width or
    more.

    An arrow at table index i reads its edge as flags[i] in every column
    when flags is given, and masks and rule are not read.  Without flags,
    bit k of masks[e] is edge e's state in column k, and rule = (ups, downs,
    q) holds the rates at which each column's edges open and close: a flip
    candidate on edge x with mark u closes it in the columns where
    (1 - u) q <= downs[k] and opens it in those where u q < ups[k], the
    rule of flip at every open-neighbour count.  Returns the number of
    columns whose runs are all extinct; the scan stops when all are."""
    if not 0 <= lo <= hi <= n_valid:
        raise ValueError(f"offsets {lo}..{hi} outside the {n_valid} drawn events")
    n_cols = len(col_ptr) - 1
    cols = [fracs[a:b] for a, b in zip(col_ptr, col_ptr[1:])]
    if not 1 <= n_cols <= 64 or not all(cols) or \
            any(b < a for col in cols for a, b in zip(col, col[1:])):
        raise ValueError("a scan needs 1 to 64 columns of nondecreasing fractions")
    ups, downs, q = rule
    src, dst, dir_edge, norm, width = g.dir_src, g.dir_dst, g.dir_edge, g.norm_inf, g.half_width
    live = [k for k in range(n_cols) if state[2 * k] < len(cols[k])]
    for i, t, kind, j, u in _events(table, lo, hi, False, 0.0):
        if not live:
            break
        if kind == KIND_FLIP and flags is None:
            close = sum(1 << k for k in range(n_cols) if (1.0 - u) * q <= downs[k])
            opening = sum(1 << k for k in range(n_cols) if u * q < ups[k])
            m = masks[j]
            masks[j] = (m & ~close) | (~m & opening)
        elif kind == KIND_ARROW:
            s, d = src[j], dst[j]
            if norm[s] >= width:
                continue
            for k in live:
                col = cols[k]
                f_top, f_low = col[-1], col[state[2 * k]]
                ls, ld = level[s * n_cols + k], level[d * n_cols + k]
                is_open = masks[dir_edge[j]] >> k & 1 if flags is None else flags[i]
                if not is_open or ls >= f_top or (f_top < 1.0 and u >= f_top):
                    continue
                v = ls if ls > u else u
                if v >= ld:
                    continue
                if v < f_low <= ld:
                    state[2 * k + 1] += 1
                level[d * n_cols + k] = v
                if norm[d] >= width and v < touch[k]:
                    touch[k] = v
        elif kind == KIND_RECOVERY:
            for k in list(live):
                col = cols[k]
                lx = level[j * n_cols + k]
                if (r_fracs[k] < 1.0 and u >= r_fracs[k]) or lx == math.inf:
                    continue
                level[j * n_cols + k] = math.inf
                if not lx < col[state[2 * k]]:
                    continue
                state[2 * k + 1] -= 1
                if state[2 * k + 1]:
                    continue
                column = level[k::n_cols]
                least = min(column)
                while state[2 * k] < len(col) and col[state[2 * k]] <= least:
                    taus[col_ptr[k] + state[2 * k]] = t
                    state[2 * k] += 1
                if state[2 * k] == len(col):
                    live.remove(k)
                else:
                    state[2 * k + 1] = sum(x < col[state[2 * k]] for x in column)
    return n_cols - len(live)
