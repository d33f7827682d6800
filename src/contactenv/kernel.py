"""Build, cache and load the compiled event kernel (_kernel.c), and call it
with its buffers checked.

load() compiles _kernel.c with the C compiler that sysconfig names, with
-O2 -ffp-contract=off (no fused multiply-adds, no fast-math, no
-march=native), so the kernel's double arithmetic is that of the Python
kernel (reference.py) to the bit.  The library is cached in _kernel_cache/
next to this module, under a name keyed by a checksum (_digest) of the
source, the compile command and the platform.  It is written to a
temporary file there and moved into place, so a process never loads a
half-written library, and it ends with the checksum of its own bytes, so a
damaged or truncated file is rebuilt, not loaded.  Without a compiler on
PATH, or when the build fails, load() returns None and the engine runs the
Python kernel, whose grow, run, levels and scan take the same arguments as
Kernel's.

Kernel.grow, Kernel.run, Kernel.levels and Kernel.scan check every buffer's
type, dtype and length and every offset before the call, and raise
ValueError where C would read or write out of bounds.
"""

from __future__ import annotations

import ctypes
import operator
import os
import shlex
import shutil
import sysconfig
import threading
import zlib
from array import array
from itertools import compress

import numpy as np

from .lattice import line_graph

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "_kernel_cache")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 300

_TABLE_DTYPES = (np.dtype(np.float64), np.dtype(np.int8), np.dtype(np.int32),
                 np.dtype(np.float64))
_P, _I64, _D, _INT = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_int


def compiler() -> list | None:
    """The C compiler sysconfig names, as an argument list, or None when
    it is not on PATH."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    return cc if cc and shutil.which(cc[0]) else None


def _digest(data: bytes) -> bytes:
    """An 8-byte checksum of data: its CRC-32 and its Adler-32.  zlib's C
    checksums need no libcrypto, which hashlib maps into the process."""
    return (zlib.crc32(data).to_bytes(4, "big") + zlib.adler32(data).to_bytes(4, "big"))


def library_path(cc, source=SOURCE, cache_dir=CACHE_DIR) -> str:
    with open(source, "rb") as fh:
        key = _digest(fh.read() + "\0".join(
            [*cc, *FLAGS, sysconfig.get_platform()]).encode()).hex()
    return os.path.join(cache_dir, f"kernel-{key}.so")


def _intact(path) -> bool:
    """Whether the library file ends with the _digest of the bytes before
    it, as _build writes it: a truncated library can crash dlopen."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return False
    return len(data) > 8 and _digest(data[:-8]) == data[-8:]


def _build(cc, source, target) -> bool:
    """Compile source to target, with the _digest of the library appended
    (the loader ignores bytes past the library's end)."""
    import subprocess
    import tempfile
    os.makedirs(os.path.dirname(target), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
    os.close(fd)
    try:
        # run waits for the compiler, and kills it on a timeout
        done = subprocess.run([*cc, *FLAGS, "-o", tmp, source], capture_output=True,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
        with open(tmp, "rb+") as fh:
            fh.write(_digest(fh.read()))
        os.replace(tmp, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(source=SOURCE, cache_dir=CACHE_DIR) -> Kernel | None:
    """The kernel built from source, from the cache or compiled into it; a
    cached library that is not intact is rebuilt.  None when there is no
    compiler, the build fails or the cache directory is not writable."""
    cc = compiler()
    if cc is None:
        return None
    target = library_path(cc, source, cache_dir)
    if not _intact(target) and not _build(cc, source, target):
        return None
    try:
        return Kernel(ctypes.CDLL(target), target, os.path.basename(cc[0]))
    except (OSError, AttributeError):
        return None


def _address(buf) -> int | None:
    """Address of a writable, contiguous buffer's first byte (None if empty)."""
    return ctypes.addressof(ctypes.c_char.from_buffer(buf)) if len(buf) else None


def _check_table(table, n_valid, lo, hi):
    if len(table) != 4:
        raise ValueError("a table is four arrays: times, kinds, idx, marks")
    for arr, dtype in zip(table, _TABLE_DTYPES):
        if not isinstance(arr, np.ndarray) or arr.dtype != dtype or arr.ndim != 1 or \
                not arr.flags.c_contiguous:
            raise ValueError(f"table arrays must be contiguous 1-d "
                             f"{[str(d) for d in _TABLE_DTYPES]}")
        if len(arr) < n_valid:
            raise ValueError(f"table array of {len(arr)} entries, {n_valid} drawn")
    if not 0 <= lo <= hi <= n_valid:
        raise ValueError(f"offsets {lo}..{hi} outside the {n_valid} drawn events")
    return [_address(arr) for arr in table]


def _check_bytes(name, buf, n):
    if not isinstance(buf, bytearray) or len(buf) != n:
        raise ValueError(f"{name} must be a bytearray of {n} entries")
    return _address(buf)


def _check_array(name, buf, typecode, n):
    if not isinstance(buf, array) or buf.typecode != typecode or len(buf) != n:
        raise ValueError(f"{name} must be array({typecode!r}) of {n} entries")
    return buf.buffer_info()[0]


def _check_columns(col_ptr, fracs) -> int:
    """The number of columns K of a scan, 1 <= K <= 64, whose arrow
    fractions are fracs[col_ptr[k]:col_ptr[k + 1]], each nonempty and
    nondecreasing."""
    if not (isinstance(col_ptr, array) and col_ptr.typecode == "q"
            and isinstance(fracs, array) and fracs.typecode == "d"):
        raise ValueError("col_ptr must be array('q') and fracs array('d')")
    k = len(col_ptr) - 1
    if not 1 <= k <= 64 or col_ptr[0] != 0 or col_ptr[-1] != len(fracs) or \
            any(map(operator.le, col_ptr[1:], col_ptr[:-1])):
        raise ValueError(f"col_ptr must cut the {len(fracs)} fractions into 1 to 64 "
                         f"nonempty columns")
    # the fractions may fall only where a column starts
    if not set(compress(range(1, len(fracs)), map(operator.lt, fracs[1:], fracs[:-1]))) \
            <= set(col_ptr):
        raise ValueError("each column's fractions must be nondecreasing")
    return k


class _Out:
    """Scratch outputs of one call, grown as needed: times, indices, signs
    and offsets.  Each thread has its own, as a call releases the
    interpreter lock while C writes them."""

    def __init__(self):
        self.cap = 0
        self.ensure(1024)

    def ensure(self, n):
        if n > self.cap:
            self.cap = max(n, 2 * self.cap, 1024)
            self.arrays = (np.empty(self.cap), np.empty(self.cap, np.int32),
                           np.empty(self.cap, np.int8), np.empty(self.cap, np.int32))
            self.addresses = [_address(a) for a in self.arrays]

    def deltas(self, n):
        """Copies of the first n times, indices and signs: the scratch
        arrays are overwritten by the next call."""
        return tuple(a[:n].copy() for a in self.arrays[:3])


class Kernel:
    """The loaded library: grow, run, levels and scan, each with its
    buffers checked."""

    def __init__(self, lib, path, cc_name):
        self.path = path
        lib.cek_compiler.argtypes = []
        lib.cek_compiler.restype = ctypes.c_char_p
        # the compiler's name and the version it wrote into the library
        self.compiler = f"{cc_name} {lib.cek_compiler().decode()}"
        self._grow = lib.cek_grow
        self._grow.restype = _I64
        self._grow.argtypes = [_P] * 4 + [_I64, _I64, _I64, _D] + [_P] * 5 + [_D, _INT] + [_P] * 7
        self._run = lib.cek_run
        self._run.restype = _I64
        self._run.argtypes = ([_P] * 4 + [_I64, _I64, _INT, _D, _D] + [_P] * 4
                              + [ctypes.c_int32] + [_D] * 7 + [_P, _I64] + [_P] * 4
                              + [_INT] + [_P] * 3)
        self._levels = lib.cek_levels
        self._levels.restype = _I64
        self._levels.argtypes = ([_P] * 4 + [_I64, _I64] + [_P] * 4
                                 + [ctypes.c_int32] * 2 + [_P, _I64, _D] + [_P] * 6)
        self._scan = lib.cek_scan
        self._scan.restype = _I64
        self._scan.argtypes = ([_P] * 4 + [_I64, _I64] + [_P] * 4 + [ctypes.c_int32] * 2
                               + [_I64] + [_P] * 5 + [_D] + [_P] * 5)
        self._local = threading.local()

    def _scratch(self, n) -> _Out:
        out = getattr(self._local, "out", None)
        if out is None:
            out = self._local.out = _Out()
        out.ensure(n)
        return out

    def grow(self, table, n_valid, lo, hi, rev_top, anchor, g, rule, edges, open_nbrs,
             flags):
        """Sweep feed offsets lo..hi-1 of table, whose first n_valid events
        are drawn: feed offset k is table index k, or rev_top - k when
        rev_top >= 0.  rule is (up, down, candidate rate) as float64 arrays
        and a float, or None.  Writes flags[lo:hi] and the edge states and
        open-neighbour counts; returns the flips as arrays of times
        (float64), edges (int32), signs (int8) and feed offsets (int32)."""
        if rev_top >= 0:
            if not 0 <= lo <= hi <= rev_top + 1 <= n_valid:
                raise ValueError(f"reversed offsets {lo}..{hi} from {rev_top} outside "
                                 f"the {n_valid} drawn events")
            ptrs = _check_table(table, n_valid, 0, 0)
        else:
            ptrs = _check_table(table, n_valid, lo, hi)
        gt = graph_tables(g)
        if rule is None:
            up = down = None
            q_rate = 0.0
        else:
            up, down, q_rate = rule
            for tab in (up, down):
                if not isinstance(tab, np.ndarray) or tab.dtype != np.float64 or \
                        tab.ndim != 1 or not tab.flags.c_contiguous or \
                        len(tab) <= gt.max_line_degree:
                    raise ValueError("rule tables must be float64 arrays, one entry per "
                                     "open-neighbour count")
            up, down = _address(up), _address(down)
        e = g.n_edges
        b, nb = _check_bytes("edges", edges, e), _check_bytes("open_nbrs", open_nbrs, e)
        if not isinstance(flags, bytearray) or len(flags) < hi:
            raise ValueError(f"flags must be a bytearray of at least {hi} entries")
        out = self._scratch(hi - lo)
        n = self._grow(*ptrs, lo, hi, rev_top, anchor, gt.dir_edge, gt.lptr, gt.lnbr,
                       up, down, q_rate, rule is not None, b, nb, _address(flags),
                       *out.addresses)
        return (*out.deltas(n), out.arrays[3][:n].copy())

    def run(self, table, n_valid, lo, hi, rev, anchor, t_cut, g, fracs, limits, windows,
            flags, flag_top, edges, infected, state, tau, want_deltas):
        """One stretch of a run over table indices lo..hi-1 (see cek_run).
        fracs is (lam_frac, r_frac), limits (emanation, entry), windows (no
        arrows until, free infection until, no recoveries until); flags is a
        bytearray or None, then edges is read.  infected, state
        (array('q') of infected count, boundary touched, extinct) and tau
        (array('d') of one) carry the run; returns its site deltas as arrays
        of times (float64), sites (int32) and signs (int8)."""
        ptrs = _check_table(table, n_valid, lo, hi)
        gt = graph_tables(g)
        if flags is None:
            fl, ed = None, _check_bytes("edges", edges, g.n_edges)
        else:
            if not isinstance(flags, bytearray):
                raise ValueError("flags must be a bytearray")
            need = (flag_top - lo + 1) if flag_top >= 0 else hi
            if len(flags) < need or flag_top >= 0 and flag_top - (hi - 1) < 0:
                raise ValueError(f"flags of {len(flags)} entries do not cover offsets {lo}..{hi}")
            fl, ed = _address(flags), None
        inf = _check_bytes("infected", infected, g.n_sites)
        if not (isinstance(state, array) and state.typecode == "q" and len(state) == 3
                and isinstance(tau, array) and tau.typecode == "d" and len(tau) == 1):
            raise ValueError("state must be array('q') of 3 and tau array('d') of 1")
        src, dst = (gt.dir_dst, gt.dir_src) if rev else (gt.dir_src, gt.dir_dst)
        out = self._scratch(hi - lo)
        n = self._run(*ptrs, lo, hi, rev, anchor, t_cut, src, dst, gt.dir_edge, gt.norm_inf,
                      g.half_width, *fracs, *limits, *windows, fl, flag_top, ed, inf,
                      state.buffer_info()[0], tau.buffer_info()[0], want_deltas,
                      *out.addresses[:3])
        return out.deltas(n)

    def levels(self, table, n_valid, lo, hi, g, fracs, r_frac, flags, edges, level, state,
               touch, taus):
        """One stretch of a levels sweep over table indices lo..hi-1 (see
        cek_levels): the runs of evolve at the arrow fractions fracs, an
        array('d') in nondecreasing order, and at r_frac.  flags is a
        bytearray by table index or None, then edges is read.  level
        (array('d'), one per site), state (array('q') of runs extinct and
        sites below the lowest live fraction), touch (array('d') of one) and
        taus (array('d'), one per fraction) carry the sweep; returns the
        number of runs extinct."""
        ptrs = _check_table(table, n_valid, lo, hi)
        if not (isinstance(fracs, array) and fracs.typecode == "d" and fracs) or \
                any(b < a for a, b in zip(fracs, fracs[1:])):
            raise ValueError("fracs must be a nonempty nondecreasing array('d')")
        k, fr = len(fracs), fracs.buffer_info()[0]
        if flags is None:
            fl, ed = None, _check_bytes("edges", edges, g.n_edges)
        elif not isinstance(flags, bytearray) or len(flags) < hi:
            raise ValueError(f"flags must be a bytearray of at least {hi} entries")
        else:
            fl, ed = _address(flags), None
        lv = _check_array("level", level, "d", g.n_sites)
        st = _check_array("state", state, "q", 2)
        if not 0 <= state[0] <= k:
            raise ValueError(f"{state[0]} runs extinct of {k}")
        tc = _check_array("touch", touch, "d", 1)
        ta = _check_array("taus", taus, "d", k)
        gt = graph_tables(g)
        return self._levels(*ptrs, lo, hi, gt.dir_src, gt.dir_dst, gt.dir_edge, gt.norm_inf,
                            g.half_width, g.n_sites, fr, k, r_frac, fl, ed, lv, st, tc, ta)

    def scan(self, table, n_valid, lo, hi, g, col_ptr, fracs, r_fracs, rule, masks, level,
             state, touch, taus):
        """One stretch of a scan over table indices lo..hi-1 (see cek_scan):
        the levels sweeps of K = len(col_ptr) - 1 columns, 1 <= K <= 64, at
        once.  Column k's arrow fractions are fracs[col_ptr[k]:col_ptr[k + 1]]
        (array('q') col_ptr, array('d') fracs, each column's nonempty and
        nondecreasing) and its recovery fraction r_fracs[k]; rule is (ups,
        downs, candidate rate), array('d') of K each and a float.  masks
        (array('Q'), one per edge: bit k is the edge's state in column k),
        level (array('d') of sites * K, site-major), state (array('q') of 2K:
        runs extinct and sites below the lowest live fraction, per column),
        touch (array('d') of K) and taus (array('d'), one per fraction) carry
        the scan; returns the number of columns all of whose runs are
        extinct."""
        ptrs = _check_table(table, n_valid, lo, hi)
        k = _check_columns(col_ptr, fracs)
        fr = _check_array("r_fracs", r_fracs, "d", k)
        if not (isinstance(rule, tuple) and len(rule) == 3):
            raise ValueError("rule must be (ups, downs, candidate rate)")
        ups, downs, q_rate = rule
        up, down = _check_array("ups", ups, "d", k), _check_array("downs", downs, "d", k)
        mk = _check_array("masks", masks, "Q", g.n_edges)
        lv = _check_array("level", level, "d", g.n_sites * k)
        st = _check_array("state", state, "q", 2 * k)
        if min(state[::2]) < 0 or \
                any(map(operator.gt, state[::2], map(operator.sub, col_ptr[1:], col_ptr))):
            raise ValueError("a column has more runs extinct than fractions")
        tc = _check_array("touch", touch, "d", k)
        ta = _check_array("taus", taus, "d", len(fracs))
        gt = graph_tables(g)
        return self._scan(*ptrs, lo, hi, gt.dir_src, gt.dir_dst, gt.dir_edge, gt.norm_inf,
                          g.half_width, g.n_sites, k, col_ptr.buffer_info()[0],
                          fracs.buffer_info()[0], fr, up, down, float(q_rate), mk, lv, st, tc, ta)


class _GraphTables:
    """A box's int32 tables for the kernel, derived from edge_ends and
    coords: directed pairs 2e + o (source, target, edge), each site's norm
    and the line graph in CSR form; the fields hold their addresses."""

    def __init__(self, g):
        ends = g.edge_ends
        lptr, lnbr = line_graph(ends, g.n_sites, g.dimension)
        self.arrays = dict(
            dir_src=np.ascontiguousarray(ends.ravel(), dtype=np.int32),
            dir_dst=np.ascontiguousarray(ends[:, ::-1].ravel(), dtype=np.int32),
            dir_edge=np.repeat(np.arange(g.n_edges, dtype=np.int32), 2),
            norm_inf=np.abs(g.coords).max(axis=1).astype(np.int32),
            lptr=lptr, lnbr=lnbr)
        for name, arr in self.arrays.items():
            setattr(self, name, _address(arr))
        self.max_line_degree = int(np.diff(lptr).max())


def graph_tables(g) -> _GraphTables:
    """The kernel's tables for box g, made on first use and kept on g."""
    gt = g.__dict__.get("_kernel_tables")
    if gt is None:
        gt = g._kernel_tables = _GraphTables(g)
    return gt
