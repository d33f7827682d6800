"""The event kernels: that the compiled one loads when a compiler is on
PATH and the plain-Python one runs when none is, that the compiled
kernel's wrapper checks every buffer before C reads it, and that its
library cache recovers from a bad file.  Their outputs are checked against
each other and against the Python kernel run over whole tables in
tests/test_oracle.py and tests/test_fingerprint.py."""

import inspect
import os
import shutil
import subprocess
import sys
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from contactenv import engine, kernel, reference
from contactenv.engine import RunParams, evolve
from contactenv.graphical import build_timeline, derive_seed
from contactenv.lattice import build_box

needs_kernel = pytest.mark.skipif(engine._lib is reference, reason="no C compiler on PATH")


def test_the_kernel_loads_when_the_compiler_is_on_path():
    # a silent fallback to the Python kernel would lose the compiled
    # kernel's speed without failing anything else
    if kernel.compiler() is None:
        assert engine._lib is reference
    else:
        assert engine._lib is not reference and engine._lib.compiler


@pytest.mark.parametrize("lib", [engine._lib, reference], ids=["c", "python"])
def test_a_run_on_another_box_is_rejected(lib, monkeypatch):
    # the table's targets index the box it was drawn on; a smaller box
    # would be read past its end
    monkeypatch.setattr(engine, "_lib", lib)
    small, big = build_box(1, 4), build_box(1, 9)
    tl = build_timeline(big, 2.0, 1.0, 0.0, 3.0, seed=1)
    for g in (small, build_box(2, 2)):
        with pytest.raises(ValueError, match="another size"):
            evolve(RunParams(g, 2.0, 1.0, None, 3.0), (0,), (), tl)
        with pytest.raises(ValueError, match="another size"):
            engine.dual_evolve((0,), RunParams(g, 2.0, 1.0, None, 3.0), (), tl, 2.0)
    # a box of the same size is accepted
    assert evolve(RunParams(build_box(1, 9), 2.0, 1.0, None, 3.0), (9,), (), tl).t_end == 3.0


@needs_kernel
def test_a_fresh_kernel_runs_an_empty_stretch():
    run = _call_args()[0]
    assert [len(a) for a in kernel.load().run(**{**run, "hi": 0})] == [0, 0, 0]


@needs_kernel
def test_threads_run_the_kernel_at_once():
    # a call releases the interpreter lock while C writes its outputs, so
    # threads on their own tables must not share them; more threads than
    # cores, each on W3-shaped runs, against the same runs made one by one
    g = build_box(2, 6)
    spec = engine.make_spec("ising", beta_inv=0.12, d=2)
    P = RunParams(g, 1.0, 1.0, spec, 6.0)
    seeds = [derive_seed(77, i) for i in range(8)]

    def runs(seed):
        tl = build_timeline(g, 1.0, 1.0, spec.flip_rate, 6.0, seed)
        b0 = range(0, g.n_edges, 2)
        return [_fields(evolve(P, range(0, g.n_sites, 3), b0, tl)),
                _fields(engine.dual_evolve((g.origin(),), P, b0, tl, 5.0)),
                _fields(engine.background_path(spec, (), tl))]

    want = [runs(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(3):
            assert list(pool.map(runs, seeds, timeout=120)) == want


def _fields(x):
    if isinstance(x, engine.BackgroundPath):
        return bytes(x._open), x.edge_deltas, bytes(x._flip_at)
    return (x.site_deltas, x.edge_deltas, x.c_final, x.b_final, x.tau_ex, x.boundary_touched)


# ---------------------------------------------------------------------------
# the wrapper's checks

def _call_args():
    g = build_box(1, 6)
    tl = build_timeline(g, 2.0, 1.0, 0.0, 5.0, seed=3)
    n = tl.count_through(5.0)
    C = bytearray(g.n_sites)
    C[g.origin()] = 1
    run = dict(table=tl._buf, n_valid=tl.n_generated, lo=0, hi=n, rev=False, anchor=0.0,
               t_cut=np.inf, g=g, fracs=(1.0, 1.0), limits=(6, np.inf),
               windows=(-1.0, -1.0, -1.0), flags=None, flag_top=-1,
               edges=bytearray(b"\x01" * g.n_edges), infected=C,
               state=array("q", [1, 0, 0]), tau=array("d", [np.inf]), want_deltas=True)
    grow = dict(table=tl._buf, n_valid=tl.n_generated, lo=0, hi=n, rev_top=-1, anchor=0.0,
                g=g, rule=None, edges=bytearray(g.n_edges), open_nbrs=bytearray(g.n_edges),
                flags=bytearray(n))
    level = array("d", [np.inf]) * g.n_sites
    level[g.origin()] = -1.0
    levels = dict(table=tl._buf, n_valid=tl.n_generated, lo=0, hi=n, g=g,
                  fracs=array("d", [0.5, 1.0]), r_frac=1.0, flags=None,
                  edges=bytearray(b"\x01" * g.n_edges), level=level, state=array("q", [0, 1]),
                  touch=array("d", [np.inf]), taus=array("d", [np.inf, np.inf]))
    # two columns: one frozen open, one flipping; three fractions
    masks = array("Q", [1]) * g.n_edges
    level = array("d", [np.inf]) * (2 * g.n_sites)
    level[2 * g.origin():2 * g.origin() + 2] = array("d", [-1.0, -1.0])
    scan = dict(table=tl._buf, n_valid=tl.n_generated, lo=0, hi=n, g=g,
                col_ptr=array("q", [0, 2, 3]), fracs=array("d", [0.5, 1.0, 1.0]),
                r_fracs=array("d", [1.0, 0.5]),
                rule=(array("d", [-np.inf, 1.0]), array("d", [-np.inf, 1.0]), 2.0),
                masks=masks, level=level, state=array("q", [0, 1, 0, 1]),
                touch=array("d", [np.inf, np.inf]), taus=array("d", [np.inf] * 3))
    return run, grow, levels, scan


def _bad_runs(run):
    t, k, i, m = run["table"]
    n = run["n_valid"]
    yield dict(table=(np.zeros(len(t), np.float32), k, i, m))
    yield dict(table=(t, k.astype(np.int32), i, m))
    yield dict(table=(t, k, i, list(m)))
    yield dict(table=(t, k, i, np.repeat(m, 2)[::2]))
    yield dict(table=(t, k, i))
    yield dict(table=(t, k, i[:n - 1], m))
    yield dict(n_valid=len(t) + 1)
    yield dict(hi=n + 1, n_valid=n)
    yield dict(lo=-1)
    yield dict(lo=3, hi=2)
    yield dict(edges=bytearray(run["g"].n_edges - 1))
    yield dict(edges=bytes(run["g"].n_edges))
    yield dict(infected=bytearray(run["g"].n_sites + 1))
    yield dict(flags=bytearray(run["hi"] - 1))
    yield dict(flags=[True] * run["hi"])
    yield dict(flags=bytearray(run["hi"]), flag_top=run["hi"] - 2)
    yield dict(state=array("l", [1, 0]))
    yield dict(state=array("d", [1, 0, 0]))
    yield dict(tau=array("f", [0.0]))


def _bad_grows(grow):
    t, k, i, m = grow["table"]
    n = grow["hi"]
    e = grow["g"].n_edges
    yield dict(table=(t, k, i.astype(np.int64), m))
    yield dict(hi=grow["n_valid"] + 1, flags=bytearray(grow["n_valid"] + 1))
    yield dict(lo=-2)
    yield dict(flags=bytearray(n - 1))
    yield dict(open_nbrs=bytearray(e + 1))
    yield dict(edges=np.zeros(e, np.uint8))
    yield dict(rev_top=n - 2)
    yield dict(rev_top=grow["n_valid"])
    yield dict(rule=(np.zeros(2), np.zeros(2), 1.0))
    yield dict(rule=(np.zeros(3, np.float32), np.zeros(3), 1.0))
    yield dict(rule=(np.zeros(3), np.zeros(6)[::2], 1.0))


def _bad_levels(levels):
    t, k, i, m = levels["table"]
    n_sites, n_edges = levels["g"].n_sites, levels["g"].n_edges
    yield dict(table=(t, k, i, np.repeat(m, 2)[::2]))
    yield dict(table=(t.astype(np.float32), k, i, m))
    yield dict(hi=levels["n_valid"] + 1)
    yield dict(fracs=array("d"), taus=array("d"))
    yield dict(fracs=array("f", [0.5, 1.0]))
    yield dict(fracs=np.array([0.5, 1.0]))
    yield dict(fracs=array("d", [1.0, 0.5]))
    yield dict(level=array("d", [np.inf]) * (n_sites - 1))
    yield dict(level=array("f", [np.inf]) * n_sites)
    yield dict(level=np.full(n_sites, np.inf))
    yield dict(state=array("q", [0, 1, 0]))
    yield dict(state=array("i", [0, 1]))
    yield dict(state=array("q", [3, 1]))
    yield dict(touch=array("d"))
    yield dict(taus=array("d", [np.inf]))
    yield dict(edges=bytearray(n_edges - 1))
    yield dict(flags=bytearray(levels["hi"] - 1))
    yield dict(flags=[True] * levels["hi"])


def _bad_scans(scan):
    t, k, i, m = scan["table"]
    n_sites, n_edges = scan["g"].n_sites, scan["g"].n_edges
    ups, downs, q = scan["rule"]
    yield dict(table=(t, k.astype(np.uint8), i, m))
    yield dict(table=(t, k, i, m.astype(np.float32)))
    yield dict(hi=scan["n_valid"] + 1)
    yield dict(lo=scan["hi"] + 1)
    # no column, or more than 64
    yield dict(col_ptr=array("q", [0]), fracs=array("d"), taus=array("d"))
    yield dict(col_ptr=array("q", range(66)), fracs=array("d", [1.0] * 65),
               r_fracs=array("d", [1.0] * 65), taus=array("d", [1.0] * 65))
    # columns that do not cut the fractions, or are empty
    yield dict(col_ptr=array("q", [0, 2, 2, 3]))
    yield dict(col_ptr=array("q", [1, 2, 3]))
    yield dict(col_ptr=array("q", [0, 2, 4]))
    yield dict(col_ptr=array("q", [0, 3, 2]))
    yield dict(col_ptr=array("i", [0, 2, 3]))
    yield dict(col_ptr=[0, 2, 3])
    # a column's fractions not nondecreasing; a fall between columns is allowed
    yield dict(fracs=array("d", [1.0, 0.5, 1.0]))
    yield dict(fracs=np.array([0.5, 1.0, 1.0]))
    yield dict(fracs=array("f", [0.5, 1.0, 1.0]))
    yield dict(r_fracs=array("d", [1.0]))
    yield dict(r_fracs=array("f", [1.0, 0.5]))
    yield dict(rule=(ups, downs))
    yield dict(rule=None)
    yield dict(rule=(ups, array("d", [1.0]), q))
    yield dict(rule=(np.array(ups), downs, q))
    yield dict(masks=array("Q", [1]) * (n_edges - 1))
    yield dict(masks=array("q", [1]) * n_edges)
    yield dict(masks=np.ones(n_edges, np.uint64))
    yield dict(level=array("d", [np.inf]) * n_sites)
    yield dict(level=array("d", [np.inf]) * (2 * n_sites + 1))
    yield dict(state=array("q", [0, 1]))
    yield dict(state=array("q", [3, 1, 0, 1]))
    yield dict(state=array("q", [0, 1, -1, 1]))
    yield dict(state=array("i", [0, 1, 0, 1]))
    yield dict(touch=array("d", [np.inf]))
    yield dict(taus=array("d", [np.inf] * 2))


@needs_kernel
def test_the_wrapper_rejects_bad_buffers_before_calling_c(monkeypatch):
    lib = engine._lib
    run, grow, levels, scan = _call_args()
    # the unaltered calls go through
    assert len(lib.run(**run)[0])
    assert len(lib.grow(**grow)[0]) == 0      # a frozen table has no flips
    assert lib.levels(**levels) in (0, 1, 2)
    assert lib.scan(**scan) in (0, 1, 2)
    assert lib.scan(**{**_call_args()[3], "fracs": array("d", [0.5, 1.0, 0.25])}) in (0, 1, 2)

    def never(*args):
        raise AssertionError("C was called")

    monkeypatch.setattr(lib, "_run", never)
    monkeypatch.setattr(lib, "_grow", never)
    monkeypatch.setattr(lib, "_levels", never)
    monkeypatch.setattr(lib, "_scan", never)
    for bad in _bad_runs(_call_args()[0]):
        with pytest.raises(ValueError):
            lib.run(**{**_call_args()[0], **bad})
    for bad in _bad_grows(_call_args()[1]):
        with pytest.raises(ValueError):
            lib.grow(**{**_call_args()[1], **bad})
    for bad in _bad_levels(_call_args()[2]):
        with pytest.raises(ValueError):
            lib.levels(**{**_call_args()[2], **bad})
    for bad in _bad_scans(_call_args()[3]):
        with pytest.raises(ValueError):
            lib.scan(**{**_call_args()[3], **bad})


def _loops(namespace):
    """The kernel's loops, the functions whose first argument is the table,
    with their parameter names."""
    loops = {}
    for name, fn in vars(namespace).items():
        if not name.startswith("_") and inspect.isfunction(fn):
            params = [p for p in inspect.signature(fn).parameters if p != "self"]
            if params[:1] == ["table"]:
                loops[name] = params
    return loops


def test_both_kernels_have_the_same_loops():
    # the engine calls either kernel with the same arguments, so a loop
    # written in one only would fail on hosts that run the other
    assert set(_loops(reference)) == {"grow", "run", "levels", "scan"}
    assert _loops(kernel.Kernel) == _loops(reference)


# ---------------------------------------------------------------------------
# the library cache

needs_compiler = pytest.mark.skipif(kernel.compiler() is None, reason="no C compiler on PATH")


@needs_compiler
def test_a_truncated_library_is_rebuilt(tmp_path):
    built = kernel.load(cache_dir=str(tmp_path / "a"))
    target = kernel.library_path(kernel.compiler(), cache_dir=str(tmp_path / "b"))
    os.makedirs(os.path.dirname(target))
    with open(built.path, "rb") as src, open(target, "wb") as dst:
        dst.write(src.read()[:600])
    lib = kernel.load(cache_dir=str(tmp_path / "b"))
    assert lib is not None and lib.path == target
    assert os.path.getsize(target) == os.path.getsize(built.path)
    assert os.listdir(tmp_path / "b") == [os.path.basename(target)]


@needs_compiler
def test_a_changed_source_builds_its_own_library(tmp_path):
    cache = str(tmp_path / "cache")
    old = kernel.load(cache_dir=cache)
    source = tmp_path / "_kernel.c"
    shutil.copy(kernel.SOURCE, source)
    with open(source, "a") as fh:
        fh.write("\n/* changed */\n")
    new = kernel.load(source=str(source), cache_dir=cache)
    assert new is not None and new.path != old.path
    assert new.path == kernel.library_path(kernel.compiler(), str(source), cache)
    assert sorted(os.listdir(cache)) == sorted(os.path.basename(p) for p in (old.path, new.path))


def test_importing_the_package_maps_no_libcrypto():
    # hashlib's _hashlib maps libcrypto, 3.5 MiB of RSS, for two checksums
    code = "import sys, contactenv; print('_hashlib' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0 and done.stdout.strip() == "False", done.stderr


@needs_compiler
def test_two_processes_build_one_cache_at_once(tmp_path):
    cache = str(tmp_path / "cache")
    code = ("import sys; from contactenv import kernel; "
            "lib = kernel.load(cache_dir=sys.argv[1]); print(lib.path if lib else 'none')")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    procs = [subprocess.Popen([sys.executable, "-c", code, cache], stdout=subprocess.PIPE,
                              text=True, env=env) for _ in range(2)]
    paths = {p.communicate(timeout=300)[0].strip() for p in procs}
    assert all(p.returncode == 0 for p in procs)
    target = kernel.library_path(kernel.compiler(), cache_dir=cache)
    assert paths == {target}
    assert os.listdir(cache) == [os.path.basename(target)]     # no temporary file left
