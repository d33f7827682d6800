"""The replica map: every estimator's replicas run through analysis.replicas,
which seeds replica i with derive_seed(root, i) and rejects a bad replica
count before any replica runs."""

import ast
import pathlib

import pytest

from contactenv import analysis, blocks, build_box, make_spec
from contactenv.engine import RunParams
from contactenv.graphical import derive_seed

SRC = pathlib.Path(analysis.__file__).parent


def _mentions(node, word):
    """Does a name, attribute or string constant under node contain word?"""
    return any(word in str(getattr(n, "id", None) or getattr(n, "attr", None)
                           or getattr(n, "value", ""))
               for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.Constant)))


def _replica_loops(tree):
    """(function, line) of each for loop or comprehension over a range(...)
    whose arguments name reps, and whose body calls derive_seed."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            else:
                continue
            if any(isinstance(it, ast.Call) and getattr(it.func, "id", None) == "range"
                   and any(_mentions(arg, "reps") for arg in it.args) for it in iters) and \
                    any(isinstance(n, ast.Call) and _mentions(n.func, "derive_seed")
                        for n in ast.walk(node)):
                found.append((fn.name, node.lineno))
    return found


def test_the_map_is_the_only_replica_loop_in_the_package():
    found = [(path.name, fn) for path in sorted(SRC.glob("*.py"))
             for fn, _ in _replica_loops(ast.parse(path.read_text()))]
    assert found == [("analysis.py", "replicas")]


def test_the_scan_finds_a_hand_written_replica_loop():
    src = ("def estimate(root, reps):\n"
           "    k = 0\n"
           "    for i in range(reps):\n"
           "        k += run(derive_seed(root, i))\n"
           "    return k\n"
           "def seeds(cfg):\n"
           "    return [graphical.derive_seed(cfg.seed, i) for i in range(cfg.params['reps'])]\n")
    assert _replica_loops(ast.parse(src)) == [("estimate", 3), ("seeds", 7)]


def test_the_map_yields_in_index_order_with_the_derived_seeds():
    calls = []

    def fn(i, seed):
        calls.append(i)
        return i, seed

    runs = analysis.replicas(77, 5, fn)
    assert calls == []          # lazy: one replica at a time
    assert next(runs) == (0, derive_seed(77, 0)) and calls == [0]
    assert list(runs) == [(i, derive_seed(77, i)) for i in range(1, 5)]
    assert calls == list(range(5))


DP = make_spec("dynamical-percolation", alpha=1.0, beta=1.0)
G = build_box(1, 10)
P = RunParams(G, 2.0, 1.0, DP, 3.0)

# the ten estimators, each a call of reps with valid other arguments
ENTRY_POINTS = {
    "estimate_survival": lambda reps: analysis.estimate_survival(
        P, (G.origin(),), reps=reps, seed=1),
    "hitting_bound_report": lambda reps: analysis.hitting_bound_report(
        1.0, 0.1, [3, 5], reps, 1, strict=False),
    "coupling_speed_report": lambda reps: analysis.coupling_speed_report(
        DP, [0.0, 1.0], reps, 1),
    "growth_vs_coupling_curve": lambda reps: analysis.growth_vs_coupling_curve(
        1.0, DP, [0.0, 1.0], 2.0, reps, 1),
    "self_duality_check": lambda reps: analysis.self_duality_check(
        2.0, 1.0, 1.0, 1.0, [(0,)], [(2,)], 2.0, reps, 1, L=8),
    "condition_block_curve": lambda reps: analysis.condition_block_curve(
        P, 1, [0.0, 1.0], reps, 1),
    "local_survival_proxy": lambda reps: analysis.local_survival_proxy(
        P, G.origin(), 3.0, reps, 1),
    "phase_scan": lambda reps: analysis.phase_scan(
        ("lambda", [1.0, 2.0]), ("beta", [1.0]), {"d": 1, "L": 10, "alpha": 1.0, "r": 1.0},
        3.0, reps, 1),
    "estimate_block_event": lambda reps: blocks.estimate_block_event(
        blocks.A1, 1, 2, 1.0, RunParams(build_box(1, 3), 2.0, 1.0, DP, 2.0), reps, 1),
    "percolation_survival": lambda reps: blocks.percolation_survival(0.5, reps, 10, 1),
}


@pytest.mark.parametrize("reps", [0, -1, 2.5, True], ids=["0", "-1", "2.5", "True"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_a_bad_replica_count_is_rejected_before_any_replica_runs(name, reps, monkeypatch):
    # reps 0 divided by zero, 2.5 failed in range() and -1 in a square root,
    # each after the estimator had started
    def no_run(*args, **kw):
        raise AssertionError("a replica ran")

    for module in (analysis, blocks):
        monkeypatch.setattr(module, "build_timeline", no_run)
    monkeypatch.setattr(blocks, "oriented_percolation_run", no_run)
    with pytest.raises(ValueError, match=f"reps must be a positive integer, got {reps!r}"):
        ENTRY_POINTS[name](reps)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_each_estimator_runs_its_replicas_through_the_map(name, monkeypatch):
    roots = []
    real = analysis.replicas

    def spy(root, reps, fn):
        roots.append((root, reps))
        return real(root, reps, fn)

    monkeypatch.setattr(analysis, "replicas", spy)
    monkeypatch.setattr(blocks, "replicas", spy)
    ENTRY_POINTS[name](3)
    sides = [(derive_seed(1, 1), 3), (derive_seed(1, 2), 3)]
    assert roots == (sides if name == "self_duality_check" else [(1, 3)])


def test_a_repeated_grid_value_is_counted_once():
    # each report keyed its counts by grid value, so a repeated value was
    # counted twice: an empirical frequency of up to 2
    once = analysis.coupling_speed_report(DP, [1.0], 20, 4)
    assert analysis.coupling_speed_report(DP, [1.0, 1.0], 20, 4) == once * 2
    once = analysis.condition_block_curve(P, 1, [1.0], 20, 4)
    assert analysis.condition_block_curve(P, 1, [1.0, 1.0], 20, 4) == once * 2
    once = analysis.hitting_bound_report(1.0, 0.1, [3], 20, 4, strict=False)
    assert analysis.hitting_bound_report(1.0, 0.1, [3, 3], 20, 4, strict=False) == once * 2
    once = analysis.growth_vs_coupling_curve(1.0, DP, [2.0], 2.0, 20, 4)
    assert analysis.growth_vs_coupling_curve(1.0, DP, [2.0, 2.0], 2.0, 20, 4) == once * 2
