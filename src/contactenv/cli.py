"""Batch runner: JSON config in, CSV plus JSON manifest out.

Every run validates its whole config up front (all errors reported at once,
each with a path into the document), executes one subcommand, and writes a
CSV of results next to a manifest recording the config echo, code version,
derived replica seeds, wall-clock interval, a sha256 of the CSV bytes and,
among its flags, which event kernel ran.
Identical (config, seed, code version) produce byte-identical CSVs; the
manifests differ only in their timestamps.

Exit codes: 0 ok, 2 config error, 3 budget exceeded, 4 internal failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from . import analysis, background, blocks, engine, reference
from .engine import RunParams
from .graphical import derive_seed
from .lattice import SizingError, build_box

OUT_DIR_ENV = "CONTACTENV_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

SUBCOMMANDS = ("survival", "critical", "phase-scan", "duality", "bounds",
               "blocks", "percolation", "c1")


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{path}: {msg}" for path, msg in self.errors))


class BudgetError(RuntimeError):
    pass


@dataclass
class RunConfig:
    subcommand: str
    seed: int
    out_dir: str
    threads: int
    max_events: int
    max_replicas: int
    wall_clock_hint_s: float | None
    params: dict

    def label(self) -> str:
        return self.subcommand.replace("-", "_")


@dataclass
class RunManifest:
    config: dict
    code_version: str
    root_seed: int
    derived_seeds: list
    started_utc: float
    finished_utc: float
    outputs: dict               # filename -> sha256 of bytes
    flags: dict


_COMMON_KEYS = {"subcommand", "seed", "out_dir", "threads", "max_events",
                "max_replicas", "wall_clock_hint_s"}

_SPEC_KEYS = {"kind", "alpha", "beta", "beta_inv"}

_PARAM_KEYS = {
    "survival": {"d", "L", "lambda", "r", "spec", "T", "reps", "c0", "start_mode"},
    "critical": {"d", "L", "r", "spec", "T", "reps_per_probe", "tol",
                 "start_mode", "lam_init", "max_probes"},
    "phase-scan": {"d", "L", "axis1", "axis2", "fixed", "T", "reps"},
    "duality": {"d", "L", "lambda", "r", "alpha", "beta", "C", "A", "t", "reps"},
    "bounds": {"d", "lambda", "c", "distances", "reps"},
    "blocks": {"d", "event", "n", "block_L", "T", "lambda", "r", "alpha", "beta",
               "reps", "box_L"},
    "percolation": {"q", "k_max", "reps", "w0"},
    "c1": {"lambda", "degree", "rho"},
}

_REQUIRED = {
    "survival": {"d", "L", "lambda", "r", "T", "reps"},
    "critical": {"d", "L", "r", "T", "reps_per_probe", "tol"},
    "phase-scan": {"d", "L", "axis1", "axis2", "fixed", "T", "reps"},
    "duality": {"d", "L", "lambda", "r", "alpha", "beta", "C", "A", "t", "reps"},
    "bounds": {"lambda", "c", "distances", "reps"},
    "blocks": {"event", "n", "block_L", "T", "lambda", "r", "alpha", "beta",
               "reps", "box_L"},
    "percolation": {"q", "k_max", "reps"},
    "c1": {"lambda", "degree"},
}


def _check_number(errors, doc, path, key, *, required=False, minimum=None,
                  strict_min=False, integer=False):
    if key not in doc:
        if required:
            errors.append((path + key, "missing required field"))
        return None
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        errors.append((path + key, f"expected a number, got {type(v).__name__}"))
        return None
    if not math.isfinite(v):
        errors.append((path + key, "must be finite"))
        return None
    if integer and int(v) != v:
        errors.append((path + key, "expected an integer"))
        return None
    if minimum is not None:
        if strict_min and v <= minimum:
            errors.append((path + key, f"must be > {minimum}"))
            return None
        if not strict_min and v < minimum:
            errors.append((path + key, f"must be >= {minimum}"))
            return None
    return int(v) if integer else float(v)


# phase-scan settings: keyword arguments of _check_number for each value
_SCAN_SETTINGS = {"lambda": dict(minimum=0.0), "r": dict(minimum=0.0),
                  "alpha": dict(minimum=0.0, strict_min=True),
                  "beta": dict(minimum=0.0, strict_min=True),
                  "d": dict(minimum=1, integer=True), "L": dict(minimum=1, integer=True)}


def _check_phase_scan(errors, doc, params):
    """The two axes and the fixed settings of a phase scan: known names,
    distinct finite values in range, both rates set, alpha and beta set
    together, no fixed key that names an axis, and a fixed d or L equal to
    the top-level one."""
    names = set()
    for ax in ("axis1", "axis2"):
        spec = doc.get(ax)
        if not (isinstance(spec, list) and len(spec) == 2 and isinstance(spec[0], str)
                and isinstance(spec[1], list) and spec[1]):
            errors.append((f".{ax}", 'expected ["name", [values...]]'))
            continue
        name, values = spec
        if name not in analysis.AXIS_NAMES:
            errors.append((f".{ax}[0]", f"must be one of {', '.join(analysis.AXIS_NAMES)}"))
            continue
        if name in names:
            errors.append((f".{ax}[0]", "the two axes must differ"))
        names.add(name)
        n_errors = len(errors)
        checked = [_check_number(errors, {f"[{i}]": v}, f".{ax}[1]", f"[{i}]",
                                 **_SCAN_SETTINGS[name]) for i, v in enumerate(values)]
        if len(errors) == n_errors and len(set(checked)) != len(checked):
            errors.append((f".{ax}[1]", "values must be distinct"))
        if len(errors) == n_errors:
            params[ax] = (name, checked)
    fixed = doc.get("fixed")
    if not isinstance(fixed, dict):
        errors.append((".fixed", "expected an object"))
        return
    for key in fixed:
        if key not in _SCAN_SETTINGS:
            errors.append((f".fixed.{key}", "unknown key"))
        elif key in names:
            errors.append((f".fixed.{key}", "names an axis; set it there only"))
        else:
            v = _check_number(errors, fixed, ".fixed.", key, **_SCAN_SETTINGS[key])
            if key in ("d", "L") and None not in (v, params[key]) and v != params[key]:
                errors.append((f".fixed.{key}", f"{v} differs from the top-level {key} "
                               f"{params[key]}"))
    given = names | set(fixed)
    for key in ("lambda", "r"):
        if key not in given:
            errors.append((f".fixed.{key}", "missing: set it here or on an axis"))
    if ("alpha" in given) != ("beta" in given):
        errors.append((".fixed", "alpha and beta must be set together"))
    params["fixed"] = fixed


def _validate_spec(errors, doc, path):
    if doc is None:
        return None
    if not isinstance(doc, dict):
        errors.append((path, "spec must be an object or null"))
        return None
    for k in doc:
        if k not in _SPEC_KEYS:
            errors.append((f"{path}.{k}", "unknown key"))
    kind = doc.get("kind")
    if kind not in (background.DYNAMICAL_PERCOLATION, background.NOISY_VOTER,
                    background.ISING):
        errors.append((f"{path}.kind", f"unknown background kind {kind!r}"))
        return None
    return doc


def parse_config(source: str) -> RunConfig:
    """Parse a config from a file path or an inline JSON string.

    Collects every validation problem before failing, each tagged with a
    dotted path into the document.
    """
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError([("(file)", str(exc))])
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([("(json)", str(exc))])
    if not isinstance(doc, dict):
        raise ConfigError([("(root)", "config must be a JSON object")])

    errors = []
    sub = doc.get("subcommand")
    if sub not in SUBCOMMANDS:
        errors.append((".subcommand", f"must be one of {', '.join(SUBCOMMANDS)}"))
        raise ConfigError(errors)

    allowed = _COMMON_KEYS | _PARAM_KEYS[sub]
    for k in doc:
        if k not in allowed:
            errors.append((f".{k}", "unknown key"))

    seed = _check_number(errors, doc, ".", "seed", minimum=0, integer=True)
    threads = _check_number(errors, doc, ".", "threads", minimum=1, integer=True)
    max_events = _check_number(errors, doc, ".", "max_events", minimum=1, integer=True)
    max_replicas = _check_number(errors, doc, ".", "max_replicas", minimum=1, integer=True)
    wall = _check_number(errors, doc, ".", "wall_clock_hint_s", minimum=0)
    out_dir = doc.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        errors.append((".out_dir", "must be a string"))
        out_dir = None

    params = {}
    req = _REQUIRED[sub]

    def num(key, **kw):
        params[key] = _check_number(errors, doc, ".", key, required=key in req, **kw)

    if sub in ("survival", "critical", "phase-scan", "duality", "blocks", "bounds"):
        num("d", minimum=1, integer=True)
    if sub in ("survival", "critical", "phase-scan", "duality"):
        num("L", minimum=1, integer=True)
    if sub in ("survival", "duality", "bounds", "blocks", "c1"):
        num("lambda", minimum=0.0)
    if sub in ("survival", "critical", "duality", "blocks"):
        num("r", minimum=0.0)
    if sub in ("survival", "critical", "phase-scan", "blocks"):
        num("T", minimum=0.0, strict_min=True)
    if sub in ("survival", "phase-scan", "duality", "bounds", "blocks", "percolation"):
        num("reps", minimum=1, integer=True)

    if sub in ("survival", "critical"):
        params["spec"] = _validate_spec(errors, doc.get("spec"), ".spec")
        params["start_mode"] = doc.get("start_mode", "fixed-B0")
        if params["start_mode"] not in ("fixed-B0", "stationary-dp", "burn-in"):
            errors.append((".start_mode", f"unknown start mode {params['start_mode']!r}"))
    if sub == "survival":
        params["c0"] = doc.get("c0", "origin")
    if sub == "critical":
        num("reps_per_probe", minimum=1, integer=True)
        num("tol", minimum=0.0, strict_min=True)
        num("lam_init", minimum=0.0, strict_min=True)
        num("max_probes", minimum=1, integer=True)
    if sub == "phase-scan":
        _check_phase_scan(errors, doc, params)
    if sub == "duality":
        num("alpha", minimum=0.0, strict_min=True)
        num("beta", minimum=0.0, strict_min=True)
        num("t", minimum=0.0, strict_min=True)
        for key in ("C", "A"):
            v = doc.get(key)
            if not (isinstance(v, list) and v):
                errors.append((f".{key}", "expected a nonempty list of lattice points"))
            else:
                params[key] = v
    if sub == "bounds":
        num("c", minimum=0.0, strict_min=True)
        v = doc.get("distances")
        if not (isinstance(v, list) and v and all(isinstance(x, int) and x >= 1 for x in v)):
            errors.append((".distances", "expected a nonempty list of integers >= 1"))
        else:
            params["distances"] = v
    if sub == "blocks":
        ev = doc.get("event")
        if ev not in (blocks.A1, blocks.A2, blocks.A3):
            errors.append((".event", "must be A1, A2 or A3"))
        params["event"] = ev
        num("n", minimum=1, integer=True)
        num("block_L", minimum=1, integer=True)
        num("box_L", minimum=1, integer=True)
        num("alpha", minimum=0.0, strict_min=True)
        num("beta", minimum=0.0, strict_min=True)
    if sub == "percolation":
        qv = doc.get("q")
        if isinstance(qv, list):
            good = all(isinstance(x, (int, float)) and 0 <= x <= 1 for x in qv) and qv
            if not good:
                errors.append((".q", "expected values in [0, 1]"))
            else:
                params["q"] = [float(x) for x in qv]
        else:
            q = _check_number(errors, doc, ".", "q", required=True, minimum=0.0)
            if q is not None and q > 1.0:
                errors.append((".q", "must be <= 1"))
            params["q"] = [q] if q is not None else None
        num("k_max", minimum=1, integer=True)
        w0 = doc.get("w0", [0])
        if not (isinstance(w0, list) and all(isinstance(x, int) for x in w0)):
            errors.append((".w0", "expected a list of integers"))
        params["w0"] = w0
    if sub == "c1":
        num("degree", minimum=1, integer=True)
        num("rho", minimum=0.0)
        params.setdefault("rho", 0.0)
        if params.get("lambda") is not None and params["lambda"] <= 0:
            errors.append((".lambda", "must be > 0"))

    if errors:
        raise ConfigError(errors)

    return RunConfig(
        subcommand=sub,
        seed=0 if seed is None else seed,
        out_dir=out_dir or os.environ.get(OUT_DIR_ENV, "."),
        threads=threads or 1,
        max_events=max_events or 20_000_000,
        max_replicas=max_replicas or 1_000_000,
        wall_clock_hint_s=wall,
        params=params,
    )


def _make_spec(doc, d):
    if doc is None:
        return None
    return background.make_spec(doc["kind"], alpha=doc.get("alpha"),
                                beta=doc.get("beta"), beta_inv=doc.get("beta_inv"),
                                d=d)


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _est_cols():
    return ["p_hat", "n_reps", "half_width", "censored_frac", "boundary_frac"]


def _est_row(est):
    return [est.p_hat, est.n_reps, est.half_width, est.censored_frac, est.boundary_frac]


def _run_survival(cfg: RunConfig):
    p = cfg.params
    if p["reps"] > cfg.max_replicas:
        raise BudgetError(f"reps {p['reps']} exceed max_replicas {cfg.max_replicas}")
    d = p["d"]
    g = build_box(d, p["L"])
    spec = _make_spec(p.get("spec"), d)
    c0_doc = p.get("c0", "origin")
    if c0_doc == "origin":
        c0 = (g.origin(),)
    else:
        c0 = tuple(g.site_index(tuple(x)) for x in c0_doc)
    params = RunParams(g, p["lambda"], p["r"], spec, p["T"], cfg.seed)
    est = analysis.estimate_survival(params, c0, start_mode=p["start_mode"],
                                     reps=p["reps"], seed=cfg.seed,
                                     max_events=cfg.max_events)
    seeds = [derive_seed(cfg.seed, i) for i in range(p["reps"])]
    header = ["lambda", "r", "T", "L", "d"] + _est_cols()
    rows = [[p["lambda"], p["r"], p["T"], p["L"], d] + _est_row(est)]
    return _csv(header, rows), seeds, {}


def _run_critical(cfg: RunConfig):
    """Probe-by-probe bracket; max_replicas caps each probe's replicas and
    max_events each replica's timeline."""
    p = cfg.params
    if p["reps_per_probe"] > cfg.max_replicas:
        raise BudgetError(f"reps_per_probe {p['reps_per_probe']} exceed "
                          f"max_replicas {cfg.max_replicas}")
    d = p["d"]
    spec = _make_spec(p.get("spec"), d)
    kw = {key: p[key] for key in ("lam_init", "max_probes") if p.get(key) is not None}
    bracket = analysis.estimate_critical_lambda(
        p["r"], spec, start_mode=p["start_mode"], T=p["T"], L=p["L"],
        tol=p["tol"], reps_per_probe=p["reps_per_probe"], seed=cfg.seed, d=d,
        max_events=cfg.max_events, **kw)
    header = ["lambda", "verdict"] + _est_cols()
    rows = [[lam, verdict] + _est_row(est) for lam, est, verdict in bracket.probes]
    rows.append([bracket.lam_lo, "bracket_lo"] + [""] * 5)
    rows.append([bracket.lam_hi, "bracket_hi"] + [""] * 5)
    flags = {"converged": bracket.converged, "statement": bracket.statement}
    return _csv(header, rows), [cfg.seed], flags


def _run_phase_scan(cfg: RunConfig):
    """One analysis.phase_scan call, asked for each axis-2 column, before
    any sweep, whether to admit it: it stops at a column whose expected
    events would take the scan past max_events, or once wall_clock_hint_s
    has passed, and the CSV then holds the columns admitted."""
    p = cfg.params
    if p["reps"] > cfg.max_replicas:
        raise BudgetError(f"reps {p['reps']} exceed max_replicas {cfg.max_replicas}")
    fixed = dict(p["fixed"])
    fixed.setdefault("d", p["d"])
    fixed.setdefault("L", p["L"])
    spent = 0.0
    stop = {}
    started = time.time()

    def proceed(column_events):
        nonlocal spent
        if spent + column_events > cfg.max_events:
            stop["reason"] = "event budget"
        elif (cfg.wall_clock_hint_s is not None
              and time.time() - started > cfg.wall_clock_hint_s):
            stop["reason"] = "wall clock"
        else:
            spent += column_events
        return not stop

    scan = analysis.phase_scan(p["axis1"], p["axis2"], fixed, p["T"], p["reps"],
                               cfg.seed, proceed=proceed)
    header = [scan.axis1, scan.axis2] + _est_cols() + ["fixed"]
    fixed_str = json.dumps(fixed, sort_keys=True).replace(",", ";")
    rows = [[v1, v2] + _est_row(est) + [fixed_str] for v1, v2, est in scan.rows()]
    flags = {}
    if stop:
        flags = {"budget_exceeded": True, "completed_columns": len(scan.values2), **stop}
    seeds = [derive_seed(cfg.seed, i) for i in range(p["reps"])]
    return _csv(header, rows), seeds, flags


def _run_duality(cfg: RunConfig):
    p = cfg.params
    est1, est2, z = analysis.self_duality_check(
        p["lambda"], p["r"], p["alpha"], p["beta"],
        [tuple(x) for x in p["C"]], [tuple(x) for x in p["A"]],
        p["t"], p["reps"], cfg.seed, d=p["d"], L=p["L"])
    header = ["direction"] + _est_cols() + ["z"]
    rows = [["C-to-A"] + _est_row(est1) + [""],
            ["A-to-C"] + _est_row(est2) + [""],
            ["z-score", "", "", "", "", "", z]]
    return _csv(header, rows), [derive_seed(cfg.seed, 1), derive_seed(cfg.seed, 2)], {}


def _run_bounds(cfg: RunConfig):
    p = cfg.params
    rows_out = analysis.hitting_bound_report(p["lambda"], p["c"], p["distances"],
                                             p["reps"], cfg.seed,
                                             d=p.get("d") or 1, strict=False)
    header = ["distance", "empirical", "half_width", "bound", "within"]
    rows = [[r.distance, r.empirical, r.half_width, r.bound, int(r.within)]
            for r in rows_out]
    seeds = [derive_seed(cfg.seed, i) for i in range(p["reps"])]
    return _csv(header, rows), seeds, {}


def _run_blocks(cfg: RunConfig):
    p = cfg.params
    d = p.get("d") or 1
    g = build_box(d, p["box_L"])
    spec = background.make_spec(background.DYNAMICAL_PERCOLATION,
                                alpha=p["alpha"], beta=p["beta"], d=d)
    params = RunParams(g, p["lambda"], p["r"], spec, p["T"], cfg.seed)
    est = blocks.estimate_block_event(p["event"], p["n"], p["block_L"], p["T"],
                                      params, p["reps"], cfg.seed)
    header = ["event", "n", "L", "T"] + _est_cols()
    rows = [[p["event"], p["n"], p["block_L"], p["T"]] + _est_row(est)]
    seeds = [derive_seed(cfg.seed, i) for i in range(p["reps"])]
    return _csv(header, rows), seeds, {}


def _run_percolation(cfg: RunConfig):
    p = cfg.params
    header = ["q", "k_max"] + _est_cols()
    rows = []
    for q in p["q"]:
        est = blocks.percolation_survival(q, p["reps"], p["k_max"], cfg.seed,
                                          w0=tuple(p["w0"]))
        rows.append([q, p["k_max"]] + _est_row(est))
    seeds = [derive_seed(cfg.seed, i) for i in range(p["reps"])]
    return _csv(header, rows), seeds, {}


def _run_c1(cfg: RunConfig):
    p = cfg.params
    lam, degree, rho = p["lambda"], p["degree"], p.get("rho") or 0.0
    c1 = analysis.solve_c1(lam, degree, rho)
    resid = analysis.growth_gap(c1, lam, degree, rho)
    header = ["lambda", "degree", "rho", "c1", "residual"]
    rows = [[lam, degree, rho, c1, resid]]
    return _csv(header, rows), [cfg.seed], {}


_RUNNERS = {
    "survival": _run_survival,
    "critical": _run_critical,
    "phase-scan": _run_phase_scan,
    "duality": _run_duality,
    "bounds": _run_bounds,
    "blocks": _run_blocks,
    "percolation": _run_percolation,
    "c1": _run_c1,
}


def _kernel_flags() -> dict:
    """Which event kernel runs: "c", with the compiler that built it, or
    "python" when the compiled kernel did not load."""
    lib = engine._lib
    return {"kernel": "python"} if lib is reference else {"kernel": "c",
                                                          "kernel_compiler": lib.compiler}


def _atomic_write(path: str, data: bytes):
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def run(cfg: RunConfig) -> int:
    """Execute one validated config; returns the process exit code."""
    started = time.time()
    os.makedirs(cfg.out_dir, exist_ok=True)
    flags = {}
    try:
        csv_text, seeds, flags = _RUNNERS[cfg.subcommand](cfg)
        code = EXIT_BUDGET if flags.get("budget_exceeded") else EXIT_OK
    except (SizingError, BudgetError) as exc:
        flags = {"budget_exceeded": True, "error": str(exc)}
        csv_text, seeds = "", []
        code = EXIT_BUDGET
    flags.update(_kernel_flags())
    csv_name = f"{cfg.label()}.csv"
    csv_bytes = csv_text.encode()
    if csv_text:
        _atomic_write(os.path.join(cfg.out_dir, csv_name), csv_bytes)
    manifest = RunManifest(
        config={"subcommand": cfg.subcommand, "seed": cfg.seed,
                "threads": cfg.threads, "max_events": cfg.max_events,
                "max_replicas": cfg.max_replicas,
                "params": _jsonable(cfg.params)},
        code_version=__version__,
        root_seed=cfg.seed,
        derived_seeds=seeds[:10000],
        started_utc=started,
        finished_utc=time.time(),
        outputs={csv_name: hashlib.sha256(csv_bytes).hexdigest()} if csv_text else {},
        flags=flags,
    )
    _atomic_write(os.path.join(cfg.out_dir, f"{cfg.label()}_manifest.json"),
                  json.dumps(manifest.__dict__, sort_keys=True, indent=1).encode())
    return code


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="contactenv",
        description="Reproducible contact-process experiments on dynamic lattice environments")
    ap.add_argument("--config", required=True,
                    help="path to a JSON config, or an inline JSON object")
    ap.add_argument("--seed", type=int, default=None, help="override the config seed")
    ap.add_argument("--out", default=None, help="override the output directory")
    ap.add_argument("--threads", type=int, default=None,
                    help="recorded in the manifest; results do not depend on it")
    ap.add_argument("--dry-run", action="store_true", help="validate only")
    args = ap.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        for path, msg in exc.errors:
            print(f"config error at {path}: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.threads is not None:
        cfg.threads = max(1, args.threads)
    if args.dry_run:
        print(f"config ok: {cfg.subcommand}, seed {cfg.seed}, out {cfg.out_dir}")
        return EXIT_OK
    try:
        return run(cfg)
    except Exception as exc:   # noqa: BLE001 - map anything unexpected to exit 4
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
