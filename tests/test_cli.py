import json
import math
import os
import subprocess
import sys

import pytest

from contactenv import analysis, blocks, cli, engine, kernel, reference
from test_acceptance import DETERMINISM_CONFIGS


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


MINIMAL_SURVIVAL = {
    "subcommand": "survival", "seed": 5, "d": 1, "L": 10, "lambda": 1.5,
    "r": 1.0, "T": 4.0, "reps": 20,
    "spec": {"kind": "dynamical-percolation", "alpha": 1.0, "beta": 1.0},
}


class TestParseConfig:
    def test_minimal_survival_accepted(self, tmp_path):
        cfg = cli.parse_config(write_cfg(tmp_path, MINIMAL_SURVIVAL))
        assert cfg.subcommand == "survival"
        assert cfg.seed == 5

    def test_inline_json(self):
        cfg = cli.parse_config(json.dumps({"subcommand": "c1", "lambda": 1.0,
                                           "degree": 2}))
        assert cfg.subcommand == "c1"

    def test_negative_lambda_rejected_with_path(self):
        doc = dict(MINIMAL_SURVIVAL)
        doc["lambda"] = -1.0
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(json.dumps(doc))
        assert any(path == ".lambda" for path, _ in err.value.errors)

    def test_misspelled_key_rejected(self):
        doc = dict(MINIMAL_SURVIVAL)
        doc.pop("lambda")
        doc["lamda"] = 1.0
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(json.dumps(doc))
        paths = [p for p, _ in err.value.errors]
        assert ".lamda" in paths          # unknown key
        assert ".lambda" in paths         # and the real one is missing

    def test_all_errors_collected(self):
        doc = {"subcommand": "survival", "d": 0, "L": -1, "lambda": "x",
               "r": 1.0, "T": 0, "reps": 0, "bogus": 1}
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(json.dumps(doc))
        assert len(err.value.errors) >= 5

    def test_bad_json_is_config_error(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("{not json")

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("/no/such/file.json")


class TestRun:
    def test_c1_csv(self, tmp_path):
        doc = {"subcommand": "c1", "lambda": 1.0, "degree": 2, "rho": 0.0,
               "out_dir": str(tmp_path)}
        assert cli.run(cli.parse_config(json.dumps(doc))) == 0
        text = (tmp_path / "c1.csv").read_text()
        header, row = text.strip().split("\n")
        assert header == "lambda,degree,rho,c1,residual"
        c1 = float(row.split(",")[3])
        assert abs(c1 - 0.231961) < 1e-5
        manifest = json.loads((tmp_path / "c1_manifest.json").read_text())
        assert manifest["outputs"]["c1.csv"]

    def test_manifest_names_the_kernel(self, tmp_path, monkeypatch):
        doc = {"subcommand": "c1", "lambda": 1.0, "degree": 2, "rho": 0.0,
               "out_dir": str(tmp_path)}
        for lib in (engine._lib, reference):
            assert cli.run(cli.parse_config(json.dumps(doc))) == 0
            flags = json.loads((tmp_path / "c1_manifest.json").read_text())["flags"]
            if lib is reference:
                assert flags == {"kernel": "python"}
            else:
                assert flags == {"kernel": "c", "kernel_compiler": lib.compiler}
                assert lib.compiler.split()[0] == os.path.basename(kernel.compiler()[0])
            monkeypatch.setattr(engine, "_lib", reference)

    def test_without_a_compiler_the_python_kernel_runs(self, tmp_path):
        # a fresh process with no C compiler on PATH selects the Python
        # kernel when it imports the engine, and its CLI run writes the
        # bytes of the same run in this process
        doc = dict(MINIMAL_SURVIVAL, out_dir=str(tmp_path / "here"))
        assert cli.run(cli.parse_config(json.dumps(doc))) == 0
        code = ("import sys; from contactenv import cli, engine, kernel, reference; "
                "assert kernel.compiler() is None and engine._lib is reference; "
                "sys.exit(cli.main(['--config', sys.argv[1]]))")
        env = {**os.environ, "PATH": "", "PYTHONPATH": os.pathsep.join(sys.path)}
        child = json.dumps(dict(doc, out_dir=str(tmp_path / "child")))
        done = subprocess.run([sys.executable, "-c", code, child], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "child" / "survival.csv").read_bytes() == \
            (tmp_path / "here" / "survival.csv").read_bytes()
        manifest = json.loads((tmp_path / "child" / "survival_manifest.json").read_text())
        assert manifest["flags"]["kernel"] == "python"
        assert "kernel_compiler" not in manifest["flags"]

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        doc = dict(MINIMAL_SURVIVAL)
        for out in (out1, out2):
            doc["out_dir"] = str(out)
            assert cli.run(cli.parse_config(json.dumps(doc))) == 0
        b1 = (out1 / "survival.csv").read_bytes()
        b2 = (out2 / "survival.csv").read_bytes()
        assert b1 == b2
        m1 = json.loads((out1 / "survival_manifest.json").read_text())
        m2 = json.loads((out2 / "survival_manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]
        assert m1["derived_seeds"] == m2["derived_seeds"]

    def test_the_manifest_seeds_derive_no_more_than_it_keeps(self, monkeypatch):
        # at the default cap of 10^6 replicas, deriving every seed for a
        # manifest that keeps 10,000 took 1.3 s
        calls = []
        real = analysis.derive_seed

        def counted(root, i):
            calls.append(i)
            return real(root, i)

        monkeypatch.setattr(analysis, "derive_seed", counted)
        cfg = cli.parse_config(json.dumps(dict(MINIMAL_SURVIVAL, reps=25_000)))
        seeds = cli._seeds(cfg)
        assert calls == list(range(10_000))
        assert seeds == [real(5, i) for i in range(10_000)]
        assert cli._seeds(cli.parse_config(json.dumps(MINIMAL_SURVIVAL))) == \
            [real(5, i) for i in range(20)]

    def test_budget_exit_code_and_flag(self, tmp_path):
        doc = dict(MINIMAL_SURVIVAL)
        doc["out_dir"] = str(tmp_path)
        doc["max_replicas"] = 5
        code = cli.run(cli.parse_config(json.dumps(doc)))
        assert code == cli.EXIT_BUDGET
        manifest = json.loads((tmp_path / "survival_manifest.json").read_text())
        assert manifest["flags"]["budget_exceeded"]

    def test_phase_scan_partial_csv_on_budget(self, tmp_path):
        doc = {"subcommand": "phase-scan", "seed": 4, "d": 1, "L": 15,
               "axis1": ["lambda", [0.5, 1.5]], "axis2": ["beta", [0.5, 1.0, 2.0]],
               "fixed": {"alpha": 1.0, "r": 1.0}, "T": 5.0, "reps": 30,
               "out_dir": str(tmp_path), "max_events": 50_000}
        code = cli.run(cli.parse_config(json.dumps(doc)))
        assert code == cli.EXIT_BUDGET
        rows = (tmp_path / "phase_scan.csv").read_text().strip().split("\n")[1:]
        assert 0 < len(rows) < 6  # partial matrix
        manifest = json.loads((tmp_path / "phase_scan_manifest.json").read_text())
        assert manifest["flags"]["budget_exceeded"]

    @pytest.mark.parametrize("axis1,axis2,fixed", [
        (["lambda", [0.5, 1.5]], ["beta", [0.5, 2.0]], {"alpha": 1.0, "r": 1.0}),
        (["beta", [0.5, 2.0]], ["lambda", [0.5, 1.5, 2.5]], {"alpha": 1.0, "r": 1.0}),
        (["beta", [0.5, 2.0]], ["r", [0.5, 1.0, 2.0]], {"alpha": 1.0, "lambda": 2.0}),
    ], ids=["lambda-beta", "beta-lambda", "beta-r"])
    def test_phase_scan_columnwise_matches_library(self, tmp_path, axis1, axis2, fixed):
        from contactenv import phase_scan
        doc = {"subcommand": "phase-scan", "seed": 4, "d": 1, "L": 15,
               "axis1": axis1, "axis2": axis2, "fixed": fixed, "T": 5.0, "reps": 30,
               "out_dir": str(tmp_path)}
        assert cli.run(cli.parse_config(json.dumps(doc))) == 0
        rows = (tmp_path / "phase_scan.csv").read_text().strip().split("\n")[1:]
        scan = phase_scan(axis1, axis2, {"d": 1, "L": 15, **fixed}, T=5.0, reps=30, seed=4)
        lib = {(v1, v2): cli._est_row(est) for v1, v2, est in scan.rows()}
        cells = {}
        for row in rows:
            parts = row.split(",")
            key = (float(parts[0]), float(parts[1]))
            cells[key] = float(parts[2])
            assert [float(x) for x in parts[2:7]] == lib[key]
        assert len(cells) == len(lib)
        # along lambda survival rises and along r it falls, replica by replica
        for axis, other, vals, others in ((0, 1, axis1[1], axis2[1]),
                                          (1, 0, axis2[1], axis1[1])):
            name = (axis1, axis2)[axis][0]
            if name not in ("lambda", "r"):
                continue
            for w in others:
                line = [cells[(v, w) if axis == 0 else (w, v)] for v in sorted(vals)]
                if name == "r":
                    line.reverse()
                assert line == sorted(line), (name, w, line)

    def test_phase_scan_stops_on_the_wall_clock_hint(self, tmp_path):
        doc = {"subcommand": "phase-scan", "seed": 4, "d": 1, "L": 15,
               "axis1": ["lambda", [0.5, 1.5]], "axis2": ["beta", [0.5, 1.0, 2.0]],
               "fixed": {"alpha": 1.0, "r": 1.0}, "T": 5.0, "reps": 30,
               "out_dir": str(tmp_path), "wall_clock_hint_s": 0}
        assert cli.run(cli.parse_config(json.dumps(doc))) == cli.EXIT_BUDGET
        flags = json.loads((tmp_path / "phase_scan_manifest.json").read_text())["flags"]
        assert flags["reason"] == "wall clock"
        assert flags["completed_columns"] <= 1
        rows = (tmp_path / "phase_scan.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 2 * flags["completed_columns"]

    def test_percolation_and_blocks(self, tmp_path):
        doc = {"subcommand": "percolation", "q": [0.3, 0.9], "k_max": 30,
               "reps": 50, "seed": 2, "out_dir": str(tmp_path)}
        assert cli.run(cli.parse_config(json.dumps(doc))) == 0
        rows = (tmp_path / "percolation.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 2
        doc2 = {"subcommand": "blocks", "event": "A1", "n": 1, "block_L": 2,
                "box_L": 3, "T": 1.0, "lambda": 0.0, "r": 1.0, "alpha": 1.0,
                "beta": 1.0, "reps": 40, "seed": 3, "out_dir": str(tmp_path)}
        assert cli.run(cli.parse_config(json.dumps(doc2))) == 0

    def test_survival_with_explicit_sites(self, tmp_path):
        doc = dict(MINIMAL_SURVIVAL)
        doc["out_dir"] = str(tmp_path)
        doc["c0"] = [[0], [1], [-1]]
        assert cli.run(cli.parse_config(json.dumps(doc))) == 0
        row = (tmp_path / "survival.csv").read_text().strip().split("\n")[1]
        assert 0.0 <= float(row.split(",")[5]) <= 1.0

    CRITICAL = {"subcommand": "critical", "seed": 3, "d": 1, "L": 10, "r": 1.0,
                "T": 4.0, "reps_per_probe": 20, "tol": 2.0, "max_probes": 1}

    def test_critical_rejects_reps_over_max_replicas(self, tmp_path):
        doc = dict(self.CRITICAL, out_dir=str(tmp_path), max_replicas=19)
        assert cli.run(cli.parse_config(json.dumps(doc))) == cli.EXIT_BUDGET
        manifest = json.loads((tmp_path / "critical_manifest.json").read_text())
        assert "max_replicas" in manifest["flags"]["error"]
        doc["max_replicas"] = 20
        assert cli.run(cli.parse_config(json.dumps(doc))) == cli.EXIT_OK

    @pytest.mark.parametrize("doc", [doc for doc in DETERMINISM_CONFIGS if doc["subcommand"]
                                     in ("bounds", "percolation", "blocks", "duality")],
                             ids=lambda doc: doc["subcommand"])
    def test_every_subcommand_rejects_reps_over_max_replicas(self, doc, tmp_path,
                                                            monkeypatch):
        # bounds ran all 20 replicas of a reps-20, max_replicas-5 config and exited 0
        def no_run(*args, **kw):
            raise AssertionError("ran a replica over the replica budget")

        for module in (analysis, blocks):
            monkeypatch.setattr(module, "build_timeline", no_run)
        monkeypatch.setattr(blocks, "oriented_percolation_run", no_run)
        cfg = cli.parse_config(json.dumps(dict(doc, out_dir=str(tmp_path),
                                               max_replicas=doc["reps"] - 1)))
        assert cli.run(cfg) == cli.EXIT_BUDGET
        manifest = json.loads((tmp_path / f"{cfg.label()}_manifest.json").read_text())
        assert f"reps {doc['reps']} exceed max_replicas" in manifest["flags"]["error"]
        assert manifest["outputs"] == {} and manifest["derived_seeds"] == []
        assert not (tmp_path / f"{cfg.label()}.csv").exists()

    def test_critical_max_events_is_a_per_timeline_budget(self, tmp_path):
        # one replica's timeline at lam_init 1: (1*2*20 + 1*21) * 4 = 244 events
        doc = dict(self.CRITICAL, out_dir=str(tmp_path), max_events=243)
        assert cli.run(cli.parse_config(json.dumps(doc))) == cli.EXIT_BUDGET
        manifest = json.loads((tmp_path / "critical_manifest.json").read_text())
        assert "event budget" in manifest["flags"]["error"]
        doc["max_events"] = 244
        assert cli.run(cli.parse_config(json.dumps(doc))) == cli.EXIT_OK

    def test_threads_pool_runs(self, tmp_path):
        doc = dict(MINIMAL_SURVIVAL)
        doc["out_dir"] = str(tmp_path)
        doc["threads"] = 2
        doc["reps"] = 130
        assert cli.run(cli.parse_config(json.dumps(doc))) == 0
        text = (tmp_path / "survival.csv").read_text()
        assert text.startswith("lambda,")


class TestMain:
    def test_dry_run(self, capsys):
        code = cli.main(["--config", json.dumps(MINIMAL_SURVIVAL), "--dry-run"])
        assert code == 0
        assert "config ok" in capsys.readouterr().out

    def test_config_error_exit(self, capsys):
        code = cli.main(["--config", json.dumps({"subcommand": "nope"})])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key,bad", [("lambda", math.nan), ("T", math.inf),
                                         ("r", -math.inf), ("seed", math.nan),
                                         ("reps", math.inf)])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, key, bad):
        # json reads NaN and Infinity literals; they stop at validation, exit 2
        doc = dict(MINIMAL_SURVIVAL, **{key: bad})
        code = cli.main(["--config", json.dumps(doc), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert f"config error at .{key}: must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("change,path", [
        (dict(fixed={"alpha": math.nan, "r": 1.0}), ".fixed.alpha: must be finite"),
        (dict(axis1=["lambda", [1.0, math.nan]]), ".axis1[1][1]: must be finite"),
        (dict(axis2=["beta", [0.5, -1.0]]), ".axis2[1][1]: must be > 0.0"),
        (dict(axis1=["lambda", [1.0, "2"]]), ".axis1[1][1]: expected a number"),
        (dict(axis1=["gamma", [1.0]]), ".axis1[0]: must be one of"),
        (dict(axis2=["lambda", [1.0]]), ".axis2[0]: the two axes must differ"),
        (dict(fixed={"alpha": 1.0, "r": 1.0, "delta": 2}), ".fixed.delta: unknown key"),
        (dict(fixed={"alpha": 1.0}), ".fixed.r: missing"),
        (dict(fixed={"r": 1.0}), ".fixed: alpha and beta must be set together"),
        (dict(axis1=["lambda", [4.0, 4]]), ".axis1[1]: values must be distinct"),
        (dict(axis2=["beta", [0.5, 1.0, 0.5]]), ".axis2[1]: values must be distinct"),
        (dict(fixed={"alpha": 1.0, "r": 1.0, "lambda": 2.0}), ".fixed.lambda: names an axis"),
        (dict(fixed={"alpha": 1.0, "r": 1.0, "L": 3}),
         ".fixed.L: 3 differs from the top-level L 5"),
        (dict(fixed={"alpha": 1.0, "r": 1.0, "d": 2}),
         ".fixed.d: 2 differs from the top-level d 1"),
    ])
    def test_phase_scan_settings_are_checked(self, tmp_path, capsys, change, path):
        doc = {"subcommand": "phase-scan", "seed": 4, "d": 1, "L": 5,
               "axis1": ["lambda", [1.0, 2.0]], "axis2": ["beta", [0.5, 1.0]],
               "fixed": {"alpha": 1.0, "r": 1.0}, "T": 2.0, "reps": 2}
        code = cli.main(["--config", json.dumps(dict(doc, **change)), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert f"config error at {path}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_a_fixed_box_size_equal_to_the_top_level_one_is_accepted(self):
        doc = {"subcommand": "phase-scan", "seed": 4, "d": 1, "L": 5,
               "axis1": ["lambda", [1.0, 2.0]], "axis2": ["beta", [0.5, 1.0]],
               "fixed": {"alpha": 1.0, "r": 1.0, "d": 1, "L": 5}, "T": 2.0, "reps": 2}
        assert cli.parse_config(json.dumps(doc)).params["fixed"]["L"] == 5

    def test_seed_and_out_override(self, tmp_path):
        code = cli.main(["--config", json.dumps(MINIMAL_SURVIVAL),
                         "--seed", "77", "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "survival_manifest.json").read_text())
        assert manifest["root_seed"] == 77

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
        doc = {"subcommand": "c1", "lambda": 2.0, "degree": 4}
        assert cli.main(["--config", json.dumps(doc)]) == 0
        assert (tmp_path / "c1.csv").exists()
