"""Command-line front end: configuration, commands, report shape."""

import json
import re

import numpy as np
import pytest

from orbitflow.cli import (
    DEFAULT_TOLERANCES,
    RunConfig,
    build_config,
    main,
    make_parser,
    parse_config_file,
)
from orbitflow.errors import ConfigError
from orbitflow.verification import SUITES


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.n == 2
        assert np.allclose(cfg.h, [1.0, 0.0, -1.0])
        assert cfg.tolerances == {"algebraic": DEFAULT_TOLERANCES["algebraic"]}

    def test_rejects_nonregular_h_naming_the_pair(self):
        with pytest.raises(ConfigError, match="alpha_12"):
            RunConfig(n=2, h=[1.0, 1.0, -2.0])

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ConfigError, match="sum"):
            RunConfig(n=1, h=[1.0, 1.0])

    def test_rejects_bad_rank(self):
        with pytest.raises(ConfigError):
            RunConfig(n=0)

    def test_rejects_unknown_tolerance_key(self):
        with pytest.raises(ConfigError, match="unknown tolerance"):
            RunConfig(tolerances={"nonsense": 1e-3})

    def test_tolerance_override_merges(self):
        cfg = RunConfig(tolerances={"algebraic": 1e-8})
        assert cfg.tolerances == {"algebraic": 1e-8}
        cfg = RunConfig(command="flow")
        assert cfg.tolerances == {"convergence": DEFAULT_TOLERANCES["convergence"]}


class TestConfigLayers:
    def test_file_then_json_then_flags(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nn=2\nseed=5\ntol.algebraic=1e-9\n")
        parser = make_parser()
        args = parser.parse_args(
            ["verify", "--config", str(path), "--json-config", '{"seed": 7}', "--seed", "9"]
        )
        cfg = build_config(args)
        assert cfg.n == 2
        assert cfg.seed == 9  # flags win over json over file
        assert cfg.tolerances["algebraic"] == 1e-9

    def test_h_flag_parsing(self):
        parser = make_parser()
        args = parser.parse_args(["spectrum", "--n", "2", "--H", "2,0,-2"])
        cfg = build_config(args)
        assert np.allclose(cfg.h, [2.0, 0.0, -2.0])

    def test_malformed_file_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n 2\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frobnicate=1\n")
        parser = make_parser()
        args = parser.parse_args(["verify", "--config", str(path)])
        with pytest.raises(ConfigError):
            build_config(args)

    def test_config_error_exit_code(self, capsys, tmp_path):
        rc = main(["verify", "--n", "2", "--H", "1,1,-2", "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (["thimble", "--n", "3", "--j", "2", "--sign", "-"], "sign"),
        (["thimble", "--n", "2", "--j", "7"], "j"),
        (["thimble", "--directions", "0"], "directions"),
        (["thimble", "--c-offset", "-1"], "c_offset"),
        (["thimble", "--steps", "0"], "steps"),
        (["verify", "--json-config", "{bad"], "json-config"),
        (["verify", "--config", "n-is-abc.cfg"], "n"),
        (["verify", "--config", "missing.cfg"], "config"),
        (["verify", "--json-config", '{"tolerances": {"algebraic": "x"}}'], "tolerances"),
        (["spectrum", "--n", "3", "--json-config", '{"directions": 5}'], "directions"),
        (["verify", "--json-config", '{"j": 2}'], "j"),
        (["flow", "--json-config", '{"c_offset": 1.0}'], "c_offset"),
        (["verify", "--config", "steps.cfg"], "steps"),
        (["thimble", "--n", "2", "--tol", "algebraic=5"], "algebraic"),
        (["thimble", "--n", "2", "--tol", "convergence=3"], "convergence"),
        (["spectrum", "--tol", "algebraic=1e-9"], "algebraic"),
        (["verify", "--tol", "convergence=1e-9"], "convergence"),
        (["flow", "--tol", "algebraic=1e-9"], "algebraic"),
        (["verify", "--config", "convergence.cfg"], "convergence"),
        (["flow", "--json-config", '{"tolerances": {"algebraic": 1e-9}}'], "algebraic"),
        (["thimble", "--json-config", '{"tolerances": {"convergence": 1e-9}}'], "convergence"),
        (["verify", "--tol", "algebraic=x"], "tol.algebraic"),
    ])
    def test_malformed_input_exits_2_naming_the_field(self, argv, field, capsys, tmp_path):
        (tmp_path / "n-is-abc.cfg").write_text("n=abc\n")
        (tmp_path / "steps.cfg").write_text("steps=10\n")
        (tmp_path / "convergence.cfg").write_text("tol.convergence=1e-9\n")
        argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
        assert main(argv) == 2
        assert re.match(rf"config error: {field}\b", capsys.readouterr().err)

    @pytest.mark.parametrize("layer", ["flag", "config", "json"])
    @pytest.mark.parametrize("argv, key, value", [
        (["spectrum", "--n", "1"], "H", "nan,nan"),
        (["verify", "--n", "1"], "H", "inf,-inf"),
        (["verify", "--n", "2"], "H", "nan,1,-1"),
        (["thimble", "--n", "2"], "c_offset", "inf"),
        (["thimble", "--n", "2"], "c_offset", "nan"),
        (["thimble", "--n", "2"], "step_size", "inf"),
        (["flow", "--n", "2"], "step_size", "nan"),
        (["flow", "--n", "2"], "tol.convergence", "nan"),
        (["flow", "--n", "2"], "tol.convergence", "-inf"),
        (["verify", "--n", "1"], "tol.algebraic", "inf"),
        (["verify", "--n", "1"], "tol.algebraic", "0"),
    ])
    def test_values_that_are_not_finite_exit_2_naming_the_field(self, layer, argv, key, value,
                                                                 capsys, tmp_path):
        # from a flag, a config file or inline JSON (which reads NaN and
        # Infinity), H entries, c_offset, step_size and tolerances must be
        # finite, and the last three positive; nothing is written
        if layer == "config":
            (tmp_path / "run.cfg").write_text(f"{key}={value}\n")
            extra = ["--config", str(tmp_path / "run.cfg")]
        elif layer == "json":
            floats = [float(v) for v in value.split(",")]
            if key == "H":
                obj = {"H": floats}
            elif key.startswith("tol."):
                obj = {"tolerances": {key[4:]: floats[0]}}
            else:
                obj = {key: floats[0]}
            extra = ["--json-config", json.dumps(obj)]
        elif key.startswith("tol."):
            extra = ["--tol", f"{key[4:]}={value}"]
        else:
            extra = ["--" + key.replace("_", "-"), value]
        out = tmp_path / ("out.csv" if argv[0] == "flow" else "out.json")
        assert main([*argv, *extra, "--out", str(out)]) == 2
        field = key.removeprefix("tol.")
        assert re.match(rf"config error: {field}\b", capsys.readouterr().err)
        assert not out.exists()

    def test_config_echoes_only_the_knobs_a_command_reads(self):
        parser = make_parser()
        echoed = {name: set(build_config(parser.parse_args([name])).as_dict())
                  for name in ("verify", "spectrum", "flow", "thimble")}
        common = {"n", "h", "seed"}
        assert echoed["spectrum"] == common
        assert echoed["verify"] == common | {"tolerances"}
        assert echoed["flow"] == common | {"tolerances", "steps", "step_size"}
        assert echoed["thimble"] == common | {"j", "sign", "c_offset", "directions", "steps",
                                              "step_size"}
        tolerances = {name: build_config(parser.parse_args([name])).as_dict().get("tolerances")
                      for name in ("verify", "spectrum", "flow", "thimble")}
        assert tolerances == {"verify": {"algebraic": 1e-10}, "spectrum": None,
                              "flow": {"convergence": 1e-9}, "thimble": None}

    def test_successive_calls_share_one_parser_and_no_flags(self, monkeypatch):
        # the parser is built once per process; each call sees only its own flags
        from orbitflow import cli

        seen = []
        for name in ("cmd_flow", "cmd_thimble", "cmd_verify"):
            monkeypatch.setattr(cli, name, lambda cfg: seen.append(cfg.as_dict()) or 0)
        make_parser.cache_clear()
        assert main(["thimble", "--n", "3", "--j", "2", "--sign", "+", "--directions", "4"]) == 0
        assert main(["flow", "--n", "2", "--steps", "5", "--tol", "convergence=1e-7"]) == 0
        assert main(["flow", "--n", "2"]) == 0
        assert main(["verify", "--n", "1"]) == 0
        assert make_parser.cache_info().misses == 1 and make_parser.cache_info().hits == 3
        thimble_, flow_, flow_again, verify_ = seen
        assert (thimble_["j"], thimble_["directions"], thimble_["steps"]) == (2, 4, 4000)
        assert (flow_["n"], flow_["steps"], flow_["tolerances"]) == (2, 5, {"convergence": 1e-7})
        assert (flow_again["steps"], flow_again["tolerances"]) == (4000, {"convergence": 1e-9})
        assert "j" not in flow_ and verify_["tolerances"] == {"algebraic": 1e-10}

    def test_removed_kernel_cutoff_key_exit_code(self, capsys, tmp_path):
        for key in ("kernel_cutoff", "flow"):
            rc = main(["verify", "--n", "1", "--tol", f"{key}=1e-9",
                       "--out", str(tmp_path / "r.json")])
            assert rc == 2
            assert key in capsys.readouterr().err


class TestCommands:
    def test_spectrum_counts(self, tmp_path):
        out = tmp_path / "spec.json"
        rc = main(["spectrum", "--n", "2", "--out", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text())
        assert len(blob["spectra"]) == 3
        assert len(blob["hessians"]) == 6
        assert all(len(hrow["rows"]) == 2 for hrow in blob["hessians"])
        # the degenerate root at the first singularity is flagged
        first = blob["spectra"][0]["rates"]
        degenerate = [r for r in first if r["degenerate"]]
        assert [tuple(r["root"]) for r in degenerate] == [(2, 3)]
        assert (tmp_path / "spec.csv").exists()

    def test_spectrum_rank_one_rates(self, tmp_path):
        out = tmp_path / "spec1.json"
        rc = main(["spectrum", "--n", "1", "--H", "1,-1", "--out", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text())
        rates = [r["rate"] for r in blob["spectra"][0]["rates"]]
        assert rates == [4.0]

    def test_flow_csv(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(["flow", "--n", "2", "--seed", "3", "--out", str(out), "--steps", "6000"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:5] == ["t", "re_f", "im_f", "orbit_residual", "z_norm"]
        body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.all(np.diff(body[:, 1]) <= 1e-12)   # monotone real height
        assert body[:, 3].max() < 1e-8                # orbit residual
        assert "limit critical point" in capsys.readouterr().err

    def test_thimble_summary(self, tmp_path, capsys):
        out = tmp_path / "th.json"
        rc = main([
            "thimble", "--n", "2", "--j", "1", "--sign", "-", "--c-offset", "0.4",
            "--directions", "8", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        blob = json.loads(out.read_text())
        summary = blob["meta"]["summary"]
        assert summary["max_graph_residual"] < 1e-6
        assert summary["max_f2_drift"] < 1e-8
        assert summary["max_omega"] < 1e-5
        assert (tmp_path / "th.csv").exists()
        assert "thimble:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["thimble", "--n", "4", "--j", "3", "--sign", "+", "--c-offset", "0.4",
          "--directions", "4", "--steps", "2"],
         r"error: 32 flows failed to reach the level in 2 steps: "
         r"\|f1 - c\| = \S+ at batch index \d+"),
        (["flow", "--n", "2", "--step-size", "5"],
         r"error: step of size \S+ exceeds 0\.5 \(batch index 0\); reduce the integration step"),
    ])
    def test_flow_failures_exit_1_with_the_message(self, argv, message, tmp_path):
        # as a process: one line on stderr, and no traceback
        import os
        import subprocess
        import sys

        import orbitflow

        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(orbitflow.__file__))}
        out = str(tmp_path / ("out.json" if argv[0] == "thimble" else "out.csv"))
        proc = subprocess.run([sys.executable, "-m", "orbitflow.cli", *argv, "--out", out],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert re.fullmatch(message + "\n", proc.stderr), proc.stderr
        assert "Traceback" not in proc.stderr + proc.stdout


class TestVerifyReport:
    def test_rank_one_report_structure_and_completeness(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "--n", "1", "--H", "1,-1", "--seed", "11", "--out", str(out)])
        blob = json.loads(out.read_text())
        assert rc == 0
        assert blob["summary"]["failures"] == 0
        # every suite appears once, in deterministic order
        assert [s["name"] for s in blob["suites"]] == [name for name, _ in SUITES]
        counts = {s["name"]: len(s["checks"]) for s in blob["suites"]}
        assert counts == {
            "cycles": 3,
            "flow": 5,
            "graphs": 6,
            "lie-core": 6,
            "orbit": 4,
            "thimble": 4,
        }
        names = [c["name"] for s in blob["suites"] for c in s["checks"]]
        assert len(names) == len(set(names)) == 28
        for s in blob["suites"]:
            for c in s["checks"]:
                assert c["reference"]
                assert c["status"] in ("pass", "fail")
