import dataclasses
import importlib.metadata
import inspect
import json
import os
import re
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import relab
import relab.cli
from relab.cli import cli, main
from relab.features import save_features
from relab.diffusion import diffuse, load_seeds
from relab.graph import DENSE_NODE_LIMIT, load_graph, normalize
from relab.pipeline import (
    GRAPH_NAME,
    PROPAGATED_NAME,
    RELIABLE_NAME,
    REPORT_NAME,
    WHITENED_NAME,
)
from relab.selection import ProbeConfig
from relab.synth import SynthConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic dataset plus seed file, written through the CLI."""
    root = tmp_path_factory.mktemp("cli-data")
    code = main([
        "--quiet", "synth",
        "--classes", "4", "--per-class", "30", "--dims", "8",
        "--separation", "8.0", "--rng-seed", "0",
        "--out-features", str(root / "features.relf"),
        "--out-truth", str(root / "truth.json"),
        "--out-seeds", str(root / "seeds.json"),
        "--seeds-per-class", "3",
    ])
    assert code == 0
    return root


def narrow_synth(root, dims):
    """Features of 30 samples in 3 classes and `dims` dimensions, written by synth."""
    path = root / f"narrow{dims}.relf"
    assert main(["--quiet", "synth", "--classes", "3", "--per-class", "10",
                 "--dims", str(dims), "--out-features", str(path),
                 "--out-truth", str(root / f"narrow{dims}.json")]) == 0
    return path


def chain_steps(root, out, flags=None):
    """The pipeline spelled out as subcommand argvs, each step's extra flags
    taken from flags[step]; `--method nn` in the propagate flags drops the
    graph step."""
    flags = flags or {}
    nn = flags.get("propagate", [])[-1:] == ["nn"]
    source = (["--features", str(out / WHITENED_NAME)] if nn
              else ["--graph", str(out / GRAPH_NAME)])
    steps = {
        "whiten": ["features", "whiten",
                   "--in", str(root / "features.relf"), "--out", str(out / WHITENED_NAME)],
        "graph": ["graph", "build",
                  "--features", str(out / WHITENED_NAME), "--out", str(out / GRAPH_NAME)],
        "propagate": ["propagate", *source, "--seeds", str(root / "seeds.json"),
                      "--out", str(out / PROPAGATED_NAME)],
        "select": ["select", "--features", str(out / WHITENED_NAME),
                   "--propagated", str(out / PROPAGATED_NAME),
                   "--seeds", str(root / "seeds.json"), "--nr", "40",
                   "--out", str(out / RELIABLE_NAME)],
        "evaluate": ["evaluate", "--predicted", str(out / PROPAGATED_NAME),
                     "--truth", str(root / "truth.json"),
                     "--reliable", str(out / RELIABLE_NAME), "--out", str(out / REPORT_NAME)],
    }
    if nn:
        del steps["graph"]
    return [argv + flags.get(name, []) for name, argv in steps.items()]


def run_chain(root, out):
    """The pipeline spelled out as individual subcommands."""
    out.mkdir(exist_ok=True)
    for argv in chain_steps(root, out):
        assert main(["--quiet", *argv]) == 0


# Pipeline inputs refused before --out-dir is created: (extra flags, led
# by the name of an input file edit where one applies, exit code, message).
PIPELINE_REFUSALS = {
    "alpha": (["--alpha", "1"], 2, "alpha must satisfy 0 <= alpha < 1"),
    "tol": (["--tol", "-1"], 2, "tol must be finite and positive"),
    "max-iter": (["--max-iter", "0"], 2, "max_iter must be >= 1"),
    "gamma": (["--gamma", "0"], 2, "gamma must be positive"),
    "gamma-underflow": (["--gamma", "1e6"], 2, "underflows a positive affinity to 0"),
    "k-zero": (["--k", "0"], 2, "k must satisfy 1 <= k < n_samples=120"),
    "k-above-n": (["--k", "20000"], 2, "k must satisfy 1 <= k < n_samples=120"),
    "nr-indivisible": (["--nr", "41"], 2, "n_r=41 is not divisible by n_classes=4"),
    "nr-below-seeds": (["--nr", "8"], 2,
                       "n_r/C=2 is below the largest per-class seed count 3"),
    "seed-index": (["seed index 5000"], 3, "seed index 5000 out of range for 120 samples"),
    "eps": (["--eps", "2"], 2, "eps must lie in (0, 1)"),
    "truth-length": (["short truth"], 3, "truth.json: 119 truth labels for 120 samples"),
    "truth-class": (["truth class 50"], 3,
                    "truth.json: truth class 50 out of range for 4 classes"),
    "one-seed-class": (["one seed class"], 3,
                       "probe training needs at least 2 distinct classes"),
    "no-seeds": (["no seeds"], 3, "seeds.json: the seeds file holds no seed"),
    "no-seeds-nn": (["no seeds", "--method", "nn"], 3, "the seeds file holds no seed"),
    "no-seeds-retrieval-score": (["no seeds", "--strategy", "retrieval-score"], 3,
                                 "the seeds file holds no seed"),
    "rng-seed": (["--rng-seed", "-1"], 2, "rng_seed must be >= 0, got -1"),
}


class TestExitCodes:
    def test_success(self, workspace, tmp_path):
        code = main(["--quiet", "features", "whiten",
                     "--in", str(workspace / "features.relf"),
                     "--out", str(tmp_path / "w.relf")])
        assert code == 0
        assert (tmp_path / "w.relf").exists()

    def test_missing_required_option(self, capsys):
        assert main(["synth", "--out-truth", "t.json"]) == 2
        assert "out-features" in capsys.readouterr().err

    def test_unknown_option(self):
        assert main(["synth", "--frobnicate", "3"]) == 2

    def test_bad_value_type(self, workspace, tmp_path):
        code = main(["propagate", "--alpha", "not-a-number",
                     "--graph", "g", "--seeds", "s", "--out", str(tmp_path / "p")])
        assert code == 2

    def test_alpha_out_of_range(self, workspace, tmp_path):
        out = tmp_path / "chain"
        out.mkdir()
        assert main(["--quiet", "features", "whiten",
                     "--in", str(workspace / "features.relf"),
                     "--out", str(out / WHITENED_NAME)]) == 0
        assert main(["--quiet", "graph", "build",
                     "--features", str(out / WHITENED_NAME),
                     "--out", str(out / GRAPH_NAME)]) == 0
        code = main(["--quiet", "propagate", "--alpha", "1.0",
                     "--graph", str(out / GRAPH_NAME),
                     "--seeds", str(workspace / "seeds.json"),
                     "--out", str(out / PROPAGATED_NAME)])
        assert code == 2

    @pytest.mark.parametrize("eps", ["1", "nan", "inf", "2", "0", "-1"])
    def test_eps_out_of_range(self, workspace, tmp_path, capsys, eps):
        out = tmp_path / "w.relf"
        code = main(["features", "whiten", f"--eps={eps}",
                     "--in", str(workspace / "features.relf"), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: eps") and "Traceback" not in err, err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
                                       ["--tol", "0"], ["--max-iter", "0"],
                                       ["--max-iter", "-5"]])
    def test_solver_settings_out_of_range(self, workspace, chained, tmp_path, capsys, flags):
        out = tmp_path / PROPAGATED_NAME
        code = main(["propagate", *flags, "--graph", str(chained / GRAPH_NAME),
                     "--seeds", str(workspace / "seeds.json"), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        name = flags[0][2:].replace("-", "_")
        assert err.startswith(f"error: {name}") and "Traceback" not in err, err
        assert not out.exists()

    def test_tiny_eps_keeps_no_null_direction(self, tmp_path, capsys):
        features = narrow_synth(tmp_path, dims=40)  # rank 29 once centred
        assert main(["--json", "features", "whiten", "--eps", "1e-300",
                     "--in", str(features), "--out", str(tmp_path / "w.relf")]) == 0
        assert json.loads(capsys.readouterr().out)["dims_kept"] == 29

    @pytest.mark.parametrize("flags", [["--gamma", "400", "--k", "5"], ["--gamma", "1e300"]])
    def test_gamma_underflow_exits_2(self, tmp_path, capsys, flags):
        # Whitened, these 30 samples in 20 dims keep small positive cosines,
        # which cos^400 (some of them) and cos^1e300 (all) take to 0.
        features, whitened = narrow_synth(tmp_path, dims=20), tmp_path / "w.relf"
        assert main(["--quiet", "features", "whiten", "--in", str(features),
                     "--out", str(whitened)]) == 0
        out = tmp_path / "g.relg"
        assert main(["graph", "build", *flags, "--features", str(whitened),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gamma=") and "Traceback" not in err, err
        assert not out.exists()

    def test_edgeless_graph_exits_3(self, tmp_path, capsys):
        # Whitened, 30 samples in 40 dims form a regular simplex: every
        # cosine is -1/29, so no edge survives at any gamma.
        features, whitened = narrow_synth(tmp_path, dims=40), tmp_path / "w.relf"
        assert main(["--quiet", "features", "whiten", "--in", str(features),
                     "--out", str(whitened)]) == 0
        out = tmp_path / "g.relg"
        assert main(["graph", "build", "--features", str(whitened), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no edges" in err and "Traceback" not in err, err
        assert not out.exists()

    def test_missing_default_nr_exits_2_before_writing(self, tmp_path, capsys):
        assert main(["--quiet", "synth", "--classes", "3", "--per-class", "10",
                     "--dims", "8", "--seeds-per-class", "2",
                     "--out-features", str(tmp_path / "f.relf"),
                     "--out-truth", str(tmp_path / "t.json"),
                     "--out-seeds", str(tmp_path / "s.json")]) == 0
        run = tmp_path / "run"
        run.mkdir()
        assert main(["pipeline", "--features", str(tmp_path / "f.relf"),
                     "--seeds", str(tmp_path / "s.json"), "--truth", str(tmp_path / "t.json"),
                     "--out-dir", str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no default n_r") and "Traceback" not in err, err
        assert list(run.iterdir()) == []

    @pytest.mark.parametrize("per_class, dims, message", [
        # Whitened, 6 samples in 8 dims form a regular simplex: no edge.
        (3, 8, "no pair of the 6 samples has a positive cosine"),
        # Whitened, 4 samples in 2 dims leave a node with no positive cosine.
        (2, 2, "isolated node(s)"),
    ], ids=["no-edge", "isolated-node"])
    def test_pipeline_graph_refusals_write_nothing(self, tmp_path, capsys, per_class, dims,
                                                   message):
        assert main(["--quiet", "synth", "--classes", "2", "--per-class", str(per_class),
                     "--dims", str(dims), "--seeds-per-class", "1",
                     "--out-features", str(tmp_path / "f.relf"),
                     "--out-truth", str(tmp_path / "t.json"),
                     "--out-seeds", str(tmp_path / "s.json")]) == 0
        run = tmp_path / "run"
        assert main(["pipeline", "--features", str(tmp_path / "f.relf"),
                     "--seeds", str(tmp_path / "s.json"), "--truth", str(tmp_path / "t.json"),
                     "--nr", "2", "--out-dir", str(run)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err, err
        assert not run.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--out-seeds", "s.json"], "writing a seeds file needs seeds-per-class"),
        (["--out-seeds", "s.json", "--seeds-per-class", "11"],
         "class 0 has 10 samples, cannot pick 11 seeds"),
        (["--rng-seed", "-1"], "rng_seed must be >= 0, got -1"),
        (["--seeds-per-class", "-5"], "seeds per class must be >= 1, got -5"),
    ])
    def test_synth_refusals_write_nothing(self, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--classes", "3", "--per-class", "10", "--dims", "8",
                     "--out-features", "f.relf", "--out-truth", "t.json", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err, err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, code, message", PIPELINE_REFUSALS.values(),
                             ids=PIPELINE_REFUSALS)
    def test_pipeline_checks_options_before_creating_out_dir(self, workspace, tmp_path,
                                                             capsys, flags, code, message):
        seeds, truth = workspace / "seeds.json", workspace / "truth.json"
        edit = flags[0]
        if edit in ("seed index 5000", "no seeds", "one seed class"):
            doc = json.loads(seeds.read_text())
            if edit == "no seeds":
                doc["seeds"] = []
            elif edit == "one seed class":
                doc["seeds"] = [seed for seed in doc["seeds"] if seed["class"] == 1]
            else:
                doc["seeds"][0]["index"] = 5000
            seeds, flags = tmp_path / "seeds.json", flags[1:]
            seeds.write_text(json.dumps(doc))
        elif edit in ("short truth", "truth class 50"):
            labels = json.loads((workspace / "truth.json").read_text())
            if edit == "short truth":
                labels = labels[1:]
            else:
                labels[1] = 50
            truth, flags = tmp_path / "truth.json", flags[1:]
            truth.write_text(json.dumps(labels))
        nr = [] if "--nr" in flags else ["--nr", "40"]
        run = tmp_path / "run"
        assert main(["pipeline", "--features", str(workspace / "features.relf"),
                     "--seeds", str(seeds), "--truth", str(truth), *nr, *flags,
                     "--out-dir", str(run)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err, err
        assert not run.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["features", "whiten", "--in", str(tmp_path / "absent.relf"),
                     "--out", str(tmp_path / "w.relf")])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_output_directory_missing_exits_3(self, workspace, tmp_path, capsys):
        out = tmp_path / "absent" / "w.relf"
        code = main(["features", "whiten", "--in", str(workspace / "features.relf"),
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory: ") and "absent" in err
        assert "Traceback" not in err, err
        assert not out.parent.exists()

    def test_corrupt_input_file(self, tmp_path):
        bad = tmp_path / "bad.relf"
        bad.write_bytes(b"not a feature file")
        code = main(["features", "whiten", "--in", str(bad),
                     "--out", str(tmp_path / "w.relf")])
        assert code == 3

    def test_solver_failure(self, workspace, tmp_path):
        out = tmp_path / "chain"
        out.mkdir()
        assert main(["--quiet", "features", "whiten",
                     "--in", str(workspace / "features.relf"),
                     "--out", str(out / WHITENED_NAME)]) == 0
        assert main(["--quiet", "graph", "build",
                     "--features", str(out / WHITENED_NAME),
                     "--out", str(out / GRAPH_NAME)]) == 0
        code = main(["--quiet", "propagate", "--max-iter", "1", "--tol", "1e-12",
                     "--graph", str(out / GRAPH_NAME),
                     "--seeds", str(workspace / "seeds.json"),
                     "--out", str(out / PROPAGATED_NAME)])
        assert code == 4

    def test_training_divergence(self, workspace, chained, tmp_path, capsys):
        out = tmp_path / "reliable.jsonl"
        code = main(["select", "--lr", "1e308",
                     "--features", str(chained / WHITENED_NAME),
                     "--propagated", str(chained / PROPAGATED_NAME),
                     "--seeds", str(workspace / "seeds.json"),
                     "--nr", "40", "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.cfg"), "synth",
                     "--out-features", "f", "--out-truth", "t"]) == 2

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no assignment\n")
        assert main(["--config", str(cfg), "synth",
                     "--out-features", "f", "--out-truth", "t"]) == 2

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "propagate" in capsys.readouterr().out


class TestOutputModes:
    def test_summary_line_by_default(self, workspace, tmp_path, capsys):
        code = main(["features", "whiten",
                     "--in", str(workspace / "features.relf"),
                     "--out", str(tmp_path / "w.relf")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("whiten:")
        assert "dims_kept=" in out

    def test_quiet_suppresses_summaries(self, workspace, tmp_path, capsys):
        code = main(["--quiet", "features", "whiten",
                     "--in", str(workspace / "features.relf"),
                     "--out", str(tmp_path / "w.relf")])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_json_mode_emits_parseable_object(self, workspace, tmp_path, capsys):
        code = main(["--json", "features", "whiten",
                     "--in", str(workspace / "features.relf"),
                     "--out", str(tmp_path / "w.relf")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["step"] == "whiten"
        assert doc["n"] == 120

    def test_json_graph_summary_counts_neighbors(self, chained, tmp_path, capsys):
        out = tmp_path / "g.relg"
        assert main(["--json", "graph", "build", "--k", "5",
                     "--features", str(chained / WHITENED_NAME), "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        neighbors = np.diff(load_graph(out).matrix.indptr)
        assert doc["nnz_per_row"] == neighbors.sum() / neighbors.size == doc["nnz"] / doc["n"]
        assert doc["neighbors"] == {"min": int(neighbors.min()),
                                    "median": float(np.median(neighbors)),
                                    "max": int(neighbors.max())}
        # Every node keeps its own 5; max-symmetrization can only add.
        assert 5 <= doc["neighbors"]["min"] <= doc["neighbors"]["median"] <= doc["neighbors"]["max"]

    def test_json_propagate_summary_counts_cg_iterations(self, workspace, chained,
                                                          tmp_path, capsys):
        out = tmp_path / "p.jsonl"
        assert main(["--json", "propagate", "--graph", str(chained / GRAPH_NAME),
                     "--seeds", str(workspace / "seeds.json"), "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        seeds = load_seeds(workspace / "seeds.json")
        graph = normalize(load_graph(chained / GRAPH_NAME))
        its = diffuse(graph, seeds).iterations
        assert doc["cg_iterations"] == {"min": int(its.min()),
                                        "median": float(np.median(its)),
                                        "max": int(its.max())}
        assert 1 <= doc["cg_iterations"]["min"]
        # A summary figure only: the artifact matches the chain's.
        assert out.read_bytes() == (chained / PROPAGATED_NAME).read_bytes()

    def test_json_mode_pipeline_emits_step_list(self, workspace, tmp_path, capsys):
        code = main(["--json", "pipeline",
                     "--features", str(workspace / "features.relf"),
                     "--seeds", str(workspace / "seeds.json"),
                     "--truth", str(workspace / "truth.json"),
                     "--nr", "40", "--out-dir", str(tmp_path / "run")])
        assert code == 0
        steps = json.loads(capsys.readouterr().out)
        assert [s["step"] for s in steps] == [
            "whiten", "graph", "propagate", "select", "evaluate"]


# Long flags of `features whiten` and `graph build`, plus names no option has.
# The fuzzed config stays on these two commands: a config key such as
# `epochs` or `max_iter` could make a run unbounded.
OPTION_KEYS = ["in", "out", "eps", "features", "gamma", "k"]
UNKNOWN_KEYS = ["alhpa", "quiet", "json", "config", "in_path", "out-path", "frobnicate"]
CONFIG_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=2),
    max_leaves=4)
# JSON text of every kind, raw text the parser keeps as a string, and values
# inside and at the bounds eps in (0, 1), gamma > 0 and 1 <= k < 120.
CONFIG_VALUES = (CONFIG_JSON.map(json.dumps) | st.text(max_size=8)
                 | st.sampled_from(["0.5", "1e-10", "3", "1", "7", "119", "120", "0"]))


def config_argv(command, workspace, chained, tmp_path, lines):
    """argv running `command` from a config file whose input path the given
    lines may override; the output path is a flag, so it always wins."""
    if command == "whiten":
        base, sub = f"in = {workspace / 'features.relf'}", ["features", "whiten"]
    else:
        base, sub = f"features = {chained / WHITENED_NAME}", ["graph", "build"]
    cfg = tmp_path / "relab.cfg"
    cfg.write_text(f"{base}\n{lines}\n", encoding="utf-8")
    out = tmp_path / "out.bin"
    return ["--quiet", "--config", str(cfg)] + sub + ["--out", str(out)], out


class TestConfigFile:
    def test_config_supplies_values_and_flags_win(self, tmp_path):
        cfg = tmp_path / "relab.cfg"
        cfg.write_text(
            "# fixture shape\n"
            "classes = 3\n"
            "per-class = 5\n"
            "dims = 4\n"
            "separation = 3.0\n"
        )
        a = tmp_path / "a.relf"
        b = tmp_path / "b.relf"
        c = tmp_path / "c.relf"
        base = ["--out-truth", str(tmp_path / "t.json")]
        assert main(["--quiet", "--config", str(cfg), "synth",
                     "--out-features", str(a)] + base) == 0
        # flag overrides the config's separation
        assert main(["--quiet", "--config", str(cfg), "synth",
                     "--separation", "5.0", "--out-features", str(b)] + base) == 0
        # same run fully spelled out, no config file
        assert main(["--quiet", "synth", "--classes", "3", "--per-class", "5",
                     "--dims", "4", "--separation", "5.0",
                     "--out-features", str(c)] + base) == 0
        assert a.read_bytes() != b.read_bytes()
        assert b.read_bytes() == c.read_bytes()

    def test_config_type_casting(self, tmp_path, capsys):
        cfg = tmp_path / "relab.cfg"
        cfg.write_text("classes = 2\nper_class = 3\ndims = 4\n")
        code = main(["--json", "--config", str(cfg), "synth",
                     "--out-features", str(tmp_path / "f.relf"),
                     "--out-truth", str(tmp_path / "t.json")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 6
        assert doc["n_classes"] == 2

    def test_nested_commands_read_config(self, workspace, tmp_path, capsys):
        """`features whiten` and `graph build` take paths and tuning values from
        the config, required paths included, and explicit flags still win."""
        features = workspace / "features.relf"
        whiten_cfg = tmp_path / "whiten.cfg"
        whiten_cfg.write_text(f"in = {features}\nout = {tmp_path / 'w_cfg.relf'}\neps = 0.5\n")
        graph_cfg = tmp_path / "graph.cfg"
        graph_cfg.write_text(f"features = {tmp_path / 'w_cfg.relf'}\n"
                             f"out = {tmp_path / 'g_cfg.relg'}\nk = 7\ngamma = 2.0\n")
        assert main(["--quiet", "--config", str(whiten_cfg), "features", "whiten"]) == 0
        assert main(["--quiet", "--config", str(graph_cfg), "graph", "build"]) == 0
        # The same run with every value given as a flag.
        assert main(["--quiet", "features", "whiten", "--in", str(features),
                     "--out", str(tmp_path / "w.relf"), "--eps", "0.5"]) == 0
        assert main(["--quiet", "graph", "build", "--features", str(tmp_path / "w.relf"),
                     "--out", str(tmp_path / "g.relg"), "--k", "7", "--gamma", "2.0"]) == 0
        assert (tmp_path / "w_cfg.relf").read_bytes() == (tmp_path / "w.relf").read_bytes()
        assert (tmp_path / "g_cfg.relg").read_bytes() == (tmp_path / "g.relg").read_bytes()

        # Flags win over config values, paths included.
        assert main(["--quiet", "--config", str(whiten_cfg), "features", "whiten",
                     "--eps", "1e-10", "--out", str(tmp_path / "w_flag.relf")]) == 0
        assert main(["--quiet", "features", "whiten", "--in", str(features),
                     "--out", str(tmp_path / "w_default.relf")]) == 0
        assert ((tmp_path / "w_flag.relf").read_bytes()
                == (tmp_path / "w_default.relf").read_bytes()
                != (tmp_path / "w.relf").read_bytes())
        assert main(["--quiet", "--config", str(graph_cfg), "graph", "build",
                     "--k", "3", "--out", str(tmp_path / "g_flag.relg")]) == 0
        assert main(["--quiet", "graph", "build", "--features", str(tmp_path / "w.relf"),
                     "--out", str(tmp_path / "g_k3.relg"), "--k", "3", "--gamma", "2.0"]) == 0
        assert ((tmp_path / "g_flag.relg").read_bytes()
                == (tmp_path / "g_k3.relg").read_bytes()
                != (tmp_path / "g.relg").read_bytes())

        # A required path in neither the config nor the flags is named by click.
        partial = tmp_path / "partial.cfg"
        partial.write_text(f"in = {features}\n")
        capsys.readouterr()
        assert main(["--config", str(partial), "features", "whiten"]) == 2
        assert capsys.readouterr().err == "error: Missing option '--out'.\n"

    def test_config_list_fills_multiple_option(self, tmp_path, capsys):
        cfg = tmp_path / "relab.cfg"
        cfg.write_text("classes = 2\nimbalance = [2, 3]\ndims = 4\n")
        assert main(["--json", "--config", str(cfg), "synth",
                     "--out-features", str(tmp_path / "f.relf"),
                     "--out-truth", str(tmp_path / "t.json")]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 5

    @pytest.mark.parametrize("command, line, message", [
        ("whiten", "eps = null", "Invalid value for '--eps'"),
        ("whiten", "eps = [1]", "Invalid value for '--eps'"),
        ("graph", "gamma = null", "Invalid value for '--gamma'"),
        ("graph", "k = 2.5", "Invalid value for '--k'"),
        ("graph", "k = true", "Invalid value for '--k'"),
        ("whiten", "alhpa = 0.5", "alhpa"),
        ("graph", "quiet = true", "quiet"),
        ("whiten", "in = a\x00b", "NUL"),
        ("graph", 'features = "a\\u0000b"', "NUL"),
    ])
    def test_bad_config_entry_exits_2(self, workspace, chained, tmp_path, capsys,
                                      command, line, message):
        """A value is parsed like flag text, so a JSON kind the flag cannot
        carry fails click's check, and a key no subcommand option has is named."""
        argv, out = config_argv(command, workspace, chained, tmp_path, line)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
        assert "Traceback" not in err
        assert not out.exists()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["whiten", "graph"]),
           entries=st.dictionaries(st.sampled_from(OPTION_KEYS), CONFIG_VALUES, max_size=4),
           unknown=st.none() | st.sampled_from(UNKNOWN_KEYS))
    def test_fuzzed_config_file(self, workspace, chained, tmp_path, capsys, command,
                                entries, unknown):
        lines = [f"{key} = {value}" for key, value in entries.items()]
        if unknown:
            lines.append(f"{unknown} = 1")
        argv, out = config_argv(command, workspace, chained, tmp_path, "\n".join(lines))
        out.unlink(missing_ok=True)
        capsys.readouterr()
        code = main(argv)
        assert code in (0, 2, 3)
        assert out.exists() == (code == 0)
        err = capsys.readouterr().err
        assert "Traceback" not in err, err
        if code:
            assert err.startswith("error: "), err


# Per-step extra flags of a pipeline run and of its subcommand chain.
CHAIN_VARIANTS = {
    "default": {},
    "k5": {"graph": ["--k", "5"]},
    "nn": {"propagate": ["--method", "nn"]},
    "retrieval-score": {"select": ["--strategy", "retrieval-score"]},
}


class TestComposition:
    @pytest.mark.parametrize("flags", CHAIN_VARIANTS.values(), ids=CHAIN_VARIANTS)
    def test_pipeline_matches_chained_subcommands(self, workspace, tmp_path, capsys, flags):
        pipe_dir, chain_dir = tmp_path / "pipe", tmp_path / "chain"
        assert main(["--json", "pipeline",
                     "--features", str(workspace / "features.relf"),
                     "--seeds", str(workspace / "seeds.json"),
                     "--truth", str(workspace / "truth.json"),
                     "--nr", "40", "--out-dir", str(pipe_dir),
                     *[flag for step in flags.values() for flag in step]]) == 0
        piped = json.loads(capsys.readouterr().out)
        chain_dir.mkdir()
        chained = []
        for argv in chain_steps(workspace, chain_dir, flags):
            assert main(["--json", *argv]) == 0
            chained.append(json.loads(capsys.readouterr().out))
        names = sorted(os.listdir(pipe_dir))
        assert names == sorted(os.listdir(chain_dir))
        assert {WHITENED_NAME, PROPAGATED_NAME, RELIABLE_NAME, REPORT_NAME} <= set(names)
        for name in names:
            assert (pipe_dir / name).read_bytes() == (chain_dir / name).read_bytes(), name

        def without_out(steps):
            return [{key: value for key, value in step.items() if key != "out"}
                    for step in steps]

        assert without_out(piped) == without_out(chained)

    def test_pipeline_leaves_inputs_untouched(self, workspace, tmp_path):
        before = {
            name: (workspace / name).read_bytes()
            for name in ("features.relf", "truth.json", "seeds.json")
        }
        assert main(["--quiet", "pipeline",
                     "--features", str(workspace / "features.relf"),
                     "--seeds", str(workspace / "seeds.json"),
                     "--truth", str(workspace / "truth.json"),
                     "--nr", "40", "--out-dir", str(tmp_path / "run")]) == 0
        for name, blob in before.items():
            assert (workspace / name).read_bytes() == blob

    def test_propagate_nn_uses_features_only(self, workspace, tmp_path, capsys):
        w = tmp_path / "w.relf"
        assert main(["--quiet", "features", "whiten",
                     "--in", str(workspace / "features.relf"), "--out", str(w)]) == 0
        code = main(["--json", "propagate", "--method", "nn",
                     "--features", str(w),
                     "--seeds", str(workspace / "seeds.json"),
                     "--out", str(tmp_path / "p.jsonl")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["method"] == "nn"

    def test_propagate_diffusion_requires_graph(self, workspace, tmp_path, capsys):
        code = main(["propagate",
                     "--seeds", str(workspace / "seeds.json"),
                     "--out", str(tmp_path / "p.jsonl")])
        assert code == 2
        assert "--graph" in capsys.readouterr().err

    def test_propagate_nn_requires_features(self, workspace, tmp_path, capsys):
        out = tmp_path / "p.jsonl"
        code = main(["propagate", "--method", "nn",
                     "--seeds", str(workspace / "seeds.json"), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: nearest-neighbor propagation needs a features file (--features)\n"
        assert not out.exists()

    @pytest.mark.parametrize("classes, code", [(10, 0), (3, 2)])
    def test_select_default_nr(self, tmp_path, capsys, classes, code):
        features, seeds = tmp_path / "f.relf", tmp_path / "s.json"
        propagated, out = tmp_path / "p.jsonl", tmp_path / "r.jsonl"
        assert main(["--quiet", "synth", "--classes", str(classes), "--per-class", "60",
                     "--dims", "8", "--seeds-per-class", "2", "--out-features", str(features),
                     "--out-truth", str(tmp_path / "t.json"), "--out-seeds", str(seeds)]) == 0
        assert main(["--quiet", "propagate", "--method", "nn", "--features", str(features),
                     "--seeds", str(seeds), "--out", str(propagated)]) == 0
        assert main(["--json", "select", "--strategy", "retrieval-score",
                     "--propagated", str(propagated), "--seeds", str(seeds),
                     "--out", str(out)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == ("error: no default n_r for 3 classes; "
                                    "pass --nr explicitly\n")
            assert not out.exists()
        else:
            summary = json.loads(captured.out)
            assert summary["n_r"] == 500 and summary["target_per_class"] == 50

    @pytest.mark.parametrize("nr, message", [
        ("41", "n_r=41 is not divisible by n_classes=4"),
        ("8", "n_r/C=2 is below the largest per-class seed count 3"),
    ], ids=["indivisible", "below-seeds"])
    def test_select_refuses_nr_before_reading_features(self, workspace, chained, tmp_path,
                                                       capsys, monkeypatch, nr, message):
        def unreachable(*_args, **_kwargs):
            raise AssertionError("select went past its --nr check")

        monkeypatch.setattr(relab.pipeline, "load_features", unreachable)
        monkeypatch.setattr(relab.pipeline, "train_probe", unreachable)
        out = tmp_path / "r.jsonl"
        assert main(["select", "--features", str(chained / WHITENED_NAME),
                     "--propagated", str(chained / PROPAGATED_NAME),
                     "--seeds", str(workspace / "seeds.json"), "--nr", nr,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("strategy, code", [("small-loss", 2), ("retrieval-score", 0)])
    def test_select_features_needed_by_small_loss_only(self, workspace, chained, tmp_path,
                                                       capsys, strategy, code):
        argv = ["--quiet", "select", "--strategy", strategy,
                "--propagated", str(chained / PROPAGATED_NAME),
                "--seeds", str(workspace / "seeds.json"), "--nr", "40"]
        out = tmp_path / "r.jsonl"
        assert main([*argv, "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and "--features" in err, err
            assert not out.exists()
        else:
            with_features = tmp_path / "with-features.jsonl"
            assert main([*argv, "--features", str(chained / WHITENED_NAME),
                         "--out", str(with_features)]) == 0
            assert out.read_bytes() == with_features.read_bytes()

    def test_select_retrieval_strategy(self, workspace, tmp_path, capsys):
        out = tmp_path / "chain"
        run_chain(workspace, out)
        code = main(["--json", "select", "--strategy", "retrieval-score",
                     "--features", str(out / WHITENED_NAME),
                     "--propagated", str(out / PROPAGATED_NAME),
                     "--seeds", str(workspace / "seeds.json"), "--nr", "40",
                     "--out", str(tmp_path / "r.jsonl")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["strategy"] == "retrieval-score"

    def test_evaluate_nests_reliable_report(self, workspace, tmp_path):
        out = tmp_path / "chain"
        run_chain(workspace, out)
        report = json.loads((out / REPORT_NAME).read_text())
        assert "reliable" in report
        assert report["reliable"]["origin_counts"]["seed"] == 12
        assert report["n_classes"] == 4

    def test_pipeline_nn_method(self, workspace, tmp_path, capsys):
        code = main(["--json", "pipeline", "--method", "nn",
                     "--features", str(workspace / "features.relf"),
                     "--seeds", str(workspace / "seeds.json"),
                     "--nr", "40", "--out-dir", str(tmp_path / "run")])
        assert code == 0
        steps = json.loads(capsys.readouterr().out)
        assert [s["step"] for s in steps] == ["whiten", "propagate", "select"]


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def relab_distribution_installed():
    try:
        importlib.metadata.distribution("relab")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def run_help(command, env=None):
    proc = subprocess.run([*command, "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # A line of the subcommand list, not just the word somewhere in the text.
    assert re.search(r"^\s+propagate\s", proc.stdout, re.MULTILINE), proc.stdout


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        """The declared ``relab`` command, as an installer would write it, runs the CLI."""
        scripts = declared_scripts()
        assert "relab" in scripts, "pyproject.toml declares no relab console script"
        entry = importlib.metadata.EntryPoint(
            name="relab", value=scripts["relab"], group="console_scripts")
        assert callable(entry.load())

        # The wrapper pip and setuptools generate for a console_scripts entry.
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "relab"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {entry.module} import {entry.attr}\n"
            f"sys.exit({entry.attr}())\n"
        )
        script.chmod(script.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)

        path = os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")])
        exe = shutil.which("relab", path=path)
        assert exe == str(script)
        # Run the package under test, not some other installed copy of relab.
        package_parent = str(Path(relab.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(
            p for p in [package_parent, os.environ.get("PYTHONPATH", "")] if p)
        run_help([exe], env={**os.environ, "PATH": path, "PYTHONPATH": pythonpath})

    def test_python_dash_m(self):
        """``python -m relab`` runs the CLI from the source tree, without an install."""
        package_parent = str(Path(relab.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(
            p for p in [package_parent, os.environ.get("PYTHONPATH", "")] if p)
        run_help([sys.executable, "-m", "relab"], env={**os.environ, "PYTHONPATH": pythonpath})

    @pytest.mark.skipif(not relab_distribution_installed(),
                        reason="relab distribution is not installed")
    def test_installed_distribution_script(self):
        """An installed relab carries the declared entry point and puts it on PATH."""
        installed = importlib.metadata.distribution("relab").entry_points.select(
            group="console_scripts", name="relab")
        assert [ep.value for ep in installed] == [declared_scripts()["relab"]]
        exe = shutil.which("relab")
        assert exe is not None, "relab console script not on PATH"
        run_help([exe])


@pytest.fixture(scope="module")
def chained(workspace, tmp_path_factory):
    """Every artifact of the subcommand chain, for mutating one input at a time."""
    out = tmp_path_factory.mktemp("cli-chain")
    run_chain(workspace, out)
    return out


def mutate_seeds(path, key, value):
    doc = json.loads(path.read_text())
    (doc if key in ("n_classes", "seeds") else doc["seeds"][0])[key] = value
    path.write_text(json.dumps(doc))


def mutate_propagated(path, key, value):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    # Summary fields live in the trailing record; record fields in the second,
    # since index True would read as 1, that record's own index.
    records[-1 if key in records[-1] else 1][key] = value
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def mutate_truth(path, _key, value):
    labels = json.loads(path.read_text())
    labels[1] = value
    path.write_text(json.dumps(labels))


def mutate_reliable(path, key, value):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    # Summary fields live in the trailing record; entry fields in the first.
    records[-1 if key in records[-1] else 0][key] = value
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


MUTATE = {"seeds": mutate_seeds, "propagated": mutate_propagated, "truth": mutate_truth,
          "reliable": mutate_reliable}


def consumer_argv(command, files, out):
    if command == "propagate":
        return ["propagate", "--graph", files["graph"], "--seeds", files["seeds"],
                "--out", out]
    if command == "propagate-nn":
        return ["propagate", "--method", "nn", "--features", files["features"],
                "--seeds", files["seeds"], "--out", out]
    if command == "select":
        return ["select", "--features", files["features"],
                "--propagated", files["propagated"], "--seeds", files["seeds"],
                "--nr", "40", "--out", out]
    return ["evaluate", "--predicted", files["propagated"], "--truth", files["truth"],
            "--reliable", files["reliable"], "--out", out]


RELIABLE_KEYS = ["index", "class", "origin", "avg_loss", "retrieval_score", "summary",
                 "score_kind", "target_per_class", "per_class_count", "warnings"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["avg_loss", "retrieval_score", "seed", "bootstrapped"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(RELIABLE_KEYS), children, max_size=3),
    max_leaves=6)
# (action, record position, key, value); the summary is the last record.
RELIABLE_EDITS = st.tuples(
    st.sampled_from(["set", "delete", "replace", "drop"]),
    st.sampled_from([0, 1, -2, -1]),
    st.sampled_from(RELIABLE_KEYS),
    JSON_VALUES)


def apply_edit(records, action, position, key, value):
    if action == "drop":
        del records[position]
    elif action == "replace":
        records[position] = value
    elif isinstance(records[position], dict):
        if action == "set":
            records[position][key] = value
        else:
            records[position].pop(key, None)


SEED_VALUES = (st.sampled_from([-1, 0, 3, 4, 119, 120, 2**40, 2**63, 2**70])
               | st.integers() | JSON_VALUES)
# (action, seed position, key, value): n_classes and seeds are edited at the
# top level of the document, index and class in the seed at that position.
SEED_EDITS = st.tuples(
    st.sampled_from(["set", "delete", "replace", "drop"]),
    st.sampled_from([0, 1, -1]),
    st.sampled_from(["n_classes", "seeds", "index", "class"]),
    SEED_VALUES)


def apply_seed_edit(doc, action, position, key, value):
    if key in ("index", "class"):
        if isinstance(doc.get("seeds"), list) and len(doc["seeds"]) >= 2:
            apply_edit(doc["seeds"], action, position, key, value)
    elif action in ("delete", "drop"):
        doc.pop(key, None)
    else:
        doc[key] = value


# Propagated records carry index, label and retrieval_score, and the
# trailing summary record summary and n_classes; 10**400 is an integer too
# large for a float.
PROPAGATED_EDITS = st.tuples(
    st.sampled_from(["set", "delete", "replace", "drop"]),
    st.sampled_from([0, 1, -1]),
    st.sampled_from(["index", "label", "retrieval_score", "n_classes", "summary"]),
    SEED_VALUES | st.just(10**400))
# A truth file is one list: its entries are replaced or dropped.
TRUTH_EDITS = st.tuples(st.sampled_from(["replace", "drop"]), st.sampled_from([0, 1, -1]),
                        st.none(), SEED_VALUES)


def assert_consumers_fail_cleanly(commands, files, tmp_path, capsys):
    """Each command exits 0 with its output, or 2 or 3 with an error line and none."""
    for command in commands:
        out = tmp_path / f"{command}.out"
        out.unlink(missing_ok=True)
        capsys.readouterr()
        code = main(consumer_argv(command, files, str(out)))
        assert code in (0, 2, 3), command
        assert out.exists() == (code == 0), command
        err = capsys.readouterr().err
        assert "Traceback" not in err, err
        if code:
            assert err.startswith("error: "), err


def assert_mutation_refused(workspace, chained, tmp_path, capsys, kind, key, value,
                            commands, message=""):
    """Each command exits 3 on the chain's files with one value changed by
    MUTATE[kind], printing an error line that holds message and writing nothing."""
    files = {
        "features": str(chained / WHITENED_NAME),
        "graph": str(chained / GRAPH_NAME),
        "propagated": str(chained / PROPAGATED_NAME),
        "reliable": str(chained / RELIABLE_NAME),
        "seeds": str(workspace / "seeds.json"),
        "truth": str(workspace / "truth.json"),
    }
    bad = tmp_path / Path(files[kind]).name
    shutil.copyfile(files[kind], bad)
    MUTATE[kind](bad, key, value)
    files[kind] = str(bad)
    for command in commands:
        out = tmp_path / f"{command}.out"
        assert main(consumer_argv(command, files, str(out))) == 3, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert message in err, err
        assert not out.exists()


class TestStrictLoaders:
    """Values of the wrong JSON type are format errors, never coerced or crashed on."""

    @pytest.mark.parametrize("kind, key, value, commands", [
        ("seeds", "index", True, ["propagate", "select"]),
        ("seeds", "index", 1.5, ["propagate", "select"]),
        ("seeds", "class", False, ["propagate", "select"]),
        ("seeds", "class", "1", ["propagate", "select"]),
        ("propagated", "index", True, ["select", "evaluate"]),
        ("propagated", "index", 1.0, ["select", "evaluate"]),
        ("propagated", "label", "one", ["select", "evaluate"]),
        ("propagated", "label", "1", ["select", "evaluate"]),
        ("propagated", "label", True, ["select", "evaluate"]),
        ("propagated", "label", 1.0, ["select", "evaluate"]),
        ("propagated", "retrieval_score", "0.5", ["select", "evaluate"]),
        ("propagated", "retrieval_score", True, ["select", "evaluate"]),
        ("propagated", "retrieval_score", float("nan"), ["select", "evaluate"]),
        ("propagated", "retrieval_score", float("inf"), ["select", "evaluate"]),
        # pytest numbers these rows by position, so a row is replaced, not deleted.
        ("reliable", "origin", "bogus", ["evaluate"]),
        ("truth", None, True, ["evaluate"]),
        ("truth", None, 1.0, ["evaluate"]),
        ("reliable", "index", 26.7, ["evaluate"]),
        ("reliable", "index", True, ["evaluate"]),
        ("reliable", "index", "1", ["evaluate"]),
        ("reliable", "class", 1.0, ["evaluate"]),
        ("reliable", "class", False, ["evaluate"]),
        ("reliable", "origin", 5, ["evaluate"]),
        ("reliable", "origin", None, ["evaluate"]),
        ("reliable", "avg_loss", "0.5", ["evaluate"]),
        ("reliable", "avg_loss", True, ["evaluate"]),
        ("reliable", "avg_loss", float("nan"), ["evaluate"]),
        ("reliable", "avg_loss", float("inf"), ["evaluate"]),
        ("reliable", "index", 2**70, ["evaluate"]),
        ("reliable", "target_per_class", 2.7, ["evaluate"]),
        ("reliable", "target_per_class", True, ["evaluate"]),
        ("reliable", "target_per_class", "10", ["evaluate"]),
        ("reliable", "per_class_count", [1.9], ["evaluate"]),
        ("reliable", "per_class_count", [True], ["evaluate"]),
        ("reliable", "per_class_count", "ab", ["evaluate"]),
        ("reliable", "warnings", "ab", ["evaluate"]),
        ("reliable", "warnings", [1], ["evaluate"]),
        ("reliable", "score_kind", "loss", ["evaluate"]),
        ("reliable", "score_kind", None, ["evaluate"]),
        ("propagated", "index", 2**70, ["select", "evaluate"]),
        ("propagated", "label", 2**70, ["select", "evaluate"]),
        ("propagated", "label", -2**70, ["select", "evaluate"]),
        ("truth", None, 2**70, ["evaluate"]),
        ("seeds", "n_classes", 2**40, ["propagate", "propagate-nn", "select"]),
        ("seeds", "n_classes", 2**70, ["propagate", "propagate-nn", "select"]),
        ("seeds", "n_classes", 121, ["propagate", "propagate-nn", "select"]),
        ("seeds", "index", 2**40, ["propagate", "propagate-nn", "select"]),
        ("seeds", "index", 2**70, ["propagate", "propagate-nn", "select"]),
        ("reliable", "target_per_class", 2**70, ["evaluate"]),
        pytest.param("propagated", "retrieval_score", 10**400, ["select", "evaluate"],
                     id="propagated-retrieval_score-10**400"),
        pytest.param("reliable", "avg_loss", 10**400, ["evaluate"],
                     id="reliable-avg_loss-10**400"),
        ("propagated", "label", 120, ["evaluate"]),
        ("truth", None, 120, ["evaluate"]),
        ("truth", None, 2**40, ["evaluate"]),
    ])
    def test_wrong_type_exits_3(self, workspace, chained, tmp_path, capsys,
                                kind, key, value, commands):
        assert_mutation_refused(workspace, chained, tmp_path, capsys,
                                kind, key, value, commands)

    # The seeds and propagated files of the chain declare C = 4 classes for
    # N = 120 samples, so each value below but the empty seed list is in
    # range for N and out of range for C.
    @pytest.mark.parametrize("kind, key, value, commands, message", [
        ("propagated", "label", 99, ["select", "evaluate"],
         "label 99 out of range for 4 classes"),
        ("truth", None, 50, ["evaluate"], "truth class 50 out of range for 4 classes"),
        ("seeds", "n_classes", 5, ["select"], "n_classes=5 differs from the 4 of"),
        ("propagated", "n_classes", 5, ["select"], "n_classes=4 differs from the 5 of"),
        ("seeds", "seeds", [], ["propagate", "propagate-nn", "select"],
         "seeds.json: the seeds file holds no seed"),
    ])
    def test_class_count_refusals(self, workspace, chained, tmp_path, capsys,
                                  kind, key, value, commands, message):
        assert_mutation_refused(workspace, chained, tmp_path, capsys,
                                kind, key, value, commands, message)

    # The chain has N = 120 samples; truth[-1] would read the last label.
    @pytest.mark.parametrize("index", [-1, 120])
    def test_reliable_index_outside_truth_exits_3(self, workspace, chained, tmp_path,
                                                  capsys, index):
        assert_mutation_refused(workspace, chained, tmp_path, capsys,
                                "reliable", "index", index, ["evaluate"],
                                f"reliable entry index {index} out of range for 120 truth labels")

    # The chain's reliable set (4 classes, --nr 40) holds 3, 8, 10 and 10
    # entries per class against a target of 10.
    @pytest.mark.parametrize("edit, message", [
        ({"per_class_count": [1, 2, 3], "target_per_class": 99},
         "entry class 3 out of range for 3 per_class_count value(s)"),
        ({"per_class_count": [3, 8, 10, 9]},
         "per_class_count[3]=9, but the entries hold 10 of class 3"),
        ({"per_class_count": [3, 8, 10, 10, 1]},
         "per_class_count[4]=1, but the entries hold 0 of class 4"),
        ({"target_per_class": 9}, "per_class_count[2]=10 exceeds target_per_class=9"),
        ({"class": -1}, "entry class -1 out of range for 4 per_class_count value(s)"),
    ])
    def test_reliable_summary_disagreeing_with_entries_exits_3(
            self, workspace, chained, tmp_path, capsys, edit, message):
        records = [json.loads(line)
                   for line in (chained / RELIABLE_NAME).read_text().splitlines()]
        assert records[-1]["per_class_count"] == [3, 8, 10, 10]
        assert records[-1]["target_per_class"] == 10
        records[-1 if "class" not in edit else 0].update(edit)
        bad = tmp_path / RELIABLE_NAME
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / REPORT_NAME
        assert main(["evaluate", "--predicted", str(chained / PROPAGATED_NAME),
                     "--truth", str(workspace / "truth.json"),
                     "--reliable", str(bad), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert message in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["select", "evaluate"])
    def test_propagated_file_without_summary_exits_3(self, workspace, chained, tmp_path,
                                                     capsys, command):
        bad = tmp_path / PROPAGATED_NAME
        bad.write_text("".join((chained / PROPAGATED_NAME).read_text().splitlines(True)[:-1]))
        files = {"features": str(chained / WHITENED_NAME), "propagated": str(bad),
                 "seeds": str(workspace / "seeds.json"), "truth": str(workspace / "truth.json"),
                 "reliable": str(chained / RELIABLE_NAME)}
        out = tmp_path / f"{command}.out"
        assert main(consumer_argv(command, files, str(out))) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert "missing trailing summary record" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("other_class", [False, True])
    def test_reliable_index_listed_twice_exits_3(self, workspace, chained, tmp_path, capsys,
                                                 other_class):
        records = [json.loads(line)
                   for line in (chained / RELIABLE_NAME).read_text().splitlines()]
        twin = dict(records[0])
        if other_class:
            twin["class"] = (twin["class"] + 1) % 4
        records.insert(-1, twin)
        bad = tmp_path / RELIABLE_NAME
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / REPORT_NAME
        assert main(["evaluate", "--predicted", str(chained / PROPAGATED_NAME),
                     "--truth", str(workspace / "truth.json"),
                     "--reliable", str(bad), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert f"sample index {twin['index']} listed twice" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("truth", [[], "one extra"])
    def test_truth_length_mismatch_exits_3(self, workspace, chained, tmp_path, capsys,
                                           truth):
        labels = json.loads((workspace / "truth.json").read_text())
        bad = tmp_path / "truth.json"
        bad.write_text(json.dumps([] if truth == [] else labels + [0]))
        out = tmp_path / "report.json"
        assert main(["evaluate", "--predicted", str(chained / PROPAGATED_NAME),
                     "--truth", str(bad), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert not out.exists()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(RELIABLE_EDITS, min_size=1, max_size=3))
    def test_mutated_reliable_file(self, chained, workspace, tmp_path, capsys, edits):
        records = [json.loads(line)
                   for line in (chained / RELIABLE_NAME).read_text().splitlines()]
        for edit in edits:
            apply_edit(records, *edit)
        bad = tmp_path / RELIABLE_NAME
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / REPORT_NAME
        out.unlink(missing_ok=True)
        capsys.readouterr()
        code = main(["evaluate", "--predicted", str(chained / PROPAGATED_NAME),
                     "--truth", str(workspace / "truth.json"),
                     "--reliable", str(bad), "--out", str(out)])
        assert code in (0, 3)
        assert out.exists() == (code == 0)
        if code == 3:
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, err

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(SEED_EDITS, min_size=1, max_size=3))
    def test_mutated_seeds_file(self, chained, workspace, tmp_path, capsys, edits):
        doc = json.loads((workspace / "seeds.json").read_text())
        for edit in edits:
            apply_seed_edit(doc, *edit)
        bad = tmp_path / "seeds.json"
        bad.write_text(json.dumps(doc))
        files = {"graph": str(chained / GRAPH_NAME),
                 "features": str(chained / WHITENED_NAME), "seeds": str(bad)}
        for command in ("propagate", "propagate-nn"):
            out = tmp_path / PROPAGATED_NAME
            out.unlink(missing_ok=True)
            capsys.readouterr()
            code = main(consumer_argv(command, files, str(out)))
            assert code in (0, 2, 3), command
            assert out.exists() == (code == 0), command
            if code != 0:
                err = capsys.readouterr().err
                assert err.startswith("error: ") and "Traceback" not in err, err

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(PROPAGATED_EDITS, min_size=1, max_size=3))
    def test_mutated_propagated_file(self, chained, workspace, tmp_path, capsys, edits):
        records = [json.loads(line)
                   for line in (chained / PROPAGATED_NAME).read_text().splitlines()]
        for edit in edits:
            apply_edit(records, *edit)
        bad = tmp_path / PROPAGATED_NAME
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        files = {"features": str(chained / WHITENED_NAME), "propagated": str(bad),
                 "seeds": str(workspace / "seeds.json"), "truth": str(workspace / "truth.json"),
                 "reliable": str(chained / RELIABLE_NAME)}
        assert_consumers_fail_cleanly(["select", "evaluate"], files, tmp_path, capsys)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(TRUTH_EDITS, max_size=3), whole=st.none() | JSON_VALUES)
    def test_mutated_truth_file(self, chained, workspace, tmp_path, capsys, edits, whole):
        doc = json.loads((workspace / "truth.json").read_text())
        for edit in edits:
            apply_edit(doc, *edit)
        bad = tmp_path / "truth.json"
        bad.write_text(json.dumps(doc if whole is None else whole))
        files = {"propagated": str(chained / PROPAGATED_NAME), "truth": str(bad),
                 "reliable": str(chained / RELIABLE_NAME)}
        assert_consumers_fail_cleanly(["evaluate"], files, tmp_path, capsys)


def option_table(command):
    """{flag: (default, type)} for every option of a command that is not a path."""
    return {
        param.opts[0]: (param.default, repr(param.type))
        for param in command.params
        if isinstance(param, click.Option) and param.metavar != "PATH"
    }


STEPS = {("features", "whiten"): "whiten_step", ("graph", "build"): "graph_step",
         ("propagate",): "propagate_step", ("select",): "select_step",
         ("evaluate",): "evaluate_step", ("synth",): "synth_step",
         ("pipeline",): "run_pipeline"}


def leaf_commands(group, path=()):
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from leaf_commands(command, path + (name,))
        else:
            yield path + (name,), command


CONFIGS = {"probe": ProbeConfig, "synth": SynthConfig}


def field_names(cls):
    return {field.name for field in dataclasses.fields(cls)}


def bundles(names):
    """{step keyword: config class} of the CONFIGS whose fields are all
    among a command's option names. `synth --rng-seed` shares a name with
    a ProbeConfig field, and `select --rng-seed` with a SynthConfig field,
    not the bundle."""
    return {keyword: cls for keyword, cls in CONFIGS.items() if field_names(cls) <= names}


class TestCliParity:
    @pytest.mark.parametrize("path", [path for path, _ in leaf_commands(cli)], ids="-".join)
    def test_options_are_step_parameters(self, path):
        """A command hands its options to its step by name, the probe and
        synth flags as one ProbeConfig or SynthConfig: a renamed destination
        fails here."""
        names = {param.name for param in dict(leaf_commands(cli))[path].params}
        expected = set(names)
        for keyword, cls in bundles(names).items():
            expected = expected - field_names(cls) | {keyword}
        step = getattr(relab.cli, STEPS[path])
        assert set(inspect.signature(step).parameters) == expected

    @pytest.mark.parametrize("path", [path for path, _ in leaf_commands(cli)], ids="-".join)
    def test_option_defaults_are_destination_defaults(self, path):
        """What a command hands on for an absent option is the default of
        its destination: the step's keyword default, or the ProbeConfig or
        SynthConfig field default. A default declared twice cannot drift."""
        command = dict(leaf_commands(cli))[path]
        names = {param.name for param in command.params}
        step = inspect.signature(getattr(relab.cli, STEPS[path])).parameters
        defaults = {name: param.default for name, param in step.items()
                    if param.default is not inspect.Parameter.empty}
        for cls in bundles(names).values():
            defaults.update((field.name, field.default) for field in dataclasses.fields(cls))
        required = [text for param in command.params if param.required
                    for text in (param.opts[0], "x")]
        handed = command.make_context(path[-1], required).params
        shared = names & defaults.keys()
        assert {name: handed[name] for name in shared} == {name: defaults[name] for name in shared}

    @pytest.mark.parametrize("path", [
        ("features", "whiten"), ("graph", "build"), ("propagate",), ("select",)])
    def test_step_flags_exist_on_pipeline(self, path):
        command = cli
        for name in path:
            command = command.commands[name]
        step = option_table(command)
        assert step
        pipeline = option_table(cli.commands["pipeline"])
        assert {flag: pipeline.get(flag) for flag in step} == step

    @pytest.mark.parametrize("command", ["select", "pipeline"])
    def test_config_reaches_probe_window(self, workspace, chained, tmp_path, capsys,
                                         command):
        cfg = tmp_path / "relab.cfg"
        cfg.write_text("window = 61\n")
        if command == "select":
            argv = ["select", "--features", str(chained / WHITENED_NAME),
                    "--propagated", str(chained / PROPAGATED_NAME),
                    "--seeds", str(workspace / "seeds.json"), "--nr", "40",
                    "--out", str(tmp_path / "r.jsonl")]
        else:
            argv = ["pipeline", "--features", str(workspace / "features.relf"),
                    "--seeds", str(workspace / "seeds.json"), "--nr", "40",
                    "--out-dir", str(tmp_path / "run")]
        assert main(["--config", str(cfg)] + argv) == 2
        assert "average_window" in capsys.readouterr().err

    def test_text_pipeline_prints_one_line_per_step(self, workspace, tmp_path, capsys):
        code = main(["pipeline",
                     "--features", str(workspace / "features.relf"),
                     "--seeds", str(workspace / "seeds.json"),
                     "--truth", str(workspace / "truth.json"),
                     "--nr", "40", "--out-dir", str(tmp_path / "run")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":", 1)[0] for line in lines] == [
            "whiten", "graph", "propagate", "select", "evaluate"]


class TestDefaultGraph:
    def test_one_row_graph_is_empty(self, tmp_path, capsys):
        save_features(tmp_path / "f.relf", np.array([[3.0, 4.0]]))
        out = tmp_path / "g.relg"
        assert main(["--json", "graph", "build", "--features", str(tmp_path / "f.relf"),
                     "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["nnz"] == 0
        graph = load_graph(out)
        assert graph.n == 1 and graph.matrix.nnz == 0

    def test_pipeline_goes_sparse_above_dense_limit(self, tmp_path, capsys):
        n_classes, per_class, k = 3, 667, 50
        assert main([
            "--quiet", "synth", "--classes", str(n_classes),
            "--per-class", str(per_class), "--dims", "8", "--separation", "6",
            "--out-features", str(tmp_path / "f.relf"),
            "--out-truth", str(tmp_path / "t.json"),
            "--out-seeds", str(tmp_path / "s.json"), "--seeds-per-class", "3",
        ]) == 0
        code = main(["--json", "pipeline", "--strategy", "retrieval-score",
                     "--features", str(tmp_path / "f.relf"),
                     "--seeds", str(tmp_path / "s.json"),
                     "--nr", "30", "--out-dir", str(tmp_path / "run")])
        assert code == 0
        graph = next(s for s in json.loads(capsys.readouterr().out)
                     if s["step"] == "graph")
        n = n_classes * per_class
        assert graph["n"] == n == DENSE_NODE_LIMIT + 1
        assert graph["k"] == k
        assert graph["nnz"] <= 2 * k * n
