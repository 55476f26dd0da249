import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relab
import relab.pipeline
from relab.cli import main
from relab.diffusion import load_propagated
from relab.errors import ConfigError
from relab.features import l2_normalize, load_features
from relab.graph import load_graph
from relab.pipeline import (
    GRAPH_NAME,
    PROPAGATED_NAME,
    RELIABLE_NAME,
    REPORT_NAME,
    WHITENED_NAME,
    load_config_file,
    run_pipeline,
    synth_step,
)
from relab.selection import check_budget, load_reliable
from relab.synth import SynthConfig

from conftest import same_bits, seeds_of


def one_seed_per_class(n_classes):
    return seeds_of(zip(range(n_classes), range(n_classes)), n_classes)


class TestDefaultNr:
    def test_standard_sizes(self):
        assert check_budget(one_seed_per_class(10), None) == 500
        assert check_budget(one_seed_per_class(100), None) == 4000

    def test_other_class_counts_need_explicit_nr(self):
        with pytest.raises(ConfigError) as excinfo:
            check_budget(one_seed_per_class(7), None)
        assert str(excinfo.value) == "no default n_r for 7 classes; pass --nr explicitly"

    def test_explicit_nr_is_checked_against_the_budget(self):
        assert check_budget(one_seed_per_class(7), 14) == 14
        with pytest.raises(ConfigError) as excinfo:
            check_budget(one_seed_per_class(7), 15)
        assert str(excinfo.value) == "n_r=15 is not divisible by n_classes=7"


class TestConfigFile:
    def test_parses_values_comments_and_dashes(self, tmp_path):
        cfg = tmp_path / "relab.cfg"
        cfg.write_text(
            "# a comment line\n"
            "alpha = 0.5\n"
            "max-iter = 200   # trailing comment\n"
            "method = diffusion\n"
            "quiet = true\n"
            "\n"
            'out_dir = "run away"\n'
            "path = /tmp/a#b\n"
            'name = "a" b#c\n'
        )
        values = load_config_file(cfg)
        assert values == {
            "alpha": 0.5,
            "max_iter": 200,
            "method": "diffusion",
            "quiet": True,
            "out_dir": "run away",
            "path": "/tmp/a",
            "name": '"a" b',
        }

    def test_hash_inside_json_value_is_kept(self, tmp_path):
        cfg = tmp_path / "relab.cfg"
        cfg.write_text('out-dir = "run#1"\nimbalance = ["x#y", 2]  # two\n')
        assert load_config_file(cfg) == {"out_dir": "run#1", "imbalance": ["x#y", 2]}

    def test_missing_assignment_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 0.5\n")
        with pytest.raises(ConfigError) as excinfo:
            load_config_file(cfg)
        assert "bad.cfg:1" in str(excinfo.value)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(tmp_path / "absent.cfg")


class TestRunPipeline:
    # Real inputs, so that nothing but the one check stops the run before
    # it creates the output directory.
    def test_bad_method(self, fixture_files, tmp_path):
        with pytest.raises(ConfigError) as excinfo:
            run_fixture(fixture_files, tmp_path / "o", method="psychic")
        assert str(excinfo.value) == "method must be one of ('diffusion', 'nn'), got 'psychic'"
        assert excinfo.value.exit_code == 2
        assert not (tmp_path / "o").exists()

    def test_bad_strategy(self, fixture_files, tmp_path):
        with pytest.raises(ConfigError) as excinfo:
            run_fixture(fixture_files, tmp_path / "o", strategy="vibes")
        assert str(excinfo.value) == ("strategy must be one of ('small-loss', "
                                      "'retrieval-score'), got 'vibes'")
        assert excinfo.value.exit_code == 2
        assert not (tmp_path / "o").exists()

    def test_standard_fixture_fills_every_class_budget(self, tmp_path):
        # Well-separated 10-class mixture, 4 seeds/class, nr=500: every
        # class has plenty of candidates, so the reliable set holds
        # exactly 50 per class and all 40 seeds keep their labels.
        data = tmp_path / "data"
        data.mkdir()
        synth_step(str(data / "features.relf"), str(data / "truth.json"),
                   SynthConfig(n_classes=10, per_class=100, dims=32, separation=8.0,
                               rng_seed=1),
                   out_seeds=str(data / "seeds.json"), seeds_per_class=4)
        out = tmp_path / "run"
        steps = run_pipeline(str(data / "features.relf"), str(data / "seeds.json"),
                             str(out), truth_path=str(data / "truth.json"), n_r=500)
        assert [s["step"] for s in steps] == [
            "whiten", "graph", "propagate", "select", "evaluate"]

        rset = load_reliable(out / RELIABLE_NAME)
        assert rset.per_class_count.tolist() == [50] * 10
        assert rset.target_per_class == 50
        assert rset.warnings == []
        seed_doc = json.loads((data / "seeds.json").read_text())
        entry_classes = dict(zip(rset.index.tolist(), rset.label.tolist()))
        for record in seed_doc["seeds"]:
            assert entry_classes[record["index"]] == record["class"]
        assert np.count_nonzero(rset.is_seed) == 40

        report = json.loads((out / REPORT_NAME).read_text())
        assert report["reliable"]["per_class_count"] == [50] * 10

    def test_without_truth_writes_no_report(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        synth_step(str(data / "features.relf"), str(data / "truth.json"),
                   SynthConfig(n_classes=4, per_class=10, dims=6, separation=8.0,
                               rng_seed=0),
                   out_seeds=str(data / "seeds.json"), seeds_per_class=2)
        out = tmp_path / "run"
        steps = run_pipeline(str(data / "features.relf"), str(data / "seeds.json"),
                             str(out), n_r=12)
        assert [s["step"] for s in steps] == ["whiten", "graph", "propagate", "select"]
        for name in (WHITENED_NAME, GRAPH_NAME, PROPAGATED_NAME, RELIABLE_NAME):
            assert (out / name).exists()
        assert not (out / REPORT_NAME).exists()

    def test_synth_step_seed_file_needs_count(self, tmp_path):
        with pytest.raises(ConfigError):
            synth_step(str(tmp_path / "f.relf"), str(tmp_path / "t.json"),
                       SynthConfig(n_classes=2, per_class=3, dims=4),
                       out_seeds=str(tmp_path / "s.json"), seeds_per_class=None)


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    """A 3-class, 60-sample synth fixture with 2 seeds per class."""
    data = tmp_path_factory.mktemp("pipeline-data")
    synth_step(str(data / "features.relf"), str(data / "truth.json"),
               SynthConfig(n_classes=3, per_class=20, dims=6, separation=6.0, rng_seed=3),
               out_seeds=str(data / "seeds.json"), seeds_per_class=2)
    return data


def run_fixture(data, out, **options):
    return run_pipeline(str(data / "features.relf"), str(data / "seeds.json"), str(out),
                        truth_path=str(data / "truth.json"), n_r=12, **options)


class TestInMemoryChain:
    @pytest.mark.parametrize("options", [{}, {"method": "nn"},
                                         {"strategy": "retrieval-score"}], ids=str)
    def test_reads_back_nothing_it_wrote(self, fixture_files, tmp_path, monkeypatch, options):
        def refuse(*args, **kwargs):
            raise AssertionError("run_pipeline read back an artifact")

        for name in ("load_graph", "load_propagated", "load_reliable"):
            monkeypatch.setattr(relab.pipeline, name, refuse)
        calls = {"load_features": [], "load_seeds": []}
        for name, paths in calls.items():
            def counted(path, _fn=getattr(relab.pipeline, name), _paths=paths):
                _paths.append(str(path))
                return _fn(path)
            monkeypatch.setattr(relab.pipeline, name, counted)
        steps = run_fixture(fixture_files, tmp_path / "run", **options)
        assert steps[-1]["step"] == "evaluate"
        assert calls == {"load_features": [str(fixture_files / "features.relf")],
                         "load_seeds": [str(fixture_files / "seeds.json")]}

    @pytest.mark.parametrize("strategy, method", [("small-loss", "diffusion"),
                                                  ("retrieval-score", "diffusion"),
                                                  ("small-loss", "nn")],
                             ids=["small-loss", "retrieval-score", "nn"])
    def test_values_passed_on_equal_the_written_files(self, fixture_files, tmp_path,
                                                      monkeypatch, strategy, method):
        seen = {}
        for name in ("build_affinity", "normalize", "nn_propagate", "train_probe",
                     "select_by_retrieval_score", "compare_selection"):
            def spy(*args, _fn=getattr(relab.pipeline, name), _name=name, **kwargs):
                seen[_name] = copy.deepcopy(args)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(relab.pipeline, name, spy)
        out = tmp_path / "run"
        run_fixture(fixture_files, out, strategy=strategy, method=method)

        whitened = load_features(out / WHITENED_NAME)
        if method == "nn":
            assert same_bits(seen["nn_propagate"][0], whitened)
        else:
            assert same_bits(seen["build_affinity"][0], whitened)
            written, passed = load_graph(out / GRAPH_NAME).matrix, seen["normalize"][0].matrix
            for name in ("indptr", "indices", "data"):
                assert same_bits(getattr(passed, name), getattr(written, name)), name
        labels, retrieval, _ = load_propagated(out / PROPAGATED_NAME)
        if strategy == "small-loss":
            unit, probe_labels = seen["train_probe"][:2]
            assert same_bits(unit, l2_normalize(whitened).astype(np.float32))
            assert same_bits(probe_labels, labels)
        else:
            assert same_bits(seen["select_by_retrieval_score"][0], labels)
            assert same_bits(seen["select_by_retrieval_score"][1], retrieval)
        passed, written = seen["compare_selection"][0], load_reliable(out / RELIABLE_NAME)
        for name in ("index", "label", "is_seed", "score"):
            assert same_bits(getattr(passed, name), getattr(written, name)), name
        assert same_bits(passed.per_class_count, written.per_class_count)
        assert (passed.target_per_class, passed.score_kind, passed.warnings) == (
            written.target_per_class, written.score_kind, written.warnings)


class TestArtifactsIgnoreThreads:
    def test_one_and_two_blas_threads_write_the_same_bytes(self, tmp_path):
        # N = 10,400: OpenBLAS splits a 1-D dot product or norm of more than
        # about 10,000 elements across threads, which moves its last bits.
        features, truth, seeds = (str(tmp_path / name)
                                  for name in ("features.relf", "truth.json", "seeds.json"))
        assert main(["--quiet", "synth", "--classes", "10", "--per-class", "1040",
                     "--dims", "128", "--separation", "6", "--seeds-per-class", "4",
                     "--out-features", features, "--out-truth", truth,
                     "--out-seeds", seeds]) == 0
        package_parent = str(Path(relab.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(
            p for p in [package_parent, os.environ.get("PYTHONPATH", "")] if p)
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "relab", "--quiet", "pipeline", "--features", features,
                 "--seeds", seeds, "--truth", truth, "--out-dir", str(out)],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                            for path in out.iterdir()})
        assert sorted(digests[0]) == sorted([WHITENED_NAME, GRAPH_NAME, PROPAGATED_NAME,
                                             RELIABLE_NAME, REPORT_NAME])
        assert digests[0] == digests[1]
