"""The README's library example runs as written, on the names relab exports."""

import re
from pathlib import Path

import relab
from relab.synth import SynthConfig, generate, pick_seeds

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The first python block under the README's "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    # The README run's data: 10 classes of 100 samples in 32 dims, 4 seeds
    # per class, which n_r=500 fits.
    C = 10
    X, truth = generate(SynthConfig(n_classes=C, per_class=100, dims=32, separation=6.0))
    seeds = pick_seeds(truth, 4, rng_seed=0)
    names = {"X": X, "seeds": seeds, "truth": truth, "C": C}
    exec(library_example(), names)
    for rset in (names["reliable"], names["by_score"]):
        assert rset.target_per_class == 50 and rset.per_class_count.shape == (C,)
    assert capsys.readouterr().out.startswith("NoiseReport(n_classes=10,")


def test_every_export_resolves_once():
    assert len(relab.__all__) == len(set(relab.__all__))
    missing = [name for name in relab.__all__ if not hasattr(relab, name)]
    assert missing == []
