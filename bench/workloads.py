"""The benchmark's workloads, and the fixed choices every run shares.

Each workload is one kind of operation repeated in a closed loop by one
client: the next operation starts when the previous one has ended. Inputs
come from `relab synth` at D=128, separation 6 and 4 seeds per class; the
workload seed is the synth `--rng-seed`, so it picks both the data and the
seed labels. Why each workload exists is in README.md and BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Set-up is repeated and its median reported, so a one-off stall (or work
# moved into set-up by a later change) shows without one run deciding it:
# at least SETUP_REPEATS times, and for cheap set-ups until SETUP_MIN_S of
# set-up time has been measured.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0

# One untimed operation runs in every measured process before timing
# starts. Without it the first BLAS call (thread pool start, kernel
# dispatch) lands in the first timed operation: it alone made `pca_whiten`
# take 0.31 s instead of 0.02 s. Its artifacts are also the reference the
# timed operations' hashes are compared with.
WARMUP_OPS = 1

DIMS = 128
SEPARATION = 6.0
SEEDS_PER_CLASS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    # "pipeline": one op is `relab pipeline` through relab.cli.main.
    # "sweep": the graph is built in set-up; one op is the
    # propagate -> select -> evaluate step functions of relab.pipeline.
    kind: str
    n_classes: int
    per_class: int
    k: int | None  # None leaves --k out: the dense graph
    n_r: int
    # Timed operations run for --seconds, and at least this many.
    min_ops: int

    @property
    def n(self):
        return self.n_classes * self.per_class

    def tiny(self):
        """The same workload at a size the self-test runs in seconds."""
        return replace(
            self,
            per_class=12 if self.n_classes > 10 else 30,
            k=None if self.k is None else 8,
            n_r=self.n_classes * 6,
            min_ops=2,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # The top-k graph build is ~88% of an op (ROADMAP item 2); diffusion
        # and the probe are nearly idle.
        Workload(name="knn-c10", kind="pipeline", n_classes=10, per_class=1000,
                 k=50, n_r=500, min_ops=3),
        # The reuse pattern of sweeps over alpha or seed draws: the graph is
        # read, never built; the probe and C=100 CG solves dominate (item 5).
        Workload(name="sweep-c100", kind="sweep", n_classes=100, per_class=100,
                 k=50, n_r=4000, min_ops=3),
        # The dense branch (k omitted): 2.0M nnz, a 32 MB graph file and the
        # load-time symmetry check. N=2000 is DENSE_NODE_LIMIT, so the graph
        # stays dense under today's rule and under any auto_k default.
        Workload(name="dense-2k", kind="pipeline", n_classes=10, per_class=200,
                 k=None, n_r=500, min_ops=3),
    )
}
