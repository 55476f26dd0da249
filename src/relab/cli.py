"""Command-line interface.

Every flag can also come from a `--config` file of `key = value` lines
(keys are the long flag names with '-' or '_' interchangeable). The file's
values become click defaults, so explicit flags win over them and they
satisfy required options. Exit codes: 0 success, 2 configuration error,
3 data or file-format error, 4 solver or training failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import click

from .diffusion import DEFAULT_ALPHA, DEFAULT_MAX_ITER, DEFAULT_TOL
from .errors import RelabError
from .graph import DEFAULT_GAMMA, DEFAULT_SPARSE_K, DENSE_NODE_LIMIT
from .pipeline import (
    METHODS,
    STRATEGIES,
    PipelineConfig,
    evaluate_step,
    graph_step,
    load_config_file,
    propagate_step,
    run_pipeline,
    select_step,
    synth_step,
    whiten_step,
)
from .selection import ProbeConfig

_PROBE_DEFAULTS = ProbeConfig()


@dataclass
class CliState:
    quiet: bool = False
    as_json: bool = False


def _default_map(command, config):
    """click's default_map for `command`, nested like its command tree.

    Each option takes the config value whose key is its long flag, with
    '-' read as '_'.
    """
    if isinstance(command, click.Group):
        return {name: _default_map(sub, config) for name, sub in command.commands.items()}
    return {param.name: config[key] for param in command.params for opt in param.opts
            if (key := opt[2:].replace("-", "_")) in config}


def _format_value(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _emit(ctx, summary):
    """Print a step summary dict, or the pipeline's list of them, honoring
    --quiet and --json (one JSON document either way)."""
    state = ctx.obj
    if state.as_json:
        click.echo(json.dumps(summary, sort_keys=True))
        return
    if state.quiet:
        return
    for step in summary if isinstance(summary, list) else [summary]:
        name = step.get("step", "")
        parts = [f"{k}={_format_value(v)}" for k, v in step.items() if k != "step"]
        click.echo(f"{name}: " + " ".join(parts))


def _options(*decorators):
    """Bundle click options so a step's command and `pipeline` share one declaration."""
    def apply(fn):
        for decorator in reversed(decorators):
            fn = decorator(fn)
        return fn
    return apply


_WHITEN_OPTIONS = _options(
    click.option("--eps", type=float, default=1e-10, show_default=True,
                 help="relative eigenvalue cutoff for null directions"),
)
_GRAPH_OPTIONS = _options(
    click.option("--gamma", type=float, default=DEFAULT_GAMMA, show_default=True,
                 help="cosine-affinity exponent"),
    click.option("--k", type=int, default=None,
                 help=f"keep top-k neighbors per node; when omitted, all pairs up to "
                      f"{DENSE_NODE_LIMIT} samples and k={DEFAULT_SPARSE_K} above"),
)
_PROPAGATE_OPTIONS = _options(
    click.option("--alpha", type=float, default=DEFAULT_ALPHA, show_default=True,
                 help="diffusion strength, 0 <= alpha < 1"),
    click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True),
    click.option("--max-iter", type=int, default=DEFAULT_MAX_ITER, show_default=True),
    click.option("--method", type=click.Choice(METHODS), default="diffusion",
                 show_default=True),
)
# Probe destinations are ProbeConfig's fields.
_SELECT_OPTIONS = _options(
    click.option("--nr", "n_r", type=int, default=None,
                 help="reliable-set size; default 500 for 10 classes, 4000 for 100"),
    click.option("--strategy", type=click.Choice(STRATEGIES), default="small-loss",
                 show_default=True),
    click.option("--epochs", type=int, default=_PROBE_DEFAULTS.epochs, show_default=True),
    click.option("--lr", "learning_rate", type=float,
                 default=_PROBE_DEFAULTS.learning_rate, show_default=True),
    click.option("--momentum", type=float, default=_PROBE_DEFAULTS.momentum,
                 show_default=True),
    click.option("--batch-size", type=int, default=_PROBE_DEFAULTS.batch_size,
                 show_default=True),
    click.option("--window", "average_window", type=int,
                 default=_PROBE_DEFAULTS.average_window, show_default=True,
                 help="epochs averaged for the small-loss score"),
    click.option("--rng-seed", type=int, default=_PROBE_DEFAULTS.rng_seed,
                 show_default=True),
)


@click.group(name="relab")
@click.option("--config", "config_path", default=None, metavar="PATH",
              help="key = value file supplying defaults for any flag below")
@click.option("--quiet", is_flag=True, help="suppress summary output")
@click.option("--json", "as_json", is_flag=True, help="print summaries as JSON")
@click.pass_context
def cli(ctx, config_path, quiet, as_json):
    """Bootstrap labels: diffuse seed labels over a feature graph, then
    select a class-balanced reliable subset by the small-loss criterion."""
    ctx.obj = CliState(quiet=quiet, as_json=as_json)
    if config_path:
        # Runs before the subcommand parses its flags, so flags still win.
        ctx.default_map = _default_map(ctx.command, load_config_file(config_path))


@cli.group()
def features():
    """Feature-matrix operations."""


@features.command("whiten")
@click.option("--in", "in_path", metavar="PATH", required=True, help="input features (RELF)")
@click.option("--out", "out_path", metavar="PATH", required=True,
              help="whitened features (RELF)")
@_WHITEN_OPTIONS
@click.pass_context
def features_whiten(ctx, in_path, out_path, eps):
    """PCA-whiten a feature file."""
    _emit(ctx, whiten_step(in_path, out_path, eps=eps))


@cli.group()
def graph():
    """Affinity-graph operations."""


@graph.command("build")
@click.option("--features", "features_path", metavar="PATH", required=True)
@_GRAPH_OPTIONS
@click.option("--out", "out_path", metavar="PATH", required=True, help="graph file (RELG)")
@click.pass_context
def graph_build(ctx, features_path, gamma, k, out_path):
    """Build the cosine-affinity graph over feature rows."""
    _emit(ctx, graph_step(features_path, out_path, gamma=gamma, k=k))


@cli.command()
@click.option("--graph", "graph_path", metavar="PATH",
              help="affinity graph (RELG), needed by --method diffusion")
@click.option("--features", "features_path", metavar="PATH",
              help="feature file (RELF), needed by --method nn")
@click.option("--seeds", "seeds_path", metavar="PATH", required=True,
              help="seed labels (JSON)")
@_PROPAGATE_OPTIONS
@click.option("--out", "out_path", metavar="PATH", required=True,
              help="propagated labels (JSONL)")
@click.pass_context
def propagate(ctx, graph_path, features_path, seeds_path, alpha, tol, max_iter,
              method, out_path):
    """Spread seed labels to every sample."""
    _emit(ctx, propagate_step(
        seeds_path, out_path, graph_path=graph_path, features_path=features_path,
        alpha=alpha, tol=tol, max_iter=max_iter, method=method,
    ))


@cli.command()
@click.option("--features", "features_path", metavar="PATH", required=True,
              help="whitened features (RELF)")
@click.option("--propagated", "propagated_path", metavar="PATH", required=True)
@click.option("--seeds", "seeds_path", metavar="PATH", required=True)
@_SELECT_OPTIONS
@click.option("--out", "out_path", metavar="PATH", required=True, help="reliable set (JSONL)")
@click.pass_context
def select(ctx, features_path, propagated_path, seeds_path, n_r, strategy, out_path,
           **probe):
    """Select the class-balanced reliable subset."""
    _emit(ctx, select_step(
        features_path, propagated_path, seeds_path, out_path,
        n_r=n_r, strategy=strategy, probe=ProbeConfig(**probe),
    ))


@cli.command()
@click.option("--predicted", "predicted_path", metavar="PATH", required=True,
              help="propagated labels (JSONL)")
@click.option("--truth", "truth_path", metavar="PATH", required=True,
              help="true labels (JSON)")
@click.option("--reliable", "reliable_path", metavar="PATH", default=None,
              help="also score this reliable set")
@click.option("--out", "out_path", metavar="PATH", required=True, help="report (JSON)")
@click.pass_context
def evaluate(ctx, predicted_path, truth_path, reliable_path, out_path):
    """Write a per-class noise and balance report."""
    _emit(ctx, evaluate_step(predicted_path, truth_path, out_path,
                             reliable_path=reliable_path))


@cli.command()
@click.option("--classes", "n_classes", type=int, default=10, show_default=True)
@click.option("--per-class", type=int, default=100, show_default=True)
@click.option("--dims", type=int, default=32, show_default=True)
@click.option("--separation", type=float, default=3.0, show_default=True,
              help="minimum center distance in within-cluster std units")
@click.option("--rng-seed", type=int, default=0, show_default=True)
@click.option("--imbalance", type=int, multiple=True,
              help="per-class counts (repeat C times); overrides --per-class")
@click.option("--out-features", metavar="PATH", required=True)
@click.option("--out-truth", metavar="PATH", required=True)
@click.option("--out-seeds", metavar="PATH", default=None,
              help="also write a seed file (needs --seeds-per-class)")
@click.option("--seeds-per-class", type=int, default=None)
@click.pass_context
def synth(ctx, n_classes, per_class, dims, separation, rng_seed, imbalance,
          out_features, out_truth, out_seeds, seeds_per_class):
    """Generate a labeled Gaussian-mixture fixture."""
    _emit(ctx, synth_step(
        out_features, out_truth, n_classes=n_classes, per_class=per_class,
        dims=dims, separation=separation, rng_seed=rng_seed,
        imbalance=list(imbalance) if imbalance else None,
        out_seeds=out_seeds, seeds_per_class=seeds_per_class,
    ))


@cli.command()
@click.option("--features", "features_path", metavar="PATH", required=True,
              help="raw features (RELF)")
@click.option("--seeds", "seeds_path", metavar="PATH", required=True)
@click.option("--truth", "truth_path", metavar="PATH", default=None,
              help="when given, a report.json is written too")
@click.option("--out-dir", metavar="DIR", required=True)
@_WHITEN_OPTIONS
@_GRAPH_OPTIONS
@_PROPAGATE_OPTIONS
@_SELECT_OPTIONS
@click.pass_context
def pipeline(ctx, features_path, seeds_path, truth_path, out_dir, eps, gamma, k,
             alpha, tol, max_iter, method, n_r, strategy, **probe):
    """Run whiten, graph, propagate, select, and evaluate in one go."""
    cfg = PipelineConfig(
        features=features_path, seeds=seeds_path, out_dir=out_dir,
        truth=truth_path, eps=eps, gamma=gamma, k=k, alpha=alpha, tol=tol,
        max_iter=max_iter, method=method, n_r=n_r, strategy=strategy,
        probe=ProbeConfig(**probe),
    )
    _emit(ctx, run_pipeline(cfg))


def main(argv=None):
    """Console entry point mapping failures to documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 2
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return 130
    except RelabError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
