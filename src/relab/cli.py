"""Command-line interface.

Every subcommand option (not --config, --quiet or --json) can also come
from a `--config` file of `key = value` lines, keyed by the long flag name
with '-' or '_' interchangeable; any other key is a configuration error.
The values become click defaults, parsed like flag text, so explicit flags
win over them and they satisfy required options. Exit codes: 0 success,
2 configuration error, 3 data or file-format error, 4 solver or training failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import click

from .diffusion import DEFAULT_ALPHA, DEFAULT_MAX_ITER, DEFAULT_TOL
from .errors import ConfigError, RelabError
from .features import DEFAULT_EPS
from .graph import DEFAULT_GAMMA, DEFAULT_SPARSE_K, DENSE_NODE_LIMIT
from .pipeline import (
    METHODS,
    STRATEGIES,
    evaluate_step,
    graph_step,
    load_config_file,
    propagate_step,
    run_pipeline,
    select_step,
    synth_step,
    whiten_step,
)
from .selection import NR_DEFAULTS, ProbeConfig
from .synth import SynthConfig

_PROBE_DEFAULTS = ProbeConfig()
_SYNTH_DEFAULTS = SynthConfig()


@dataclass
class CliState:
    quiet: bool = False
    as_json: bool = False


def _flag_text(value, multiple):
    """The text a flag would carry for a config value (`k = 2.5` is no int);
    no flag carries a NUL character, which no path may hold."""
    if multiple and isinstance(value, list):
        return [_flag_text(item, False) for item in value]
    text = value if isinstance(value, str) else json.dumps(value)
    if "\0" in text:
        raise ConfigError(f"config value {value!r} holds a NUL character")
    return text


def _default_map(command, config, used):
    """click's default_map for `command`, nested like its command tree.

    Each option takes the config value whose key is its long flag, with
    '-' read as '_'; the keys taken are added to `used`.
    """
    if isinstance(command, click.Group):
        return {name: _default_map(sub, config, used)
                for name, sub in command.commands.items()}
    keys = {param: key for param in command.params for opt in param.opts
            if (key := opt[2:].replace("-", "_")) in config}
    used.update(keys.values())
    return {param.name: _flag_text(config[key], param.multiple) for param, key in keys.items()}


def _config(cls, options):
    """Pop the flags whose destinations are the fields of cls, ProbeConfig
    or SynthConfig, and bundle them in one."""
    return cls(**{f.name: options.pop(f.name) for f in fields(cls)})


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
        parts = [f"{k}={json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v}"
                 for k, v in step.items() if k != "step"]
        click.echo(f"{name}: " + " ".join(parts))


def _options(*decorators):
    """Bundle click options so a step's command and `pipeline` share one declaration."""
    def apply(fn):
        for decorator in reversed(decorators):
            fn = decorator(fn)
        return fn
    return apply


_WHITEN_OPTIONS = click.option("--eps", type=float, default=DEFAULT_EPS, show_default=True,
                               help="relative eigenvalue cutoff for null directions")
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
# "500 for 10 classes, 4000 for 100": the first size names its unit.
_NR_SIZES = [f"{n_r} for {c}" for c, n_r in NR_DEFAULTS.items()]
_NR_SIZES[0] += " classes"
# Probe destinations are ProbeConfig's fields.
_SELECT_OPTIONS = _options(
    click.option("--nr", "n_r", type=int, default=None,
                 help="reliable-set size; default " + ", ".join(_NR_SIZES)),
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
        config, used = load_config_file(config_path), set()
        ctx.default_map = _default_map(ctx.command, config, used)
        if unknown := sorted(config.keys() - used):
            raise ConfigError(f"{config_path}: unknown config key(s) {', '.join(unknown)}")


@cli.group()
def features():
    """Feature-matrix operations."""


@features.command("whiten")
@click.option("--in", "in_path", metavar="PATH", required=True, help="input features (RELF)")
@click.option("--out", "out_path", metavar="PATH", required=True,
              help="whitened features (RELF)")
@_WHITEN_OPTIONS
@click.pass_context
def features_whiten(ctx, **options):
    """PCA-whiten a feature file."""
    _emit(ctx, whiten_step(**options))


@cli.group()
def graph():
    """Affinity-graph operations."""


@graph.command("build")
@click.option("--features", "features_path", metavar="PATH", required=True)
@_GRAPH_OPTIONS
@click.option("--out", "out_path", metavar="PATH", required=True, help="graph file (RELG)")
@click.pass_context
def graph_build(ctx, **options):
    """Build the cosine-affinity graph over feature rows."""
    _emit(ctx, graph_step(**options))


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
def propagate(ctx, **options):
    """Spread seed labels to every sample."""
    _emit(ctx, propagate_step(**options))


@cli.command()
@click.option("--features", "features_path", metavar="PATH",
              help="whitened features (RELF), needed by --strategy small-loss")
@click.option("--propagated", "propagated_path", metavar="PATH", required=True)
@click.option("--seeds", "seeds_path", metavar="PATH", required=True)
@_SELECT_OPTIONS
@click.option("--out", "out_path", metavar="PATH", required=True, help="reliable set (JSONL)")
@click.pass_context
def select(ctx, **options):
    """Select the class-balanced reliable subset."""
    probe = _config(ProbeConfig, options)
    _emit(ctx, select_step(probe=probe, **options))


@cli.command()
@click.option("--predicted", "predicted_path", metavar="PATH", required=True,
              help="propagated labels (JSONL)")
@click.option("--truth", "truth_path", metavar="PATH", required=True,
              help="true labels (JSON)")
@click.option("--reliable", "reliable_path", metavar="PATH", default=None,
              help="also score this reliable set")
@click.option("--out", "out_path", metavar="PATH", required=True, help="report (JSON)")
@click.pass_context
def evaluate(ctx, **options):
    """Write a per-class noise and balance report."""
    _emit(ctx, evaluate_step(**options))


# Synth flags up to --imbalance fill SynthConfig; an absent --imbalance is None.
@cli.command()
@click.option("--classes", "n_classes", type=int, default=_SYNTH_DEFAULTS.n_classes,
              show_default=True)
@click.option("--per-class", type=int, default=_SYNTH_DEFAULTS.per_class, show_default=True)
@click.option("--dims", type=int, default=_SYNTH_DEFAULTS.dims, show_default=True)
@click.option("--separation", type=float, default=_SYNTH_DEFAULTS.separation,
              show_default=True, help="minimum center distance in within-cluster std units")
@click.option("--rng-seed", type=int, default=_SYNTH_DEFAULTS.rng_seed, show_default=True)
@click.option("--imbalance", type=int, multiple=True,
              callback=lambda _ctx, _param, counts: counts or None,
              help="per-class counts (repeat C times); overrides --per-class")
@click.option("--out-features", metavar="PATH", required=True)
@click.option("--out-truth", metavar="PATH", required=True)
@click.option("--out-seeds", metavar="PATH", default=None,
              help="also write a seed file (needs --seeds-per-class)")
@click.option("--seeds-per-class", type=int, default=None)
@click.pass_context
def synth(ctx, **options):
    """Generate a labeled Gaussian-mixture fixture."""
    config = _config(SynthConfig, options)
    _emit(ctx, synth_step(synth=config, **options))


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
def pipeline(ctx, **options):
    """Run whiten, graph, propagate, select, and evaluate in one go."""
    probe = _config(ProbeConfig, options)
    _emit(ctx, run_pipeline(probe=probe, **options))


def main(argv=None):
    """Console entry point mapping failures to documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:  # exit_code is 2 for every UsageError
        click.echo(f"error: {exc.format_message()}", err=True)
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
