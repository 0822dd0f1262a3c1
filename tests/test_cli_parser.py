"""The parser's surface: each subcommand's flags, with their dests, casters,
required flags, defaults, choices and action kinds.  Help text is left out,
and `type=None` reads as `str`, since argparse stores both alike."""

import argparse

from diffal.cli import CONFIG_KEYS, build_parser

STORE, TRUE, HELP = "_StoreAction", "_StoreTrueAction", "_HelpAction"
HELP_FLAG = (("-h", "--help"), "help", "str", False, argparse.SUPPRESS, None, HELP)


def _flag(option, dest, type_="str", required=False, default=None, choices=None, action=STORE):
    return ((option,), dest, type_, required, default, choices, action)


GRAPH = {
    _flag("--k", "k", "int"),
    _flag("--sigma", "sigma", "float"),
    _flag("--sigma0", "sigma0", "float"),
    _flag("--num-eigs", "num_eigs", "int"),
    _flag("--cache", "cache"),
}
INPUT = {
    _flag("--data", "data", required=True),
    _flag("--hsi-header", "hsi_header"),
    _flag("--standardize", "standardize", default=False, action=TRUE),
}

SURFACE = {
    "gen-data": {
        _flag("--dataset", "dataset", required=True,
              choices=("gaussians", "hierarchical", "geometric", "bottleneck")),
        _flag("--data-seed", "data_seed", "int"),
        _flag("--seed", "data_seed", "int"),
        _flag("--sizes", "sizes"),
        _flag("--per-cluster", "per_cluster", "int"),
        _flag("--stddev", "stddev", "float"),
        _flag("--means", "means"),
        _flag("--out", "out", required=True),
    },
    "build-graph": INPUT | GRAPH,
    "lund": INPUT | GRAPH | {
        _flag("--truth", "truth"),
        _flag("--t", "t"),
        _flag("--num-clusters", "num_clusters", "int"),
        _flag("--scores-out", "scores_out"),
        _flag("--out", "out", required=True),
    },
    "land": INPUT | GRAPH | {
        _flag("--truth", "truth"),
        _flag("--interactive", "interactive", default=False, action=TRUE),
        _flag("--budget", "budget", "int", required=True),
        _flag("--t", "t"),
        _flag("--out", "out", required=True),
    },
    "bench": GRAPH | {
        _flag("--config", "config"),
        _flag("--dataset", "dataset"),
        _flag("--truth", "truth"),
        _flag("--budgets", "budgets"),
        _flag("--methods", "methods"),
        _flag("--method", "methods"),
        _flag("--trials", "trials", "int"),
        _flag("--root-seed", "root_seed", "int"),
        _flag("--seed", "root_seed", "int"),
        _flag("--data-seed", "data_seed", "int"),
        _flag("--t", "t"),
        _flag("--out", "out"),
    },
    "scan-t": GRAPH | {
        _flag("--config", "config"),
        _flag("--data", "data"),
        _flag("--dataset", "dataset"),
        _flag("--truth", "truth"),
        _flag("--data-seed", "data_seed", "int"),
        _flag("--t-grid", "t_grid", default="0:8:0.5"),
        _flag("--out", "out", required=True),
    },
    "purity": GRAPH | {
        _flag("--data", "data", required=True),
        _flag("--truth", "truth", required=True),
        _flag("--t", "t"),
        _flag("--levels", "levels", "int", default=40),
        _flag("--out", "out", required=True),
    },
}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def _surface(parser: argparse.ArgumentParser) -> set:
    return {(tuple(a.option_strings), a.dest, (a.type or str).__name__, a.required, a.default,
             tuple(a.choices) if a.choices is not None else None, type(a).__name__)
            for a in parser._actions}


def test_each_subcommand_keeps_its_flags():
    subcommands = _subcommands()
    assert sorted(subcommands) == sorted(SURFACE)
    for name, parser in subcommands.items():
        assert _surface(parser) == SURFACE[name] | {HELP_FLAG}, name


def test_every_config_key_has_a_flag_or_is_config_only():
    dests = {a.dest for parser in _subcommands().values() for a in parser._actions}
    assert set(CONFIG_KEYS) - dests <= {"cbal_theta", "cbal_sample_size"}
