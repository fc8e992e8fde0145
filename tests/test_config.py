"""Config loading: a bad value stops the command at load, before any stage
runs, with an ``error:`` line naming its key; flags override YAML."""

import argparse
import dataclasses

import pytest
import yaml

from cellscape import pipeline
from cellscape.cli import COMMANDS, build_parser, main
from cellscape.config import PipelineConfig, load_config, model_config_from

# every value a YAML file or flag can set, with its default
DEFAULTS = {
    "seed": 0,
    "paths.expression": None,
    "paths.coords": None,
    "paths.format": "dense-csv",
    "paths.batch_labels": None,
    "paths.type_labels": None,
    "paths.truth_labels": None,
    "paths.gene_sets": None,
    "paths.output_dir": "cellscape_out",
    "paths.samples": [],
    "preprocessing.target_sum": 1e4,
    "preprocessing.n_hvg": 3000,
    "graph.method": "auto",
    "graph.k": 6,
    "graph.prune_percentile": 99.0,
    "model.gat_layers": 2,
    "model.attention_heads": 4,
    "model.hidden_dim": 64,
    "model.embed_dim": 32,
    "model.cnn_channels": 4,
    "model.gamma": 3.0,
    "model.tau": 0.1,
    "model.mask_ratio": 0.3,
    "model.epochs": 105,
    "model.learning_rate": 1e-3,
    "model.weight_decay": 1e-4,
    "model.cci_only": False,
    "clustering.n_domains": 5,
    "clustering.refine": True,
    "clustering.refine_neighbors": 15,
    "analysis.transition_source": "spatial",
    "analysis.embedding_knn": 15,
    "analysis.marker_adj_p": 0.05,
    "analysis.marker_min_lfc": 0.25,
    "analysis.top_markers": 5,
    "simulate.n_cells": 2000,
    "simulate.n_genes": 200,
    "simulate.n_domains": 5,
    "simulate.band_axis": "x",
    "simulate.program_strength": 5.0,
    "simulate.noise_sd": 0.5,
}


def settable(cfg: PipelineConfig) -> dict:
    """``cfg`` as a flat ``{"section.key": value}`` table of the values a
    config can set; the sections' own ``seed`` fields follow the top level."""
    flat = {"seed": cfg.seed}
    for f in dataclasses.fields(cfg):
        if f.name != "seed":
            for key, value in dataclasses.asdict(getattr(cfg, f.name)).items():
                if key != "seed":
                    flat[f"{f.name}.{key}"] = value
    return flat


def nested(flat: dict) -> dict:
    data: dict = {}
    for dotted, value in flat.items():
        if "." in dotted:
            section, key = dotted.split(".")
            data.setdefault(section, {})[key] = value
        else:
            data[dotted] = value
    return data


def write_yaml(path, data) -> str:
    path.write_text(yaml.safe_dump(data))
    return str(path)


def test_defaults_are_the_literal_table():
    assert len(DEFAULTS) == 41
    assert settable(PipelineConfig()) == DEFAULTS


def test_every_settable_value_loads_from_yaml(tmp_path):
    cfg = load_config(write_yaml(tmp_path / "all.yaml", nested(DEFAULTS)))
    assert cfg == PipelineConfig()


def test_yaml_then_flag(tmp_path, monkeypatch):
    path = write_yaml(tmp_path / "c.yaml", {"seed": 3, "model": {"epochs": 4, "tau": 0.2}})
    cfg = load_config(path)
    assert (cfg.seed, cfg.model.epochs, cfg.model.tau) == (3, 4, 0.2)
    cfg = load_config(path, overrides={"seed": 5, "model.epochs": 2, "model.tau": None})
    assert (cfg.seed, cfg.model.epochs, cfg.model.tau) == (5, 2, 0.2)
    # the environment sets no value: only the file and the flags do
    monkeypatch.setenv("CELLSCAPE_SEED", "7")
    assert load_config(path, overrides={"seed": 5}).seed == 5


def test_int_loads_as_float(tmp_path):
    cfg = load_config(write_yaml(tmp_path / "c.yaml", {"preprocessing": {"target_sum": 100}}))
    assert type(cfg.preprocessing.target_sum) is float


def test_model_config_carries_the_top_level_seed():
    cfg = load_config(overrides={"seed": 9, "model.epochs": 3})
    mcfg = model_config_from(cfg)
    assert mcfg.seed == 9 and cfg.model.seed == 0
    assert mcfg == dataclasses.replace(cfg.model, seed=9)


class StageReached(Exception):
    pass


@pytest.fixture
def train_argv(tmp_path, monkeypatch):
    """``train`` arguments on a small tissue whose preprocessing raises
    ``StageReached``, so a command that gets past loading shows it."""
    assert main(["simulate", "--output-dir", str(tmp_path / "data"),
                 "--n-cells", "40", "--n-genes", "12", "--n-domains", "2"]) == 0

    def stage(*args, **kwargs):
        raise StageReached

    monkeypatch.setattr(pipeline, "preprocess_dataset", stage)
    return ["train", "--output-dir", str(tmp_path / "out"),
            "--expression", str(tmp_path / "data" / "expression.csv"),
            "--coords", str(tmp_path / "data" / "coords.csv")]


def test_valid_config_reaches_the_stage(train_argv, tmp_path):
    path = write_yaml(tmp_path / "ok.yaml", {"clustering": {"refine_neighbors": 1}})
    with pytest.raises(StageReached):
        main([*train_argv, "--config", path, "--tau", "0.5"])


BAD = [
    # flags, YAML, words the error line must contain
    pytest.param(["--tau", "0"], None, ["model", "tau"], id="tau-flag"),
    pytest.param([], {"clustering": {"refine_neighbors": 0}}, ["clustering", "refine_neighbors"],
                 id="refine_neighbors"),
    # the PCA width is the domain count, not a setting
    pytest.param([], {"clustering": {"pca_dim": 30}}, ["unknown", "clustering", "pca_dim"],
                 id="pca_dim"),
    # the swap budget is the layout's constant, and no section holds it
    pytest.param([], {"layout": {"swap_budget_factor": 20}}, ["unknown", "layout"],
                 id="swap_budget_factor"),
    # the CNN is one block: cnn_channels is its channel count, a positive
    # int, checked with or without the CNN branch
    pytest.param([], {"model": {"cnn_channels": [4, 8]}}, ["model", "cnn_channels"],
                 id="cnn_channels-list"),
    pytest.param([], {"model": {"cnn_channels": [4, 8.5]}}, ["model.cnn_channels"],
                 id="cnn_channels-float-entry"),
    pytest.param([], {"model": {"cnn_channels": []}}, ["model", "cnn_channels"],
                 id="cnn_channels-empty"),
    pytest.param([], {"model": {"cnn_channels": 0}}, ["model", "cnn_channels"],
                 id="cnn_channels-zero"),
    pytest.param([], {"model": {"cnn_channels": 0, "cci_only": True}},
                 ["model", "cnn_channels"], id="cnn_channels-zero-cci-only"),
    pytest.param([], {"model": {"cnn_channels": 4.5}}, ["model", "cnn_channels"],
                 id="cnn_channels-float"),
    pytest.param([], {"model": {"epochs": 1.5}}, ["model.epochs"], id="epochs-float"),
    pytest.param([], {"model": {"seed": 3}}, ["model", "seed"], id="model-seed"),
    pytest.param([], {"model": {"attention_slope": 0.3}}, ["model", "attention_slope"],
                 id="attention_slope"),
    pytest.param([], {"simulate": {"seed": 1}}, ["simulate", "seed"], id="simulate-seed"),
    pytest.param([], {"graph": {"k": True}}, ["graph.k"], id="k-bool"),
    # ComBat runs exactly when the data carries batch labels, and no key
    # switches it
    pytest.param([], {"preprocessing": {"combat": True}}, ["unknown", "preprocessing", "combat"],
                 id="combat-is-gone"),
    pytest.param(["--seed", "-1"], None, ["seed"], id="seed-negative"),
    pytest.param([], {"model": {"tau": float("nan")}}, ["model.tau"], id="tau-nan"),
    # a non-positive step or a negative decay would make Adam climb the loss
    pytest.param([], {"model": {"learning_rate": -1.0}}, ["model", "learning_rate"],
                 id="learning_rate-negative"),
    pytest.param([], {"model": {"weight_decay": -1e-4}}, ["model", "weight_decay"],
                 id="weight_decay-negative"),
    pytest.param([], {"analysis": {"top_markers": -1}}, ["analysis", "top_markers"],
                 id="top_markers-negative"),
    # markers are kept where adj_p < marker_adj_p: -1.0 keeps none, 5.0 keeps
    # every gene past the fold-change filter; a negative fold change admits
    # down-regulated genes
    pytest.param([], {"analysis": {"marker_adj_p": -1.0}}, ["analysis", "marker_adj_p"],
                 id="marker_adj_p-negative"),
    pytest.param([], {"analysis": {"marker_adj_p": 0}}, ["analysis", "marker_adj_p"],
                 id="marker_adj_p-zero"),
    pytest.param([], {"analysis": {"marker_adj_p": 5.0}}, ["analysis", "marker_adj_p"],
                 id="marker_adj_p-above-one"),
    pytest.param([], {"analysis": {"marker_min_lfc": -3.0}}, ["analysis", "marker_min_lfc"],
                 id="marker_min_lfc-negative"),
    pytest.param([], {"graph": {"method": "grid"}}, ["graph", "method", "grid"], id="method"),
    pytest.param([], {"analysis": {"transition_source": "umap"}},
                 ["analysis", "transition_source", "umap"], id="transition_source"),
    pytest.param([], {"paths": {"format": "bogus"}}, ["paths", "format", "bogus"], id="format"),
    pytest.param([], {"paths": {"samples": ["a.csv"]}}, ["paths", "samples[0]"],
                 id="samples-entry-not-mapping"),
    pytest.param([], {"paths": {"samples": [{"expresion": "a.csv", "coords": "b.csv"}]}},
                 ["paths", "samples[0]", "expresion"], id="samples-unknown-key"),
    pytest.param([], {"paths": {"samples": [{"expression": 3, "coords": "b.csv"}]}},
                 ["paths", "samples[0].expression"], id="samples-expression-int"),
    pytest.param([], {"paths": {"samples": [{"expression": "a.csv"}]}},
                 ["paths", "samples[0].coords"], id="samples-coords-missing"),
    pytest.param([], {"paths": {"samples": [
        {"expression": "a.csv", "coords": "b.csv"},
        {"expression": "a.csv", "coords": "b.csv", "format": "bogus"}]}},
                 ["paths", "samples[1].format", "bogus"], id="samples-format"),
    # train_argv passes --expression and --coords
    pytest.param([], {"paths": {"samples": [{"expression": "a.csv", "coords": "b.csv"}]}},
                 ["paths", "samples", "expression"], id="samples-with-expression"),
]


@pytest.mark.parametrize("flags, data, words", BAD)
def test_bad_value_stops_at_load(train_argv, tmp_path, capsys, flags, data, words):
    config = [] if data is None else ["--config", write_yaml(tmp_path / "bad.yaml", data)]
    capsys.readouterr()
    assert main([*train_argv, *config, *flags]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert all(word in err[0] for word in words), err[0]


def test_unparsable_yaml_is_a_config_error(train_argv, tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("model: [\n")
    assert main([*train_argv, "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}")


def test_simulate_reads_its_section(tmp_path):
    path = write_yaml(tmp_path / "sim.yaml", {"simulate": {
        "n_cells": 30, "n_genes": 9, "n_domains": 3, "band_axis": "y"}})
    assert main(["simulate", "--config", path, "--output-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "expression.csv").read_text().splitlines()
    assert len(rows) == 1 + 9 and rows[0].count(",") == 30
    labels = (tmp_path / "truth_labels.csv").read_text().splitlines()[1:]
    assert {line.split(",")[1] for line in labels} == {"0", "1", "2"}


def flag_actions() -> list[tuple[str, argparse.Action]]:
    """``(command, action)`` for every flag of every subcommand that sets a
    config value (all but ``--help`` and ``--config``)."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, action) for name, p in sub.choices.items() for action in p._actions
            if action.dest not in ("help", "config")]


CHOSEN = {"paths.format": "sparse-triplet", "graph.method": "knn",
          "analysis.transition_source": "embedding"}


def other_valid_value(key: str):
    default = DEFAULTS[key]
    if key in CHOSEN:
        return CHOSEN[key]
    if default is None:
        return "elsewhere/file.csv"
    if isinstance(default, bool):
        return not default
    if isinstance(default, str):
        return default + "_other"
    return default // 2 + 1 if isinstance(default, int) else default / 2


# The preprocess and graph commands are gone: train runs both stages and
# takes every flag they took, each setting the same key. The table is
# literal because the cases read from the parser cannot see a flag go.
FORMER_COMMANDS = {
    "preprocess": ["--coords", "--expression", "--format", "--n-hvg", "--output-dir",
                   "--seed", "--target-sum"],
    "graph": ["--coords", "--k", "--method", "--output-dir", "--prune-percentile", "--seed"],
}


def train_actions(former: str) -> list:
    """``train``'s action for each flag of the ``former`` command, None
    where ``train`` lacks it."""
    train = {action.option_strings[0]: action
             for name, action in flag_actions() if name == "train"}
    return [train.get(flag) for flag in FORMER_COMMANDS[former]]


@pytest.mark.parametrize("command, action", [
    *(pytest.param(command, action, id=f"{command}{action.option_strings[0]}")
      for command, action in flag_actions()),
    *(pytest.param(former, action, id=f"{former}{flag}")
      for former in FORMER_COMMANDS
      for flag, action in zip(FORMER_COMMANDS[former], train_actions(former))),
])
def test_each_flag_sets_the_key_its_dest_names(command, action):
    assert action is not None, f"train lost a flag of the {command} command"
    command = "train" if command in FORMER_COMMANDS else command
    key, value = action.dest, other_valid_value(action.dest)
    argv = [command, action.option_strings[0]]
    if action.nargs != 0:
        argv.append(str(value))
    flags = vars(build_parser().parse_args(argv))
    assert flags.pop("command") == command and flags.pop("config") is None
    assert settable(load_config(overrides=flags)) == {**DEFAULTS, key: value}


@pytest.mark.parametrize("command", [*COMMANDS, *FORMER_COMMANDS])
def test_help_shows_each_default_from_the_config(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    if command in FORMER_COMMANDS:
        actions = train_actions(command)
        assert None not in actions, f"train lost a flag of the {command} command"
        command = "train"
    else:
        actions = [action for name, action in flag_actions() if name == command]
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    defaults = settable(PipelineConfig())
    assert actions
    for action in actions:
        default = defaults[action.dest]
        shown = ("on" if default else "off") if isinstance(default, bool) else default
        expected = f"({action.dest})" if default is None else \
            f"({action.dest}, default: {shown})"
        assert expected in text, (action.option_strings, expected)
