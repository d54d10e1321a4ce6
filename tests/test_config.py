from __future__ import annotations

import math
from dataclasses import dataclass, field

import pytest

from momrank.config import (SCHEMA, ExperimentConfig, _build_schema, build_config, load_config,
                            parse_kv_text, to_flat)
from momrank.errors import ConfigError


def test_defaults_match_reference_settings():
    cfg = ExperimentConfig()
    assert cfg.momentum.gap == 4 and cfg.momentum.length == 6
    assert cfg.loss.threshold_frac == pytest.approx(0.20)
    assert cfg.train.lr == pytest.approx(2e-4)
    assert cfg.train.epochs == 100
    assert cfg.train.beta == pytest.approx(0.5)
    assert cfg.train.decay == pytest.approx(1e-3)
    assert cfg.train.loss_window == 6
    assert cfg.train.patience == 30
    assert cfg.eval.top_n == 10


def test_parse_kv_text_comments_and_blanks():
    raw = parse_kv_text("""
# experiment
seed = 9

train.lr = 1e-3  # inline comment
""", origin="<config>")
    assert raw == {"seed": "9", "train.lr": "1e-3"}


def test_parse_kv_text_malformed_line():
    with pytest.raises(ConfigError):
        parse_kv_text("just words", origin="<config>")


def test_build_config_typed_values():
    cfg = build_config({"seed": "3", "train.hidden": "8,4", "loss.fixed_k": "7",
                        "data.shift_after": "none",
                        "split.train": "2020-01-01:2020-06-30",
                        "split.valid": "2020-07-01:2020-08-31",
                        "split.test": "2020-09-01:2020-12-31"})
    assert cfg.seed == 3
    assert cfg.train.hidden == (8, 4)
    assert cfg.loss.fixed_k == 7
    assert cfg.data.shift_after is None
    assert cfg.split.train == ("2020-01-01", "2020-06-30")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as exc:
        build_config({"train.lrr": "1"})
    assert "train.lrr" in str(exc.value)


@pytest.mark.parametrize("key", ["train.trunk", "train.standardize_y", "loss.ce_weight",
                                 "loss.rank_weight", "loss.score_scale",
                                 "momentum.dead_zone_scale", "data.normalize",
                                 "momentum.dead_zone"])
def test_removed_keys_rejected(key):
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config({key: "1"})


def test_auto_is_not_a_none_spelling():
    with pytest.raises(ConfigError, match="bad value for loss.fixed_k"):
        build_config({"loss.fixed_k": "auto"})


def test_ranking_none_rejected():
    with pytest.raises(ConfigError):
        build_config({"loss.ranking": "none"})


def test_flat_keys_are_the_declared_knobs():
    assert sorted(to_flat(ExperimentConfig())) == [
        "backtest.cost_bps", "backtest.top_n",
        "data.csv_path", "data.n_dates", "data.n_features", "data.n_tickers",
        "data.shift_after", "data.shifted_signal_strength", "data.signal_strength",
        "data.source",
        "eval.precision_ns",
        "loss.fixed_k", "loss.gain", "loss.ranking", "loss.threshold_frac",
        "momentum.anchor_offset", "momentum.gap", "momentum.length",
        "seed",
        "split.test", "split.train", "split.train_frac", "split.valid", "split.valid_frac",
        "train.beta", "train.decay", "train.epochs", "train.hidden", "train.loss_window",
        "train.lr", "train.mode", "train.optimizer", "train.patience", "train.task",
        "train.window",
    ]


def test_unparseable_field_annotation_fails_when_schema_is_built():
    @dataclass(frozen=True)
    class Section:
        ratio: complex = 1j

    @dataclass(frozen=True)
    class Root:
        seed: int = 0
        sec: Section = field(default_factory=Section)

    with pytest.raises(TypeError, match="Section.ratio"):
        _build_schema(Root)


def test_bad_value_names_key():
    with pytest.raises(ConfigError) as exc:
        build_config({"train.epochs": "many"})
    assert "train.epochs" in str(exc.value)


def test_contract_violation_becomes_config_error():
    with pytest.raises(ConfigError):
        build_config({"train.beta": "1.5"})
    with pytest.raises(ConfigError):
        build_config({"data.source": "csv"})  # csv_path missing


def test_repeated_precision_depth_rejected():
    with pytest.raises(ConfigError, match="eval.precision_ns repeats a depth: 5,5"):
        build_config({"eval.precision_ns": "5,5"})


def test_load_config_file_and_overrides(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text("seed = 5\ntrain.epochs = 10\n", encoding="utf-8")
    cfg = load_config(str(f), overrides=["train.epochs=20", "train.lr=1e-3"])
    assert cfg.seed == 5
    assert cfg.train.epochs == 20
    assert cfg.train.lr == pytest.approx(1e-3)


def test_to_flat_roundtrips():
    cfg = build_config({"seed": "13", "train.hidden": "8,4", "loss.ranking": "pairwise",
                        "data.shift_after": "100"})
    flat = to_flat(cfg)
    rebuilt = build_config(flat)
    assert rebuilt == cfg
    assert flat["seed"] == "13"
    assert flat["train.hidden"] == "8,4"


@pytest.mark.parametrize("key", sorted(SCHEMA))
def test_every_key_rejects_or_reads_a_finite_typed_value_at_the_boundary(key):
    section, fname, _ = SCHEMA[key]
    misread = []
    for text in ["nan", "inf", "-inf", "-1", "0", "1e300", ""]:
        try:
            cfg = load_config(None, [f"{key}={text}"])
        except ConfigError:
            continue
        value = getattr(getattr(cfg, section) if section else cfg, fname)
        for v in value if isinstance(value, tuple) else (value,):
            if not (v is None or isinstance(v, str)
                    or type(v) in (int, float) and math.isfinite(v)):
                misread.append((text, value))
    assert misread == []


@pytest.mark.parametrize("key,text,message", [
    ("train.lr", "nan", "train.lr must be finite, got nan"),
    ("train.lr", "inf", "train.lr must be finite, got inf"),
    ("train.decay", "nan", "train.decay must be finite, got nan"),
    ("train.decay", "inf", "train.decay must be finite, got inf"),
    ("train.lr", "1e300", "train.lr * train.decay must be <= 1, got 1e+300 * 0.001"),
    ("train.decay", "1e300", "train.lr * train.decay must be <= 1, got 0.0002 * 1e+300"),
    ("backtest.cost_bps", "nan", "backtest.cost_bps must be finite, got nan"),
    ("backtest.cost_bps", "inf", "backtest.cost_bps must be <= 5000, got inf"),
    ("backtest.cost_bps", "1e9", "backtest.cost_bps must be <= 5000, got 1000000000.0"),
    ("backtest.cost_bps", "-1", "backtest.cost_bps must be >= 0"),
    ("data.shift_after", "-1", "data.shift_after must be >= 0, got -1"),
    ("train.beta", "nan", "beta must lie in (0, 1)"),  # a range rule speaks before finiteness
])
def test_values_that_would_fail_partway_through_a_run_are_config_errors(key, text, message):
    with pytest.raises(ConfigError) as exc:
        build_config({key: text})
    assert str(exc.value) == message


def test_cost_bps_of_5000_and_shift_after_of_0_are_accepted():
    cfg = build_config({"backtest.cost_bps": "5000", "data.shift_after": "0"})
    assert cfg.eval.cost_bps == 5000.0 and cfg.data.shift_after == 0
