"""Experiment configuration: flat key=value files with CLI overrides.

One text file drives a whole experiment; every artifact embeds the resolved
key=value map plus the seed, so any result can be re-derived from its own
header. Unknown keys and unparseable values are rejected before anything runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, ContractError
from .losses import RankLossConfig
from .momentum import MomentumConfig
from .training import TrainConfig


@dataclass(frozen=True)
class DataConfig:
    source: str = "synthetic"            # synthetic | csv
    csv_path: str | None = None
    n_dates: int = 250
    n_tickers: int = 50
    n_features: int = 4
    signal_strength: float = 0.6
    shift_after: int | None = None
    shifted_signal_strength: float | None = None
    normalize: bool = True

    def __post_init__(self):
        if self.source not in ("synthetic", "csv"):
            raise ContractError(f"unknown data source {self.source!r}")
        if self.source == "csv" and not self.csv_path:
            raise ContractError("data.csv_path is required when data.source = csv")


@dataclass(frozen=True)
class SplitConfig:
    train_frac: float = 0.6
    valid_frac: float = 0.2
    train: tuple[str, str] | None = None  # explicit inclusive date ranges win
    valid: tuple[str, str] | None = None
    test: tuple[str, str] | None = None

    def __post_init__(self):
        explicit = [self.train, self.valid, self.test]
        if any(explicit) and not all(explicit):
            raise ContractError("give all three explicit split ranges or none")
        if not 0.0 < self.train_frac < 1.0 or not 0.0 < self.valid_frac < 1.0:
            raise ContractError("split fractions must lie in (0, 1)")


@dataclass(frozen=True)
class EvalConfig:
    precision_ns: tuple[int, ...] = (10, 20, 30, 50)
    top_n: int = 50
    cost_bps: float = 0.0

    def __post_init__(self):
        if self.top_n < 1:
            raise ContractError("backtest.top_n must be >= 1")
        if any(n < 1 for n in self.precision_ns):
            raise ContractError("eval.precision_ns entries must be >= 1")
        if self.cost_bps < 0:
            raise ContractError("backtest.cost_bps must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 7
    data: DataConfig = field(default_factory=DataConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    momentum: MomentumConfig = field(default_factory=MomentumConfig)
    loss: RankLossConfig = field(default_factory=RankLossConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_opt(parser):
    def inner(text: str):
        return None if text.strip().lower() in ("", "none", "auto") else parser(text)
    return inner


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_range(text: str) -> tuple[str, str] | None:
    if text.strip().lower() in ("", "none"):
        return None
    lo, _, hi = text.partition(":")
    if not hi:
        raise ValueError(f"range must look like YYYY-MM-DD:YYYY-MM-DD, got {text!r}")
    return (lo.strip(), hi.strip())


# key -> (section, field, parser)
SCHEMA: dict[str, tuple[str, str, object]] = {
    "seed": ("", "seed", int),
    "data.source": ("data", "source", str),
    "data.csv_path": ("data", "csv_path", _parse_opt(str)),
    "data.n_dates": ("data", "n_dates", int),
    "data.n_tickers": ("data", "n_tickers", int),
    "data.n_features": ("data", "n_features", int),
    "data.signal_strength": ("data", "signal_strength", float),
    "data.shift_after": ("data", "shift_after", _parse_opt(int)),
    "data.shifted_signal_strength": ("data", "shifted_signal_strength", _parse_opt(float)),
    "data.normalize": ("data", "normalize", _parse_bool),
    "split.train_frac": ("split", "train_frac", float),
    "split.valid_frac": ("split", "valid_frac", float),
    "split.train": ("split", "train", _parse_range),
    "split.valid": ("split", "valid", _parse_range),
    "split.test": ("split", "test", _parse_range),
    "momentum.gap": ("momentum", "gap", int),
    "momentum.length": ("momentum", "length", int),
    "momentum.dead_zone": ("momentum", "dead_zone", _parse_opt(float)),
    "momentum.dead_zone_scale": ("momentum", "dead_zone_scale", float),
    "momentum.anchor_offset": ("momentum", "anchor_offset", int),
    "loss.threshold_frac": ("loss", "threshold_frac", float),
    "loss.fixed_k": ("loss", "fixed_k", _parse_opt(int)),
    "loss.gain": ("loss", "gain", str),
    "loss.ce_weight": ("loss", "ce_weight", float),
    "loss.rank_weight": ("loss", "rank_weight", float),
    "loss.ranking": ("loss", "ranking", str),
    "loss.score_scale": ("loss", "score_scale", float),
    "train.mode": ("train", "mode", str),
    "train.task": ("train", "task", str),
    "train.lr": ("train", "lr", float),
    "train.epochs": ("train", "epochs", int),
    "train.beta": ("train", "beta", float),
    "train.decay": ("train", "decay", float),
    "train.loss_window": ("train", "loss_window", int),
    "train.patience": ("train", "patience", int),
    "train.optimizer": ("train", "optimizer", str),
    "train.window": ("train", "window", int),
    "train.hidden": ("train", "hidden", _parse_int_tuple),
    "train.trunk": ("train", "trunk", str),
    "train.standardize_y": ("train", "standardize_y", _parse_bool),
    "eval.precision_ns": ("eval", "precision_ns", _parse_int_tuple),
    "backtest.top_n": ("eval", "top_n", int),
    "backtest.cost_bps": ("eval", "cost_bps", float),
}

_SECTION_CLASSES = {"data": DataConfig, "split": SplitConfig, "momentum": MomentumConfig,
                    "loss": RankLossConfig, "train": TrainConfig, "eval": EvalConfig}


def parse_kv_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """key = value lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        out[key.strip()] = value.strip()
    return out


def build_config(raw: dict[str, str]) -> ExperimentConfig:
    """Typed, validated config from a flat key->string map."""
    per_section: dict[str, dict] = {name: {} for name in _SECTION_CLASSES}
    seed = None
    for key, text in raw.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        section, fname, parser = SCHEMA[key]
        try:
            value = parser(text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
        if section == "":
            seed = value
        else:
            per_section[section][fname] = value
    try:
        sections = {name: cls(**per_section[name]) for name, cls in _SECTION_CLASSES.items()}
        cfg = ExperimentConfig(seed=seed if seed is not None else ExperimentConfig.seed,
                               data=sections["data"], split=sections["split"],
                               momentum=sections["momentum"], loss=sections["loss"],
                               train=sections["train"], eval=sections["eval"])
    except ContractError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def load_config(path: str | None, overrides: list[str] | None = None) -> ExperimentConfig:
    raw: dict[str, str] = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                raw.update(parse_kv_text(fh.read(), origin=str(path)))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
    for item in overrides or []:
        pairs = parse_kv_text(item, origin="--set")
        if not pairs:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        raw.update(pairs)
    return build_config(raw)


def _fmt_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        if value and isinstance(value[0], str):
            return f"{value[0]}:{value[1]}"
        return ",".join(str(v) for v in value)
    return str(value)


def to_flat(cfg: ExperimentConfig) -> dict[str, str]:
    """The fully resolved config as sorted flat key=value strings (provenance)."""
    sections = {"data": cfg.data, "split": cfg.split, "momentum": cfg.momentum,
                "loss": cfg.loss, "train": cfg.train, "eval": cfg.eval}
    out = {"seed": str(cfg.seed)}
    for key, (section, fname, _) in SCHEMA.items():
        if section == "":
            continue
        out[key] = _fmt_value(getattr(sections[section], fname))
    return dict(sorted(out.items()))
