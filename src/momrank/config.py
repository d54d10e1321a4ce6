"""Experiment configuration: flat key=value files with CLI overrides.

One text file drives a whole experiment; every artifact embeds the resolved
key=value map plus the seed, so any result can be re-derived from its own
header. Unknown keys and unparseable values are rejected before anything runs.
Each key is one field of a section dataclass, ``section.field``, and ``SCHEMA``
is read off those fields, so a knob is declared once.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

from .data import check_synthetic, iso_date
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

    def __post_init__(self):
        if self.source not in ("synthetic", "csv"):
            raise ContractError(f"unknown data source {self.source!r}")
        if self.source == "csv" and not self.csv_path:
            raise ContractError("data.csv_path is required when data.source = csv")
        if self.shift_after is not None and self.shift_after < 0:
            raise ContractError(f"data.shift_after must be >= 0, got {self.shift_after}")
        check_synthetic(self.n_dates, self.n_tickers, self.n_features, self.signal_strength,
                        self.shifted_signal_strength)


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
        if self.train_frac + self.valid_frac >= 1.0:
            raise ContractError(f"split.train_frac + split.valid_frac must be < 1, got "
                                f"{self.train_frac} + {self.valid_frac}")


@dataclass(frozen=True)
class EvalConfig:
    precision_ns: tuple[int, ...] = (10, 20, 30, 50)
    top_n: int = 10
    cost_bps: float = 0.0

    def __post_init__(self):
        if self.top_n < 1:
            raise ContractError("backtest.top_n must be >= 1")
        if any(n < 1 for n in self.precision_ns):
            raise ContractError("eval.precision_ns entries must be >= 1")
        if len(set(self.precision_ns)) < len(self.precision_ns):
            raise ContractError(f"eval.precision_ns repeats a depth: "
                                f"{','.join(map(str, self.precision_ns))}")
        if self.cost_bps < 0:
            raise ContractError("backtest.cost_bps must be >= 0")
        if self.cost_bps > 5000:  # there a day's two one-way charges reach 100%
            raise ContractError(f"backtest.cost_bps must be <= 5000, got {self.cost_bps}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 7
    data: DataConfig = field(default_factory=DataConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    momentum: MomentumConfig = field(default_factory=MomentumConfig)
    loss: RankLossConfig = field(default_factory=RankLossConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ContractError(f"seed must be >= 0, got {self.seed}")


def _parse_opt(parser):
    def inner(text: str):
        return None if text.strip().lower() in ("", "none") else parser(text)
    return inner


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_range(text: str) -> tuple[str, str] | None:
    if text.strip().lower() in ("", "none"):
        return None
    lo, _, hi = text.partition(":")
    try:
        return iso_date(lo.strip()), iso_date(hi.strip())
    except ValueError:
        raise ValueError(f"range must look like YYYY-MM-DD:YYYY-MM-DD, got {text!r}") from None


# field annotation -> parser of its value text
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "int | None": _parse_opt(int),
    "float | None": _parse_opt(float),
    "str | None": _parse_opt(str),
    "tuple[int, ...]": _parse_int_tuple,
    "tuple[int, int]": _parse_int_tuple,
    "tuple[str, str] | None": _parse_range,
}
# fields whose key is not section.field
_KEYS = {("eval", "top_n"): "backtest.top_n", ("eval", "cost_bps"): "backtest.cost_bps"}


def _parser(owner: type, f) -> object:
    try:
        return _PARSERS[f.type]
    except KeyError:
        raise TypeError(f"{owner.__name__}.{f.name}: no config parser for {f.type!r}") from None


def _build_schema(root: type) -> tuple[dict[str, type], dict[str, tuple[str, str, object]]]:
    """Sections and key -> (section, field, parser), read off the dataclasses.

    A top-level field with a default factory is a section whose fields are
    keys; any other top-level field (the seed) is a key with section "".
    """
    sections: dict[str, type] = {}
    schema: dict[str, tuple[str, str, object]] = {}
    for top in fields(root):
        if top.default_factory is MISSING:
            schema[top.name] = ("", top.name, _parser(root, top))
            continue
        cls = sections[top.name] = top.default_factory
        for f in fields(cls):
            key = _KEYS.get((top.name, f.name), f"{top.name}.{f.name}")
            schema[key] = (top.name, f.name, _parser(cls, f))
    return sections, schema


_SECTION_CLASSES, SCHEMA = _build_schema(ExperimentConfig)


def parse_kv_text(text: str, origin: str) -> dict[str, str]:
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
    """Typed, validated config from a flat key->string map; a float key must be
    finite, checked after the range rules."""
    per_section: dict[str, dict] = {name: {} for name in _SECTION_CLASSES}
    top: dict = {}  # top-level keys (the seed)
    non_finite = []
    for key, text in raw.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        section, fname, parser = SCHEMA[key]
        try:
            value = parser(text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
        if isinstance(value, float) and not math.isfinite(value):
            non_finite.append(key)
        (per_section[section] if section else top)[fname] = value
    try:
        sections = {name: cls(**per_section[name]) for name, cls in _SECTION_CLASSES.items()}
        cfg = ExperimentConfig(**top, **sections)
    except ContractError as exc:
        raise ConfigError(str(exc)) from None
    if non_finite:
        raise ConfigError(f"{non_finite[0]} must be finite, got {raw[non_finite[0]]}")
    return cfg


def load_config(path: str | None, overrides: list[str]) -> ExperimentConfig:
    raw: dict[str, str] = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                raw.update(parse_kv_text(fh.read(), origin=str(path)))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
    for item in overrides:
        pairs = parse_kv_text(item, origin="--set")
        if not pairs:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        raw.update(pairs)
    return build_config(raw)


def fmt_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):  # incl. numpy floats; repr of builtin float roundtrips
        return repr(float(value))
    if isinstance(value, tuple):
        if value and isinstance(value[0], str):
            return f"{value[0]}:{value[1]}"
        return ",".join(str(v) for v in value)
    return str(value)


def to_flat(cfg: ExperimentConfig) -> dict[str, str]:
    """The fully resolved config as sorted flat key=value strings (provenance)."""
    out = {}
    for key, (section, fname, _) in SCHEMA.items():
        owner = getattr(cfg, section) if section else cfg
        out[key] = fmt_value(getattr(owner, fname))
    return dict(sorted(out.items()))
