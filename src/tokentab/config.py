"""Flat key=value configuration files and their dataclass bindings.

One key per line, ``key = value``, ``#`` starts a comment. Command-line
flags mirror the keys one-to-one and override the file. The fully resolved
mapping is written into every output directory for provenance.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """Unusable configuration; the message names the offending key."""


def read_kv_file(path) -> dict[str, str]:
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}: line {line_no} is not 'key = value'")
            key, value = text.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def render_kv(mapping: dict) -> str:
    return "".join(f"{k} = {mapping[k]}\n" for k in sorted(mapping))


#: the parser of each settings field type, as the dataclasses spell it; the
#: command-line flags parse with the same functions
FIELD_TYPES = {"int": int, "float": float, "str": str}


def resolve(cls, file_map: dict[str, str] | None, overrides: dict | None):
    """Defaults, then file values, then non-None flag overrides."""
    field_types = {f.name: f.type for f in dataclasses.fields(cls)}
    values = {}
    for key, text in (file_map or {}).items():
        if key not in field_types:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            values[key] = FIELD_TYPES[field_types[key]](text)
        except ValueError:
            raise ConfigError(f"invalid value {text!r} for key {key!r}") from None
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in field_types:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = value
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"non-finite value {value!r} for key {key!r}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _check_at_least(settings, key: str, low: int) -> None:
    value = getattr(settings, key)
    if value < low:
        raise ConfigError(f"key {key!r} must be >= {low}, got {value}")


def as_kv(settings) -> dict[str, str]:
    out = {}
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        out[f.name] = repr(value) if isinstance(value, float) else str(value)
    return out


@dataclass(frozen=True)
class PretrainSettings:
    seed: int = 0
    episodes: int = 2000
    lr: float = 1e-3
    holdout: int = 20
    log_every: int = 50
    embed_dim: int = 64
    layers: int = 3
    heads: int = 4
    ff_dim: int = 128
    max_classes: int = 4
    prior_max_features: int = 5
    prior_max_categories: int = 6
    prior_classes_min: int = 2
    prior_classes_max: int = 3
    prior_samples_min: int = 48
    prior_samples_max: int = 96
    prior_noise: float = 0.05
    prior_weight_linear: float = 0.4
    prior_weight_mlp: float = 0.3
    prior_weight_rule: float = 0.3
    prior_min_class_fraction: float = 0.05

    def __post_init__(self):
        for key in ("seed", "episodes", "holdout"):
            _check_at_least(self, key, 0)
        _check_at_least(self, "log_every", 1)


@dataclass(frozen=True)
class FinetuneSettings:
    seeds: str = "0,1,2,3,4"
    epochs: int = 30
    lr: float = 1e-3
    lambda_orth: float = 1.0
    variant: str = "full"
    trainable: str = "ft_layer_only"
    support_fraction: float = 0.7
    steps_per_epoch: int = 4

    def seed_list(self) -> tuple[int, ...]:
        try:
            seeds = tuple(int(s) for s in self.seeds.split(",") if s.strip() != "")
        except ValueError:
            raise ConfigError(f"invalid value {self.seeds!r} for key 'seeds'") from None
        if not seeds:
            raise ConfigError("key 'seeds' must list at least one seed")
        if min(seeds) < 0:
            raise ConfigError(f"key 'seeds' must list seeds >= 0, got {min(seeds)}")
        return seeds


@dataclass(frozen=True)
class GradCheckSettings:
    seed: int = 0
    eps: float = 1e-5
    tolerance: float = 1e-4
    embed_dim: int = 8
    layers: int = 2
    heads: int = 2
    ff_dim: int = 16
    max_classes: int = 3

    def __post_init__(self):
        _check_at_least(self, "seed", 0)
        # the bounds grad_check itself enforces
        if not 0.0 < self.eps <= 1e-3:
            raise ConfigError(f"key 'eps' must be in (0, 1e-3], got {self.eps!r}")
