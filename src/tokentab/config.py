"""Flat key=value configuration files and their dataclass bindings.

One key per line, ``key = value``, ``#`` starts a comment. A command's
keys are the fields of the configuration dataclasses it builds, keyed by
its binding list (``PRETRAIN``, ``FINETUNE``, ``GRAD_CHECK``); each field's
dataclass holds its type, default and check. Command-line flags mirror the
keys one-to-one and override the file. The fully resolved mapping is
written into every output directory for provenance.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .gradcheck import GRAD_CHECK_MODEL
from .model import ModelConfig
from .prior import PriorConfig
from .training import FinetuneConfig


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


@dataclass(frozen=True)
class Binding:
    """How one configuration dataclass is keyed.

    Field ``name`` of ``defaults`` is the key ``prefix + name`` unless
    ``spelled`` names it otherwise, and the fields in ``unkeyed`` are not
    keys. ``defaults`` is the instance a command starts from.
    """

    defaults: object
    prefix: str = ""
    spelled: tuple[tuple[str, str], ...] = ()
    unkeyed: tuple[str, ...] = ()

    def keyed(self) -> list[tuple[str, dataclasses.Field]]:
        """(key, field) of every keyed field, in declaration order."""
        spelled = dict(self.spelled)
        return [(spelled.get(f.name, self.prefix + f.name), f)
                for f in dataclasses.fields(self.defaults)
                if f.name not in self.unkeyed]

    def build(self, values: dict):
        """``defaults`` with the keyed ``values`` given; checks on creation."""
        return dataclasses.replace(self.defaults, **{
            f.name: values[key] for key, f in self.keyed() if key in values})


def resolve(bindings, file_map: dict[str, str] | None,
            overrides: dict | None) -> tuple:
    """Defaults, then file values, then non-None flag overrides: one
    instance per binding, each built and checked in binding order."""
    field_types = {key: f.type for b in bindings for key, f in b.keyed()}
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
        return tuple(b.build(values) for b in bindings)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _check_at_least(settings, key: str, low: int) -> None:
    value = getattr(settings, key)
    if value < low:
        raise ConfigError(f"key {key!r} must be >= {low}, got {value}")


def as_kv(bindings, objects) -> dict[str, str]:
    """The key = value text of every keyed field of ``objects``, each the
    instance of its binding."""
    out = {}
    for binding, obj in zip(bindings, objects):
        for key, f in binding.keyed():
            value = getattr(obj, f.name)
            out[key] = repr(value) if isinstance(value, float) else str(value)
    return out


@dataclass(frozen=True)
class PretrainSettings:
    seed: int = 0
    episodes: int = 2000
    lr: float = 1e-3
    holdout: int = 20
    log_every: int = 50

    def __post_init__(self):
        for key in ("seed", "episodes", "holdout"):
            _check_at_least(self, key, 0)
        _check_at_least(self, "log_every", 1)
        if not self.lr > 0.0:   # resolve has refused a non-finite one
            raise ConfigError(f"key 'lr' must be > 0, got {self.lr!r}")


@dataclass(frozen=True)
class FinetuneSettings:
    seeds: str = "0,1,2,3,4"

    def __post_init__(self):
        self.seed_list()

    def seed_list(self) -> tuple[int, ...]:
        try:
            seeds = tuple(int(s) for s in self.seeds.split(",") if s.strip() != "")
        except ValueError:
            raise ConfigError(f"invalid value {self.seeds!r} for key 'seeds'") from None
        if not seeds:
            raise ConfigError("key 'seeds' must list at least one seed")
        if min(seeds) < 0:
            raise ConfigError(f"key 'seeds' must list seeds >= 0, got {min(seeds)}")
        for i, seed in enumerate(seeds):
            if seed in seeds[:i]:
                raise ConfigError(f"key 'seeds' lists seed {seed} more than once")
        return seeds


@dataclass(frozen=True)
class GradCheckSettings:
    seed: int = 0
    eps: float = 1e-5
    tolerance: float = 1e-4

    def __post_init__(self):
        _check_at_least(self, "seed", 0)
        if not self.tolerance > 0.0:   # no error passes a tolerance of 0
            raise ConfigError(f"key 'tolerance' must be > 0, got {self.tolerance!r}")
        # the bounds grad_check itself enforces
        if not 0.0 < self.eps <= 1e-3:
            raise ConfigError(f"key 'eps' must be in (0, 1e-3], got {self.eps!r}")


#: each command's settings, then the runtime configs it builds; the seed of
#: a prior or a fine-tune repetition comes from the command's own seed keys
PRETRAIN = (
    Binding(PretrainSettings()),
    Binding(ModelConfig()),
    Binding(PriorConfig(), prefix="prior_", unkeyed=("seed",), spelled=(
        ("min_classes", "prior_classes_min"), ("max_classes", "prior_classes_max"),
        ("min_samples", "prior_samples_min"), ("max_samples", "prior_samples_max"))),
)
FINETUNE = (Binding(FinetuneSettings()),
            Binding(FinetuneConfig(), unkeyed=("seed",)))
GRAD_CHECK = (Binding(GradCheckSettings()), Binding(GRAD_CHECK_MODEL))
