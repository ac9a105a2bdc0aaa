"""Plain-text model configuration files.

One ``key = value`` pair per line; ``#`` starts a comment. Keys:

    alpha beta gamma            exploitability weights (must sum to 1)
    lambda_c lambda_i lambda_a  CIA impact weights in [0, 1]
    kappa                       scale factor (> 0)
    delta                       score granularity (> 0)
    tau1 tau2 tau3              severity thresholds (ascending)
    phi.N phi.A phi.L phi.P     attack-vector encodings
    psi.L psi.H                 attack-complexity encodings
    omega.N omega.L omega.H     privileges-required encodings
    eta.N eta.L eta.H           impact-level values (fixed 0 / 0.22 / 0.56)

Unknown keys are rejected; omitted keys keep their defaults. ``save_config``
writes values at full precision so a save/load round trip is exact.
"""

from __future__ import annotations

import os
from pathlib import Path

from .encoding import AttributeMaps
from .model import ModelConfig, ModelWeights, SeverityThresholds
from .vector import AttackComplexity, AttackVector, ImpactLevel, PrivilegesRequired


class ConfigError(ValueError):
    """The configuration file is malformed or violates a model invariant."""


_MAP_FIELDS = {
    "phi": AttackVector,
    "psi": AttackComplexity,
    "omega": PrivilegesRequired,
    "eta": ImpactLevel,
}
_WEIGHT_KEYS = ("alpha", "beta", "gamma", "lambda_c", "lambda_i", "lambda_a", "kappa", "delta")
_THRESHOLD_KEYS = ("tau1", "tau2", "tau3")


def config_to_dict(config: ModelConfig) -> dict[str, float]:
    """Flatten a config to the file's key set (also echoed into provenance)."""
    out: dict[str, float] = {}
    for key in _WEIGHT_KEYS:
        out[key] = getattr(config.weights, key)
    for key in _THRESHOLD_KEYS:
        out[key] = getattr(config.thresholds, key)
    for map_name, enum in _MAP_FIELDS.items():
        mapping = getattr(config.maps, map_name)
        for member in enum:
            out[f"{map_name}.{member.value}"] = mapping[member]
    return out


def config_from_dict(values: dict[str, float]) -> ModelConfig:
    defaults = config_to_dict(ModelConfig())
    unknown = sorted(set(values) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")
    merged = {**defaults, **values}
    try:
        maps = AttributeMaps(
            **{
                map_name: {member: merged[f"{map_name}.{member.value}"] for member in enum}
                for map_name, enum in _MAP_FIELDS.items()
            }
        )
        weights = ModelWeights(**{key: merged[key] for key in _WEIGHT_KEYS})
        thresholds = SeverityThresholds(**{key: merged[key] for key in _THRESHOLD_KEYS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ModelConfig(maps=maps, weights=weights, thresholds=thresholds)


def load_config(path) -> ModelConfig:
    """Parse a key = value configuration file."""
    values: dict[str, float] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8: {exc}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key}")
        try:
            values[key] = float(value)
        except ValueError:
            raise ConfigError(f"line {line_no}: {value!r} is not a number") from None
    return config_from_dict(values)


def write_text_atomic(path, text: str) -> Path:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory and ``os.replace``: a failure midway leaves ``path`` as it was
    and removes the temporary file, so no partial file is ever left."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def save_config(config: ModelConfig, path) -> Path:
    """Write a config in the same format ``load_config`` reads, atomically."""
    lines = ["# model constants; see cverisk.config for the key schema"]
    for key, value in config_to_dict(config).items():
        lines.append(f"{key} = {value!r}")
    return write_text_atomic(path, "\n".join(lines) + "\n")
