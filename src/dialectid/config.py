"""Pipeline configuration: built-in defaults, overridable by a config file.

The file format is one `key = value` per line with `#` comments.  Keys are
the PipelineConfig field names; values are coerced from the field type.
Command-line flags override the file, which overrides the defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .acoustics import AcousticSettings
from .errors import DialectIdError
from .evaluation import DEFAULT_SPLIT_SEED, DEFAULT_TEST_FRACTION
from .synth import CORPUS_TIER


class ConfigError(DialectIdError):
    """Bad key or value in a configuration file."""


@dataclass
class PipelineConfig:
    # annotation handling
    tier_name: str = CORPUS_TIER
    alias_table: str = ""

    # acoustic analysis
    formant_rate: int = 10000
    preemphasis_hz: float = 50.0
    formant_frame_ms: float = 25.0
    formant_hop_ms: float = 10.0
    lpc_order: int = 12
    formant_min_hz: float = 90.0
    formant_max_hz: float = 4500.0
    max_bandwidth_hz: float = 400.0
    pitch_frame_ms: float = 40.0
    pitch_hop_ms: float = 10.0
    pitch_min_hz: float = 75.0
    pitch_max_hz: float = 500.0
    voicing_threshold: float = 0.45
    silence_rms_fraction: float = 0.01
    energy_frame_ms: float = 25.0
    energy_hop_ms: float = 10.0

    # forest defaults
    n_estimators: int = 400
    max_features: int = 12
    min_samples_split: int = 2
    max_depth: int = 0          # 0 means unlimited
    bootstrap: bool = True
    forest_seed: int = 0

    # evaluation
    test_fraction: float = DEFAULT_TEST_FRACTION
    split_seed: int = DEFAULT_SPLIT_SEED

    def acoustic_settings(self) -> AcousticSettings:
        return AcousticSettings(
            formant_rate=self.formant_rate,
            preemphasis_hz=self.preemphasis_hz,
            formant_frame_ms=self.formant_frame_ms,
            formant_hop_ms=self.formant_hop_ms,
            lpc_order=self.lpc_order,
            formant_min_hz=self.formant_min_hz,
            formant_max_hz=self.formant_max_hz,
            max_bandwidth_hz=self.max_bandwidth_hz,
            pitch_frame_ms=self.pitch_frame_ms,
            pitch_hop_ms=self.pitch_hop_ms,
            pitch_min_hz=self.pitch_min_hz,
            pitch_max_hz=self.pitch_max_hz,
            voicing_threshold=self.voicing_threshold,
            silence_rms_fraction=self.silence_rms_fraction,
            energy_frame_ms=self.energy_frame_ms,
            energy_hop_ms=self.energy_hop_ms,
        )


def _coerce(name: str, text: str, target_type: type):
    try:
        if target_type is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        return target_type(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from exc


# lowest accepted value of each forest field (max_depth 0 means unlimited)
_FOREST_MINIMUMS = {"n_estimators": 1, "max_features": 1, "min_samples_split": 2,
                    "max_depth": 0}


def parse_config(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    cfg = dataclasses.replace(base) if base else PipelineConfig()
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in fields:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        value = _coerce(key, value, type(getattr(cfg, key)))
        if key in _FOREST_MINIMUMS and value < _FOREST_MINIMUMS[key]:
            raise ConfigError(f"line {lineno}: {key} must be >= {_FOREST_MINIMUMS[key]}")
        setattr(cfg, key, value)
    return cfg


def load_config(path: str) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
