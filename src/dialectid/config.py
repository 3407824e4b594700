"""Pipeline configuration: built-in defaults, overridable by a config file.

PipelineConfig nests the dataclasses that own the analysis and forest
settings, `acoustics` (AcousticSettings) and `forest` (ForestParams), so each
setting's default and validity rule is declared once.

A config file holds one `key = value` per line with `#` comments.  Keys are
the flat field names of the three dataclasses (ForestParams.seed is spelled
`forest_seed`; `max_depth = 0` means unlimited); values are coerced from the
type of the field's default.  Line order never matters, and a value its
dataclass rejects is reported with the line that set it.  `load_config` is
the one place command-line flags are laid over the file or the defaults.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace

from .acoustics import DEFAULT_SETTINGS, AcousticSettings
from .errors import DialectIdError, decode_utf8, key_value_lines
from .evaluation import DEFAULT_SPLIT_SEED, DEFAULT_TEST_FRACTION
from .forest import ForestParams
from .synth import CORPUS_TIER


class ConfigError(DialectIdError):
    """Bad key or value in a configuration file."""


@dataclass(frozen=True)
class PipelineConfig:
    tier_name: str = CORPUS_TIER
    alias_table: str = ""
    acoustics: AcousticSettings = DEFAULT_SETTINGS
    forest: ForestParams = ForestParams()
    test_fraction: float = DEFAULT_TEST_FRACTION
    split_seed: int = DEFAULT_SPLIT_SEED

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")


# nested sections; None is PipelineConfig's own fields
_SECTIONS = {None: PipelineConfig, "acoustics": AcousticSettings, "forest": ForestParams}


def _file_keys() -> dict[str, tuple[str | None, str, type]]:
    """File key -> (section, field, value type); max_depth's None default reads as int."""
    keys = {}
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            if f.name not in _SECTIONS:
                value_type = int if f.default is None else type(f.default)
                key = "forest_seed" if f.name == "seed" else f.name
                keys[key] = (section, f.name, value_type)
    return keys


_FILE_KEYS = _file_keys()


def _coerce(text: str, target_type: type):
    if target_type is bool:
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    return target_type(text)


def _build(cls, values: dict, set_on_line: dict[str, int]):
    """cls(**values), with a rejected value reported at the line that set it."""
    try:
        return cls(**values)
    except ValueError as exc:
        named = [w for w in re.findall(r"\w+", str(exc)) if w in set_on_line]
        where = f"line {set_on_line[named[0]]}: " if named else ""
        raise ConfigError(f"{where}{exc}") from exc


def parse_config(text: str) -> PipelineConfig:
    """Config-file text to a PipelineConfig; any bad key or value is a ConfigError."""
    values: dict[str | None, dict] = {section: {} for section in _SECTIONS}
    set_on_line: dict[str, int] = {}
    for lineno, key, value in key_value_lines(text, ConfigError, "key = value"):
        if key not in _FILE_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        section, name, value_type = _FILE_KEYS[key]
        try:
            value = _coerce(value, value_type)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
        if name == "max_depth" and value == 0:
            value = None
        values[section][name] = value
        set_on_line[name] = lineno
    return _build(PipelineConfig, dict(
        values[None],
        acoustics=_build(AcousticSettings, values["acoustics"], set_on_line),
        forest=_build(ForestParams, values["forest"], set_on_line)), set_on_line)


def load_config(path: str, **flags) -> PipelineConfig:
    """The config file at `path` (the defaults when `path` is empty), checked
    whole, then every flag that is not None laid over it: a ForestParams field
    name sets `forest`, any other name a PipelineConfig field."""
    cfg = PipelineConfig()
    if path:
        with open(path, "rb") as fh:
            cfg = parse_config(decode_utf8(fh.read(), ConfigError, f"config file {path}"))
    given = {name: value for name, value in flags.items() if value is not None}
    forest = {f.name: given.pop(f.name) for f in fields(ForestParams) if f.name in given}
    return replace(cfg, forest=replace(cfg.forest, **forest), **given)
