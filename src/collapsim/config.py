"""Experiment configuration: plain-text nested key-value sections.

Grammar (one construct per line, '#' starts a comment):

    key = value          top-level entry
    [section]            opens a (possibly dotted) section
    key = value          entry inside the open section

Values parse as int, float, bool (true/false), or comma-separated lists
thereof; anything else stays a string.  Top-level values are read from
their text: ``output`` is the file name as written, less its suffix.
Each experiment declares its ``[params]`` in a table of :class:`Param`
entries; ``read_params`` rejects unknown keys, so the config file is the
whole truth of a run.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path

from .errors import ConfigError

DEFAULT_SEED = 20_260_101
OUTPUT_BYTES = 255 - len(".json") - 12
"""The longest ``output`` name, in UTF-8 bytes."""


def _parse_scalar(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _parse_value(text: str):
    if "," in text:
        return [_parse_scalar(part) for part in text.split(",")]
    return _parse_scalar(text)


REQUIRED = object()  # the default of a parameter every config must set
MANY = 0  # the length of a parameter that takes one or more values


def _in_interval(value, interval: str) -> bool:
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low < value if interval[0] == "(" else low <= value
    below = value < high if interval[-1] == ")" else value <= high
    return above and below


@dataclass(frozen=True)
class Param:
    """One declared parameter: its type (int, float, bool or str), its
    default (``REQUIRED`` if it has none), an interval such as
    ``"(0, inf)"`` its values must lie in, and how many values it takes
    (``None`` for one, n for exactly n, ``MANY`` for one or more)."""

    kind: type
    default: object = REQUIRED
    bound: str | None = None
    length: int | None = None

    def read(self, name: str, raw):
        """``raw`` cast to the declared type and bound-checked; a
        ConfigError names the key."""
        if self.length is None:
            return self._cast(name, raw)
        values = raw if isinstance(raw, list) else [raw]
        if self.length not in (MANY, len(values)):
            raise ConfigError(f"{name} takes {self.length} values, got {len(values)}")
        return [self._cast(name, value) for value in values]

    def _cast(self, name: str, value):
        kind = self.kind
        if kind in (bool, str) or isinstance(value, (bool, list, str)):
            ok = type(value) is kind  # a bool is not an int, nor a str a float
        elif kind is int:
            ok = isinstance(value, int) or value.is_integer()
        else:  # finite; the comparison is exact for ints of any size
            ok = abs(value) <= sys.float_info.max
        if not ok:
            raise ConfigError(f"{name} = {value!r} is not of type {kind.__name__}")
        value = kind(value)
        if self.bound and not _in_interval(value, self.bound):
            raise ConfigError(f"{name} = {value!r} lies outside {self.bound}")
        return value


@dataclass
class ExperimentConfig:
    """Parsed experiment description."""

    experiment: str
    seed: int
    trajectories: int | None  # None: the experiment's default
    output: str
    fmt: str
    params: dict = field(default_factory=dict)
    source_text: str = ""
    defaults_applied: list[str] = field(default_factory=list)

    def config_hash(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()[:16]


_TOP_KEYS = ("experiment", "seed", "trajectories", "output", "format")


def parse_config_text(text: str) -> ExperimentConfig:
    top: dict = {}
    sections: dict[str, dict] = {}
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        target = top if current is None else current
        if key in target:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        target[key] = value.strip() if current is None else _parse_value(value)

    unknown_top = sorted(set(top) - set(_TOP_KEYS))
    if unknown_top:
        raise ConfigError(f"unknown top-level keys: {unknown_top}")
    if "experiment" not in top:
        raise ConfigError("missing required key 'experiment'")
    experiment = top["experiment"]
    from .experiments import TABLES  # which imports this module

    if experiment not in TABLES:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {tuple(TABLES)}"
        )
    for module in TABLES[experiment][3]:  # its engines, loaded here and not in the run
        import_module(f".{module}", __package__)
    unknown_sections = sorted(set(sections) - {"params"})
    if unknown_sections:
        raise ConfigError(f"unknown sections: {unknown_sections}")

    defaults = []
    if "seed" not in top:
        defaults.append(f"seed defaulted to {DEFAULT_SEED}")
    seed = Param(int).read("seed", _parse_value(top.get("seed", str(DEFAULT_SEED))))
    trajectories = top.get("trajectories")
    if trajectories is not None:
        trajectories = Param(int, bound="[1, inf)").read("trajectories", _parse_value(trajectories))
    fmt = top.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    output = top.get("output", experiment)
    if output in ("", ".", "..") or any(c in output for c in ",/\0"):
        raise ConfigError(f"output = {output!r} is not a file name")
    # the longest name a run makes, its temporary "<output>.json" + 8
    # characters + ".tmp", must fit a file name's 255 bytes
    if len(output.encode("utf-8", "surrogatepass")) > OUTPUT_BYTES:
        raise ConfigError(f"output = {output[:16]!r}... is longer than {OUTPUT_BYTES} bytes")
    return ExperimentConfig(
        experiment=experiment,
        seed=seed,
        trajectories=trajectories,
        output=output,
        fmt=fmt,
        params=sections.get("params", {}),
        source_text=text,
        defaults_applied=defaults,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def read_params(cfg: ExperimentConfig, table: dict[str, Param]) -> dict:
    """``cfg.params`` read against an experiment's table: unknown and
    missing keys rejected, each value cast and bound-checked, and each
    absent optional key set to its default."""
    unknown = sorted(set(cfg.params) - set(table))
    if unknown:
        raise ConfigError(f"{cfg.experiment!r} got unknown params: {unknown}")
    missing = [k for k in table if table[k].default is REQUIRED and k not in cfg.params]
    if missing:
        raise ConfigError(f"{cfg.experiment!r} is missing params: {missing}")
    return {
        key: par.read(key, cfg.params[key]) if key in cfg.params else par.default
        for key, par in table.items()
    }
