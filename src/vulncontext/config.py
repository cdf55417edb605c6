"""Run configuration: defaults, file loading, precedence, fingerprinting.

Defaults mirror the reference setup: level C granularity and two retrieved
knowledge entries here, the inference defaults in ``llm.LlmSettings``.
Precedence is flags over config file over defaults.  Outside input must name
a known setting and carry a value of its type.  Secrets never live in the
file; the API key is named by environment variable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from . import __version__
from .errors import ConfigError
from .knowledge import DEFAULT_ALPHA, DEFAULT_MAX_ENTRIES, DEFAULT_TOP_K
from .llm import (
    BoundedClient,
    ChatClient,
    HttpChatClient,
    LlmSettings,
    ScriptedChatClient,
    TranscribingClient,
    default_offline_rules,
)
from .structure import Level

__all__ = ["LlmSettings", "RunConfig", "load_config", "build_client"]

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    level: str = "C"
    alpha: float = DEFAULT_ALPHA
    k: int = DEFAULT_TOP_K
    max_entries: int = DEFAULT_MAX_ENTRIES
    seed: int = 0
    concurrency: int = 1
    transcript_path: str | None = None
    llm: LlmSettings = field(default_factory=LlmSettings)

    def validate(self) -> None:
        if self.level not in ("A", "B", "C"):
            raise ConfigError(f"level must be A, B, or C, got {self.level!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.max_entries < 1:
            raise ConfigError("max_entries must be >= 1")
        if self.concurrency < 1:
            raise ConfigError("concurrency must be >= 1")
        if self.llm.kind not in ("scripted", "http"):
            raise ConfigError(f"llm.kind must be scripted or http, got {self.llm.kind!r}")
        if self.llm.kind == "http" and not self.llm.endpoint:
            raise ConfigError("llm.kind=http requires llm.endpoint")
        if self.llm.timeout <= 0:
            raise ConfigError(f"llm.timeout must be > 0, got {self.llm.timeout}")
        if self.llm.max_retries < 1:
            raise ConfigError(f"llm.max_retries must be >= 1, got {self.llm.max_retries}")
        if self.llm.backoff_s < 0:
            raise ConfigError(f"llm.backoff_s must be >= 0, got {self.llm.backoff_s}")
        if self.llm.max_in_flight < 1:
            raise ConfigError(f"llm.max_in_flight must be >= 1, got {self.llm.max_in_flight}")

    @property
    def level_enum(self) -> Level:
        return Level(self.level)

    def as_dict(self) -> dict:
        data = asdict(self)
        data["schema_version"] = SCHEMA_VERSION
        return data

    def fingerprint(self) -> str:
        canonical = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def meta(self) -> dict:
        return {
            "tool_version": __version__,
            "config_fingerprint": self.fingerprint(),
            "config": self.as_dict(),
        }


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Build the effective configuration: defaults, then file, then overrides."""
    config = RunConfig()
    if path is not None:
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        version = payload.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema version {version}")
        _apply(config, payload, source=str(path))
    if overrides:
        _apply(config, {k: v for k, v in overrides.items() if v is not None}, source="flags")
    config.validate()
    return config


def _apply(config: RunConfig, payload: dict, source: str) -> None:
    for key, value in payload.items():
        if key == "llm":
            if not isinstance(value, dict):
                raise ConfigError(f"{source}: llm must be an object")
            for sub_key, sub_value in value.items():
                _set(config.llm, sub_key, sub_value, source, f"llm.{sub_key}")
        else:
            _set(config, key, value, source, key)


def _set(target, key: str, value, source: str, name: str) -> None:
    """Set a dataclass field from outside input; its default gives the type."""
    default = next((f.default for f in fields(target) if f.name == key), MISSING)
    if default is MISSING:
        raise ConfigError(f"{source}: unknown setting {name!r}")
    if default is None:
        fits = value is None or isinstance(value, str)
    elif isinstance(default, float):
        fits = isinstance(value, (int, float)) and not isinstance(value, bool)
        if fits:
            try:
                value = float(value)  # so that 1 and 1.0 fingerprint alike
            except OverflowError:  # an integer past the largest float
                fits = False
    else:
        fits = type(value) is type(default)
    if not fits:
        raise ConfigError(f"{source}: setting {name!r} has the wrong type: {value!r}")
    setattr(target, key, value)


def _load_script_rules(path: str) -> tuple[list[tuple[str, object]], str | None]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read script file {path}: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("rules", []), list):
        raise ConfigError(f"script file {path} must be an object whose rules are a list")
    try:
        rules = [(r["match"], r["response"]) for r in payload.get("rules", [])]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"script file {path}: every rule needs match and response") from exc
    return rules, payload.get("default")


def build_client(config: RunConfig) -> ChatClient:
    """Construct the chat backend described by the configuration."""
    settings = config.llm
    if settings.kind == "scripted":
        if settings.script_path:
            rules, default = _load_script_rules(settings.script_path)
        else:
            rules, default = default_offline_rules(), None
        client: ChatClient = ScriptedChatClient(
            rules=rules, default=default, model_id=settings.model
        )
    else:
        client = HttpChatClient(settings)
    client = BoundedClient(client, max_in_flight=settings.max_in_flight)
    if config.transcript_path:
        client = TranscribingClient(client, config.transcript_path, settings)
    return client
