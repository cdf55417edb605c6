"""Run configuration: defaults, file loading, precedence, fingerprinting.

Defaults mirror the reference inference setup: level C granularity, two
retrieved knowledge entries, temperature 0.7, top-p 1.0, zero penalties, and
a 300 second timeout.  Precedence is flags over config file over defaults.
Secrets never live in the file; the API key is named by environment variable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import __version__
from .errors import ConfigError
from .llm import (
    BoundedClient,
    ChatClient,
    ChatRequest,
    ChatResponse,
    HttpChatClient,
    RetryPolicy,
    ScriptedChatClient,
    TranscribingClient,
    default_offline_rules,
)
from .structure import Level

__all__ = ["LlmSettings", "RunConfig", "load_config", "build_client"]

SCHEMA_VERSION = 1


@dataclass
class LlmSettings:
    kind: str = "scripted"  # scripted | http
    model: str = "offline-script"
    endpoint: str = ""
    api_key_env: str = "VULNCONTEXT_API_KEY"
    temperature: float = 0.7
    top_p: float = 1.0
    frequency_penalty: float = 0.0
    presence_penalty: float = 0.0
    timeout: float = 300.0
    max_retries: int = 3
    backoff_s: float = 1.0
    max_in_flight: int = 4
    script_path: str | None = None


@dataclass
class RunConfig:
    level: str = "C"
    alpha: float = 0.5
    k: int = 2
    max_entries: int = 2
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
                if not hasattr(config.llm, sub_key):
                    raise ConfigError(f"{source}: unknown llm setting {sub_key!r}")
                setattr(config.llm, sub_key, sub_value)
        elif hasattr(config, key):
            setattr(config, key, value)
        else:
            raise ConfigError(f"{source}: unknown setting {key!r}")


def _load_script_rules(path: str) -> tuple[list[tuple[str, object]], str | None]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read script file {path}: {exc}") from exc
    rules = [(r["match"], r["response"]) for r in payload.get("rules", [])]
    return rules, payload.get("default")


class _ParamsClient(ChatClient):
    """Applies the configured inference parameters to every request."""

    def __init__(self, inner: ChatClient, settings: LlmSettings):
        self.inner = inner
        self.settings = settings

    def complete(self, req: ChatRequest) -> ChatResponse:
        s = self.settings
        return self.inner.complete(
            replace(
                req,
                temperature=s.temperature,
                top_p=s.top_p,
                frequency_penalty=s.frequency_penalty,
                presence_penalty=s.presence_penalty,
                timeout=s.timeout,
            )
        )


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
        client = HttpChatClient(
            endpoint=settings.endpoint,
            model=settings.model,
            api_key_env=settings.api_key_env,
            retry=RetryPolicy(attempts=settings.max_retries, backoff_s=settings.backoff_s),
        )
    client = BoundedClient(client, max_in_flight=settings.max_in_flight)
    if config.transcript_path:
        client = TranscribingClient(client, config.transcript_path)
    return _ParamsClient(client, settings)
