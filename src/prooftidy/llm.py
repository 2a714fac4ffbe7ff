"""Frozen-LLM port: an HTTP chat endpoint and a scripted offline mock."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Protocol

from .errors import LLMTransportError, ScriptExhausted

Message = dict[str, str]  # {"role": ..., "content": ...}


class ChatLLM(Protocol):
    def complete(self, messages: list[Message]) -> str: ...


@dataclass
class HttpLLMConfig:
    endpoint: str
    model: str
    temperature: float = 1.0
    auth_token_env: str | None = None
    timeout: float = 120.0
    extra_params: dict = field(default_factory=dict)


class HttpChatLLM:
    """Minimal chat-completions client.

    POSTs ``{"model", "messages", "temperature", **extra_params}`` and reads
    ``choices[0].message.content``. Transport failures and a reply whose
    content is not text surface as LLMTransportError; the agent loop owns
    retry/budget policy.
    """

    def __init__(self, config: HttpLLMConfig):
        self.config = config

    def complete(self, messages: list[Message]) -> str:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.config.auth_token_env:
            token = os.environ.get(self.config.auth_token_env, "")
            if token:
                headers["Authorization"] = f"Bearer {token}"
        body = {
            "model": self.config.model,
            "messages": messages,
            "temperature": self.config.temperature,
            **self.config.extra_params,
        }
        try:
            response = requests.post(self.config.endpoint, json=body,
                                     headers=headers,
                                     timeout=self.config.timeout)
            response.raise_for_status()
            content = response.json()["choices"][0]["message"]["content"]
        except Exception as exc:
            raise LLMTransportError(f"chat request failed: {exc}") from exc
        # A refusal or a tool call comes back with null content.
        if not isinstance(content, str):
            raise LLMTransportError(
                f"chat reply content is {type(content).__name__}, not text")
        return content


class ScriptedLLM:
    """Offline mock: ordered responses.

    A response entry may be a plain string or ``{"error": "transport"}`` to
    simulate a transport failure (consumed like a normal entry).
    """

    def __init__(self, responses: list | None = None):
        self.responses = list(responses or [])
        self.calls: list[list[Message]] = []
        self._cursor = 0

    def complete(self, messages: list[Message]) -> str:
        self.calls.append(messages)
        if self._cursor >= len(self.responses):
            raise ScriptExhausted(
                f"no scripted LLM response left (call {len(self.calls)})"
            )
        entry = self.responses[self._cursor]
        self._cursor += 1
        if isinstance(entry, dict) and entry.get("error"):
            raise LLMTransportError(f"scripted {entry['error']} failure")
        return entry

