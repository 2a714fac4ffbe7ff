"""Frozen-LLM port: an HTTP chat endpoint and a scripted offline mock.

``post_json`` is the one HTTP request path of both HTTP ports, this chat
client and ``embeddings.HttpEmbedder``: the bearer header, the POST, the
refused-status rule and the JSON decode.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Protocol

from .errors import (
    REJECTED_STATUSES,
    LLMTransportError,
    ProviderRejected,
    ScriptExhausted,
)

Message = dict[str, str]  # {"role": ..., "content": ...}


class ChatLLM(Protocol):
    def complete(self, messages: list[Message]) -> str: ...


def post_json(endpoint: str, body: dict, auth_token_env: str | None,
              timeout: float, what: str):
    """POST ``body`` as JSON, with a bearer token from the environment
    variable ``auth_token_env`` if it is set, and return the decoded reply.
    A status in ``REJECTED_STATUSES`` raises ProviderRejected, "<what>
    request refused"; any other failure propagates, for the caller to map
    or retry."""
    import requests

    headers = {"Content-Type": "application/json"}
    token = os.environ.get(auth_token_env, "") if auth_token_env else ""
    if token:
        headers["Authorization"] = f"Bearer {token}"
    response = requests.post(endpoint, json=body, headers=headers,
                             timeout=timeout)
    if response.status_code in REJECTED_STATUSES:
        raise ProviderRejected(f"{what} request refused",
                               status=response.status_code)
    response.raise_for_status()
    return response.json()


@dataclass
class HttpChatLLM:
    """Minimal chat-completions client.

    POSTs ``{"model", "messages", "temperature"}`` and reads
    ``choices[0].message.content``. A status in ``REJECTED_STATUSES``
    raises ProviderRejected, which no retry can fix. Other transport
    failures and a reply whose content is not text surface as
    LLMTransportError; the agent loop owns retry/budget policy.
    """

    endpoint: str
    model: str
    temperature: float = 1.0
    auth_token_env: str | None = None
    timeout: float = 120.0

    def complete(self, messages: list[Message]) -> str:
        body = {"model": self.model, "messages": messages,
                "temperature": self.temperature}
        try:
            reply = post_json(self.endpoint, body, self.auth_token_env,
                              self.timeout, "chat")
            content = reply["choices"][0]["message"]["content"]
        except ProviderRejected:
            raise
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

