"""Chat backends: HTTP chat-completions and a deterministic script player.

Both backends satisfy one contract: complete(request, agent) returns a
ChatResponse or raises one of the errors below.  The orchestrator only
ever consumes the response text, so swapping backends with identical
texts yields identical workflow behavior.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import yaml

if TYPE_CHECKING:
    import requests


class LlmError(RuntimeError):
    pass


class Timeout(LlmError):
    pass


class TransportError(LlmError):
    pass


class AuthError(LlmError):
    pass


class ScriptExhausted(LlmError):
    pass


@dataclass(frozen=True)
class ChatRequest:
    system_prompt: str
    user_content: str
    schema_hint: str = ""


@dataclass(frozen=True)
class ChatResponse:
    text: str
    token_usage: dict[str, int] = field(default_factory=lambda: {"prompt": 0, "completion": 0})
    latency_ms: float = 0.0


class ScriptedBackend:
    """Replays an ordered list of (agent, text) responses.

    Entries with agent "*" match any caller; a mismatch between the next
    entry's agent and the requesting agent fails loudly, because it
    means the scenario no longer lines up with the workflow.
    """

    def __init__(self, entries: list[tuple[str, str]], name: str = "scripted"):
        self.entries = list(entries)
        self.name = name
        self.cursor = 0

    @property
    def remaining(self) -> int:
        return len(self.entries) - self.cursor

    def complete(self, req: ChatRequest, agent: str = "") -> ChatResponse:
        if self.cursor >= len(self.entries):
            raise ScriptExhausted(
                f"scenario {self.name!r} exhausted after {self.cursor} responses "
                f"(next request from {agent or 'unknown agent'!r})"
            )
        expected, text = self.entries[self.cursor]
        if expected != "*" and agent and expected != agent:
            raise LlmError(
                f"scenario {self.name!r} entry {self.cursor} is for {expected!r} "
                f"but {agent!r} asked"
            )
        self.cursor += 1
        # deterministic token estimate: ~4 chars per token
        usage = {
            "prompt": (len(req.system_prompt) + len(req.user_content)) // 4,
            "completion": len(text) // 4,
        }
        return ChatResponse(text=text, token_usage=usage, latency_ms=0.0)


def load_yaml(stream):
    """yaml.safe_load through libyaml when PyYAML was built with it.

    CSafeLoader parses in C but resolves and constructs with the same
    Python classes as SafeLoader, so both return equal objects.
    """
    return yaml.load(stream, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_scenario(path: str) -> ScriptedBackend:
    """Load a scripted scenario: {responses: [{agent, text, repeat?}, ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = load_yaml(fh)
        except yaml.YAMLError as exc:
            raise LlmError(f"{path}: scenario is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict) or "responses" not in doc:
        raise LlmError(f"{path}: scenario must be a mapping with a 'responses' list")
    entries: list[tuple[str, str]] = []
    for i, raw in enumerate(doc["responses"]):
        if not isinstance(raw, dict) or "agent" not in raw or "text" not in raw:
            raise LlmError(f"{path}: responses[{i}] needs 'agent' and 'text'")
        repeat = int(raw.get("repeat", 1))
        if repeat < 1:
            raise LlmError(f"{path}: responses[{i}]: repeat must be >= 1")
        for _ in range(repeat):
            entries.append((str(raw["agent"]), str(raw["text"])))
    return ScriptedBackend(entries, name=str(doc.get("name", path)))


class HttpBackend:
    """Chat-completions client with bounded retries.

    Retries transport errors and 429/5xx responses with exponential
    backoff (max_attempts total); auth failures and per-call timeouts
    are surfaced immediately.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        model_id: str = "",
        timeout_s: float = 120.0,
        max_attempts: int = 3,
        backoff_s: float = 1.0,
        session: requests.Session | None = None,
        sleep=time.sleep,
    ):
        self.endpoint = endpoint
        self.api_key = api_key
        self.model_id = model_id
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        if session is None:
            import requests  # only the HTTP backend needs it; keeps start-up light

            session = requests.Session()
        self.session = session
        self.sleep = sleep

    def _payload(self, req: ChatRequest) -> dict:
        user = req.user_content
        if req.schema_hint:
            user = f"{user}\n\nRespond with a single JSON document matching:\n{req.schema_hint}"
        return {
            "model": self.model_id,
            "messages": [
                {"role": "system", "content": req.system_prompt},
                {"role": "user", "content": user},
            ],
            "temperature": 0.0,
            "max_tokens": 4096,
        }

    def complete(self, req: ChatRequest, agent: str = "") -> ChatResponse:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = self._payload(req)
        backoff = self.backoff_s
        last: str = "no attempt made"
        started = time.monotonic()
        for attempt in range(1, self.max_attempts + 1):
            try:
                resp = self.session.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout_s
                )
            except requests.Timeout as exc:
                raise Timeout(f"chat request timed out after {self.timeout_s:g} s") from exc
            except requests.RequestException as exc:
                last = f"transport failure: {exc}"
                if attempt < self.max_attempts:
                    self.sleep(backoff)
                    backoff *= 2
                    continue
                raise TransportError(last) from exc
            if resp.status_code in (401, 403):
                raise AuthError(f"endpoint rejected credentials (HTTP {resp.status_code})")
            if resp.status_code == 429 or resp.status_code >= 500:
                last = f"HTTP {resp.status_code}"
                if attempt < self.max_attempts:
                    self.sleep(backoff)
                    backoff *= 2
                    continue
                raise TransportError(f"{last} after {self.max_attempts} attempts")
            if resp.status_code != 200:
                raise TransportError(f"HTTP {resp.status_code}: {resp.text[:500]}")
            latency_ms = (time.monotonic() - started) * 1000.0
            return self._parse(resp, latency_ms)
        raise TransportError(last)

    @staticmethod
    def _parse(resp, latency_ms: float) -> ChatResponse:
        try:
            doc = resp.json()
            text = doc["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed chat-completion response: {exc}") from exc
        usage = doc.get("usage", {}) or {}
        return ChatResponse(
            text=text,
            token_usage={
                "prompt": int(usage.get("prompt_tokens", 0) or 0),
                "completion": int(usage.get("completion_tokens", 0) or 0),
            },
            latency_ms=latency_ms,
        )
