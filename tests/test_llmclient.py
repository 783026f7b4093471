"""Tests for the chat-completion backends: scripted playback and HTTP."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
import requests

from amsizer.llm import (
    AuthError,
    ChatRequest,
    HttpBackend,
    LlmError,
    ScriptedBackend,
    ScriptExhausted,
    Timeout,
    TransportError,
    load_scenario,
)


def _req(text="hello", schema_hint=""):
    return ChatRequest(system_prompt="system", user_content=text, schema_hint=schema_hint)


class TestScriptedBackend:
    def test_plays_responses_in_order(self):
        backend = ScriptedBackend([("a", "one"), ("a", "two"), ("b", "three")])
        assert backend.complete(_req(), agent="a").text == "one"
        assert backend.complete(_req(), agent="a").text == "two"
        assert backend.complete(_req(), agent="b").text == "three"

    def test_exhaustion_raises(self):
        backend = ScriptedBackend([("a", "only")])
        backend.complete(_req(), agent="a")
        with pytest.raises(ScriptExhausted):
            backend.complete(_req(), agent="a")

    def test_agent_mismatch_raises_without_consuming(self):
        backend = ScriptedBackend([("expected", "text")])
        with pytest.raises(LlmError, match="expected"):
            backend.complete(_req(), agent="other")
        # The entry was not consumed by the failed call.
        assert backend.complete(_req(), agent="expected").text == "text"

    def test_wildcard_matches_any_agent(self):
        backend = ScriptedBackend([("*", "anything")])
        assert backend.complete(_req(), agent="whoever").text == "anything"

    def test_deterministic_usage_and_latency(self):
        backend = ScriptedBackend([("a", "x" * 40)])
        resp = backend.complete(_req("y" * 80), agent="a")
        assert resp.latency_ms == 0.0
        # ~4 chars/token over system + user prompt, and over the reply
        assert resp.token_usage == {"prompt": (len("system") + 80) // 4, "completion": 10}

    def test_remaining_counts_down(self):
        backend = ScriptedBackend([("a", "1"), ("a", "2")])
        assert backend.remaining == 2
        backend.complete(_req(), agent="a")
        assert backend.remaining == 1


class TestLoadScenario:
    def test_loads_and_expands_repeat(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(
            "name: demo\n"
            "responses:\n"
            "  - agent: a\n"
            "    text: first\n"
            "  - agent: b\n"
            "    text: again\n"
            "    repeat: 3\n"
        )
        backend = load_scenario(path)
        assert backend.name == "demo"
        assert backend.remaining == 4
        assert backend.complete(_req(), agent="a").text == "first"
        for _ in range(3):
            assert backend.complete(_req(), agent="b").text == "again"

    def test_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("responses:\n  - agent: a\n")
        with pytest.raises(LlmError, match="text"):
            load_scenario(path)

    def test_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(LlmError):
            load_scenario(path)


class _StubHandler(BaseHTTPRequestHandler):
    """Serves queued (status, body) responses and records request payloads."""

    script = []
    seen = []

    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        type(self).seen.append(
            {"payload": json.loads(body), "auth": self.headers.get("Authorization")}
        )
        status, text = type(self).script.pop(0)
        data = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def _ok_body(text="fine"):
    return json.dumps(
        {
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": 7, "completion_tokens": 3},
        }
    )


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    _StubHandler.script = []
    _StubHandler.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    thread.join()


class TestHttpBackend:
    def test_success_parses_text_usage_latency(self, stub_server):
        _StubHandler.script = [(200, _ok_body("result text"))]
        backend = HttpBackend(endpoint=stub_server, api_key="k", model_id="m")
        resp = backend.complete(_req("question"))
        assert resp.text == "result text"
        assert resp.token_usage == {"prompt": 7, "completion": 3}
        assert resp.latency_ms >= 0.0
        payload = _StubHandler.seen[0]["payload"]
        assert payload["model"] == "m"
        assert payload["temperature"] == 0.0
        assert payload["max_tokens"] == 4096
        assert payload["messages"][0] == {"role": "system", "content": "system"}
        assert payload["messages"][1]["content"] == "question"
        assert _StubHandler.seen[0]["auth"] == "Bearer k"

    def test_schema_hint_appended_to_user_message(self, stub_server):
        _StubHandler.script = [(200, _ok_body())]
        backend = HttpBackend(endpoint=stub_server, api_key="k")
        backend.complete(_req("question", schema_hint='{"a": "int"}'))
        content = _StubHandler.seen[0]["payload"]["messages"][1]["content"]
        assert content.startswith("question")
        assert '{"a": "int"}' in content

    def test_429_then_200_retries_once(self, stub_server):
        _StubHandler.script = [(429, "slow down"), (200, _ok_body("after retry"))]
        sleeps = []
        backend = HttpBackend(endpoint=stub_server, api_key="k", sleep=sleeps.append)
        resp = backend.complete(_req())
        assert resp.text == "after retry"
        assert len(_StubHandler.seen) == 2
        assert sleeps == [1.0]

    def test_500_retries_with_growing_backoff_then_fails(self, stub_server):
        _StubHandler.script = [(500, "a"), (502, "b"), (503, "c")]
        sleeps = []
        backend = HttpBackend(endpoint=stub_server, api_key="k", sleep=sleeps.append)
        with pytest.raises(TransportError):
            backend.complete(_req())
        assert len(_StubHandler.seen) == 3
        assert sleeps == [1.0, 2.0]

    def test_401_fails_immediately_without_retry(self, stub_server):
        _StubHandler.script = [(401, "no")]
        backend = HttpBackend(endpoint=stub_server, api_key="bad")
        with pytest.raises(AuthError):
            backend.complete(_req())
        assert len(_StubHandler.seen) == 1

    def test_malformed_body_raises_transport_error(self, stub_server):
        _StubHandler.script = [(200, '{"unexpected": true}')]
        backend = HttpBackend(endpoint=stub_server, api_key="k")
        with pytest.raises(TransportError):
            backend.complete(_req())

    def test_timeout_raises_immediately(self):
        class _TimeoutSession:
            def post(self, *a, **k):
                raise requests.Timeout("too slow")

        backend = HttpBackend(
            endpoint="http://example.invalid", api_key="k", session=_TimeoutSession()
        )
        with pytest.raises(Timeout):
            backend.complete(_req())

    def test_connection_error_retried_then_transport_error(self):
        calls = []

        class _FailSession:
            def post(self, *a, **k):
                calls.append(1)
                raise requests.ConnectionError("refused")

        backend = HttpBackend(
            endpoint="http://example.invalid",
            api_key="k",
            session=_FailSession(),
            sleep=lambda s: None,
        )
        with pytest.raises(TransportError):
            backend.complete(_req())
        assert len(calls) == 3
