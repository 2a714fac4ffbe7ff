"""The HTTP clients against a chat/embedding stub on 127.0.0.1.

The stub is a ``ThreadingHTTPServer`` on a free port. Each test installs
a handler that maps a request body to (status, reply body); the server
records every body it received, in arrival order.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from prooftidy.embeddings import HttpEmbedder, HttpEmbedderConfig
from prooftidy.errors import (
    LLMTransportError,
    ProviderContractViolation,
    RetryableProviderError,
)
from prooftidy.llm import HttpChatLLM, HttpLLMConfig

DIMENSION = 3


class Stub:
    def __init__(self, port: int):
        self.url = f"http://127.0.0.1:{port}/v1"
        self.handler = lambda body: (500, {"error": "no handler"})
        self.received: list[dict] = []
        self._lock = threading.Lock()

    def answer(self, body: dict) -> tuple[int, object]:
        with self._lock:
            self.received.append(body)
        return self.handler(body)


@pytest.fixture
def stub(monkeypatch):
    # The stub is local: no proxy from the environment may sit between.
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "http_proxy",
                 "https_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            status, reply = stub.answer(json.loads(self.rfile.read(length)))
            data = json.dumps(reply).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    stub = Stub(server.server_address[1])
    thread = threading.Thread(target=server.serve_forever, args=(0.01,),
                              daemon=True)
    thread.start()
    yield stub
    server.shutdown()
    server.server_close()
    thread.join()


def vector_for(text: str) -> list[float]:
    """``t7`` -> [7, 1, 0]: the reply names the text it answers."""
    return [float(text[1:]), 1.0, 0.0]


def embeddings(texts) -> dict:
    return {"data": [{"embedding": vector_for(t)} for t in texts]}


def embedder(stub: Stub, **overrides) -> HttpEmbedder:
    config = dict(endpoint=stub.url, model="m", dimension=DIMENSION,
                  retry_backoff=0.0, timeout=10.0)
    return HttpEmbedder(HttpEmbedderConfig(**{**config, **overrides}))


def test_embedder_retries_a_server_error_then_succeeds(stub):
    replies = iter([(500, {"error": "busy"}), (500, {"error": "busy"})])
    stub.handler = lambda body: next(replies, (200, embeddings(body["input"])))
    vectors = embedder(stub, max_attempts=3).embed(["t1", "t2"])
    assert len(stub.received) == 3
    assert [v.tolist() for v in vectors] == [vector_for("t1"),
                                             vector_for("t2")]


def test_embedder_gives_up_after_its_attempts(stub):
    stub.handler = lambda body: (500, {"error": "down"})
    with pytest.raises(RetryableProviderError) as err:
        embedder(stub, max_attempts=2).embed(["t1"])
    assert err.value.attempts == 2
    assert len(stub.received) == 2


@pytest.mark.parametrize("reply", [
    pytest.param({"data": [{"embedding": [1.0, 0.0, 0.0]}]},
                 id="one_vector_for_two_texts"),
    pytest.param({"data": [{"embedding": [1.0, 0.0]}] * 2},
                 id="wrong_dimension"),
])
def test_embedder_contract_violation_is_not_retried(stub, reply):
    stub.handler = lambda body: (200, reply)
    with pytest.raises(ProviderContractViolation):
        embedder(stub, max_attempts=3).embed(["t1", "t2"])
    assert len(stub.received) == 1


def test_embedder_keeps_input_order_when_later_batches_answer_first(stub):
    # Four batches of two, all in flight at once. Batch i answers only
    # after batch i + 1 has answered, so replies arrive in reverse order.
    texts = [f"t{i}" for i in range(8)]
    answered = [threading.Event() for _ in range(4)]
    order: list[int] = []

    def handler(body):
        batch = int(body["input"][0][1:]) // 2
        if batch < 3 and not answered[batch + 1].wait(timeout=10):
            return 500, {"error": "batches did not overlap"}
        order.append(batch)
        answered[batch].set()
        return 200, embeddings(body["input"])

    stub.handler = handler
    vectors = embedder(stub, batch_size=2, max_in_flight=4,
                       max_attempts=1).embed(texts)
    assert order == [3, 2, 1, 0]
    assert np.array_equal(np.stack(vectors),
                          np.array([vector_for(t) for t in texts]))


def chat(stub: Stub) -> HttpChatLLM:
    return HttpChatLLM(HttpLLMConfig(endpoint=stub.url, model="m",
                                     timeout=10.0))


def test_chat_returns_the_reply_text(stub):
    stub.handler = lambda body: (
        200, {"choices": [{"message": {"content": "```lean4\nrfl\n```"}}]})
    messages = [{"role": "user", "content": "shorten"}]
    assert chat(stub).complete(messages) == "```lean4\nrfl\n```"
    assert stub.received == [{"model": "m", "messages": messages,
                              "temperature": 1.0}]


@pytest.mark.parametrize("status, reply", [
    pytest.param(502, {"error": "bad gateway"}, id="http_error"),
    pytest.param(200, {"choices": [{"message": {"content": None}}]},
                 id="null_content"),
    pytest.param(200, {"choices": []}, id="no_choices"),
])
def test_chat_maps_a_bad_reply_to_a_transport_error(stub, status, reply):
    stub.handler = lambda body: (status, reply)
    with pytest.raises(LLMTransportError):
        chat(stub).complete([{"role": "user", "content": "shorten"}])
