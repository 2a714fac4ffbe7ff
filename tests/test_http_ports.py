"""The HTTP clients against a chat/embedding stub on 127.0.0.1.

The stub is a ``ThreadingHTTPServer`` on a free port. Each test installs
a handler that maps a request body to (status, reply body); the server
records every body it received, and its ``Authorization`` header, in
arrival order.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import numpy as np
import pytest

from prooftidy import embeddings as embeddings_module
from prooftidy.agent import AgentConfig, Termination, run_session
from prooftidy.bank import Bank, load_bank, save_bank
from prooftidy.embeddings import HttpEmbedder
from prooftidy.errors import (
    REJECTED_STATUSES,
    LLMTransportError,
    ProviderContractViolation,
    ProviderRejected,
    RetryableProviderError,
)
from prooftidy.llm import HttpChatLLM
from prooftidy.retrieval import StrategyIndex

from test_agent import PROOF, _world
from test_bank import REGISTRY, make_strategy

DIMENSION = 3


class Stub:
    def __init__(self, port: int):
        self.url = f"http://127.0.0.1:{port}/v1"
        self.handler = lambda body: (500, {"error": "no handler"})
        self.received: list[dict] = []
        self.authorizations: list[str | None] = []
        self._lock = threading.Lock()

    def answer(self, body: dict,
               authorization: str | None) -> tuple[int, object]:
        with self._lock:
            self.received.append(body)
            self.authorizations.append(authorization)
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
            status, reply = stub.answer(json.loads(self.rfile.read(length)),
                                        self.headers.get("Authorization"))
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
    return HttpEmbedder(**{**config, **overrides})


def test_embedder_retries_a_server_error_then_succeeds(stub):
    replies = iter([(500, {"error": "busy"}), (500, {"error": "busy"})])
    stub.handler = lambda body: next(replies, (200, embeddings(body["input"])))
    vectors = embedder(stub, max_attempts=3).embed(["t1", "t2"])
    assert len(stub.received) == 3
    assert [v.tolist() for v in vectors] == [vector_for("t1"),
                                             vector_for("t2")]


@pytest.mark.parametrize("provider", ["mock", "http"])
def test_embed_returns_a_new_float64_row_per_text(provider, request):
    if provider == "mock":
        port = embeddings_module.MockEmbedder(dimension=DIMENSION)
    else:
        stub = request.getfixturevalue("stub")
        stub.handler = lambda body: (200, embeddings(body["input"]))
        port = embedder(stub, batch_size=2)
    texts = ["t1", "t2", "t3"]
    first = port.embed(texts)
    assert (first.dtype, first.shape) == (np.float64, (3, DIMENSION))
    empty = port.embed([])
    assert (empty.dtype, empty.shape) == (np.float64, (0, DIMENSION))
    # The caller owns the result: changing it changes no later result.
    expected = first.copy()
    first *= 2.0
    assert np.array_equal(port.embed(texts), expected)


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
    pytest.param({"data": [{"embedding": [1.0, 0.0, 0.0]},
                           {"embedding": [0.0, 0.0, 0.0]}]},
                 id="all_zero"),
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


def test_a_loaded_bank_posts_nothing_warm_and_every_text_after_an_edit(
        stub, tmp_path):
    stub.handler = lambda body: (200, embeddings(body["input"]))
    texts = [f"t{i}" for i in range(5)]
    strategies = [make_strategy(i, when_to_apply=t) for i, t in enumerate(texts)]
    save_bank(Bank(strategies={s.id: s for s in strategies}, registry=REGISTRY),
              tmp_path)
    bank = load_bank(tmp_path, REGISTRY)
    cold = StrategyIndex.build(bank, embedder(stub))
    assert [body["input"] for body in stub.received] == [texts]
    stub.received.clear()
    warm = StrategyIndex.build(bank, embedder(stub))
    assert stub.received == []
    assert np.array_equal(warm._matrix, cold._matrix)
    bank.strategies["s0002"] = dataclasses.replace(bank.strategies["s0002"],
                                                   when_to_apply="t9")
    edited = StrategyIndex.build(bank, embedder(stub))
    assert [body["input"] for body in stub.received] == [
        ["t0", "t1", "t9", "t3", "t4"]]
    assert np.array_equal(edited._matrix[2], np.array([9.0, 1.0, 0.0])
                          / np.linalg.norm([9.0, 1.0, 0.0]))
    assert np.array_equal(np.delete(edited._matrix, 2, axis=0),
                          np.delete(cold._matrix, 2, axis=0))


def chat(stub: Stub, **overrides) -> HttpChatLLM:
    return HttpChatLLM(**{"endpoint": stub.url, "model": "m", "timeout": 10.0,
                          **overrides})


def test_chat_returns_the_reply_text(stub):
    stub.handler = lambda body: (
        200, {"choices": [{"message": {"content": "```lean4\nrfl\n```"}}]})
    messages = [{"role": "user", "content": "shorten"}]
    assert chat(stub).complete(messages) == "```lean4\nrfl\n```"
    assert stub.received == [{"model": "m", "messages": messages,
                              "temperature": 1.0}]


TOKEN_ENV = "PROOFTIDY_TEST_TOKEN"


@pytest.mark.parametrize("token, auth_token_env, sent", [
    ("s3cret", TOKEN_ENV, "Bearer s3cret"),
    (None, TOKEN_ENV, None),
    ("", TOKEN_ENV, None),
    ("s3cret", None, None),
], ids=["set", "unset", "empty", "no_variable"])
@pytest.mark.parametrize("port", ["chat", "embedder"])
def test_a_set_token_is_sent_as_a_bearer_header(stub, monkeypatch, port,
                                                token, auth_token_env, sent):
    if token is None:
        monkeypatch.delenv(TOKEN_ENV, raising=False)
    else:
        monkeypatch.setenv(TOKEN_ENV, token)
    if port == "chat":
        stub.handler = lambda body: (
            200, {"choices": [{"message": {"content": "rfl"}}]})
        chat(stub, auth_token_env=auth_token_env).complete(
            [{"role": "user", "content": "shorten"}])
    else:
        stub.handler = lambda body: (200, embeddings(body["input"]))
        embedder(stub, auth_token_env=auth_token_env).embed(["t1"])
    assert stub.authorizations == [sent]


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


# --- statuses that no retry can fix -------------------------------------------

@pytest.mark.parametrize("status", sorted(REJECTED_STATUSES))
def test_a_rejected_status_gets_one_request_from_each_client(
        stub, monkeypatch, status):
    sleeps: list[float] = []
    monkeypatch.setattr(embeddings_module, "time",
                        SimpleNamespace(sleep=sleeps.append))
    stub.handler = lambda body: (status, {"error": "refused"})
    with pytest.raises(ProviderRejected) as err:
        embedder(stub, max_attempts=3, retry_backoff=1.0).embed(["t1"])
    assert err.value.status == status
    assert len(stub.received) == 1
    assert sleeps == []
    with pytest.raises(ProviderRejected) as err:
        chat(stub).complete([{"role": "user", "content": "shorten"}])
    assert err.value.status == status
    assert len(stub.received) == 2


def test_a_refused_chat_request_ends_the_session_after_one_request(stub):
    stub.handler = lambda body: (401, {"error": "bad token"})
    bank, index, compiler, _ = _world()
    result = run_session(PROOF, "", AgentConfig(budget=30), bank, index,
                         chat(stub), compiler)
    assert result.termination == Termination.ENVIRONMENT_ERROR
    assert result.final_proof == PROOF
    assert result.calls_used == 1
    assert len(stub.received) == 1
    assert result.trace.events[-2].detail["type"] == "ProviderRejected"


def test_an_all_zero_query_embedding_ends_the_session(stub):
    # The strategies embed as usual; every span of the proof embeds to
    # zero, a vector no query can be ranked by.
    texts = ["t0", "t1", "t2"]
    stub.handler = lambda body: (200, {"data": [
        {"embedding": vector_for(t) if t in texts else [0.0] * 3}
        for t in body["input"]]})
    strategies = [make_strategy(i, when_to_apply=t) for i, t in enumerate(texts)]
    bank = Bank(strategies={s.id: s for s in strategies}, registry=REGISTRY)
    index = StrategyIndex.build(bank, embedder(stub))
    _, _, compiler, _ = _world()
    result = run_session(PROOF, "", AgentConfig(budget=30), bank, index,
                         chat(stub), compiler)
    assert result.termination == Termination.ENVIRONMENT_ERROR
    assert result.final_proof == PROOF
    assert result.calls_used == 0
    assert result.trace.events[-2].detail == {
        "type": "ProviderContractViolation",
        "message": "provider returned an all-zero vector"}


def test_a_chat_server_error_is_still_retried_within_the_budget(stub):
    stub.handler = lambda body: (500, {"error": "busy"})
    bank, index, compiler, _ = _world()
    result = run_session(PROOF, "", AgentConfig(budget=3), bank, index,
                         chat(stub), compiler)
    assert result.termination == Termination.BUDGET_EXHAUSTED
    assert result.calls_used == 3
    assert len(stub.received) == 3
