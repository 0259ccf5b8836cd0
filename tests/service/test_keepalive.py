"""Keep-alive behaviour of `repro serve`: one client connection carrying
many requests, as HTTP/1.1 clients do by default, each reply written
to the socket once."""

import json
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.cache import ResultCache
from repro.service import _Handler, create_server

HIT_BODY = json.dumps({"benchmark": "rdwalk", "degree": 1})


@pytest.fixture
def served(tmp_path):
    server = create_server(host="127.0.0.1", port=0, jobs=1, cache=ResultCache(tmp_path / "cache"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = HTTPConnection("127.0.0.1", server.port, timeout=60)
    yield server, conn
    conn.close()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _request(conn, method, path, body=None):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response, response.read()


def test_cache_hits_over_one_connection_skip_the_delayed_ack_stall(served, monkeypatch):
    server, conn = served
    nodelay = []
    original_setup = _Handler.setup

    def recording_setup(handler):
        original_setup(handler)
        nodelay.append(handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    # The client connects on its first request, after this patch.
    monkeypatch.setattr(_Handler, "setup", recording_setup)
    response, miss = _request(conn, "POST", "/analyze", HIT_BODY)
    assert response.status == 200 and json.loads(miss)["status"] == "ok"
    start = time.perf_counter()
    hits = [_request(conn, "POST", "/analyze", HIT_BODY)[1] for _ in range(50)]
    elapsed = time.perf_counter() - start
    # One connection carried all 51 requests, with Nagle off on it.
    assert len(nodelay) == 1 and nodelay[0] != 0
    assert all(hit == miss for hit in hits)
    assert server.cache.hits >= 50
    # ~40 ms each with Nagle on (the client's delayed ACK); ~2 ms off.
    assert elapsed < 1.0, f"50 keep-alive cache hits took {elapsed:.2f}s"


def test_post_to_unknown_path_keeps_the_connection_in_sync(served):
    _, conn = served
    response, body = _request(conn, "POST", "/nope", HIT_BODY)
    assert response.status == 404
    assert "unknown path '/nope'" in json.loads(body)["error"]
    response, body = _request(conn, "GET", "/healthz")
    assert response.status == 200
    assert json.loads(body)["status"] == "ok"


@pytest.mark.parametrize("path", ["/analyze", "/lint"])
def test_get_on_post_route_is_405(served, path):
    _, conn = served
    response, body = _request(conn, "GET", path)
    assert response.status == 405
    assert response.getheader("Allow") == "POST"
    assert json.loads(body)["error"] == f"method not allowed on {path!r}; use POST"
    # The connection stays usable.
    response, _ = _request(conn, "GET", "/healthz")
    assert response.status == 200


@pytest.mark.parametrize(
    "path", ["/healthz", "/benchmarks", "/options/defaults", "/version", "/cache/stats"]
)
def test_post_on_get_route_is_405_and_consumes_the_body(served, path):
    _, conn = served
    response, body = _request(conn, "POST", path, HIT_BODY)
    assert response.status == 405
    assert response.getheader("Allow") == "GET"
    assert json.loads(body)["error"] == f"method not allowed on {path!r}; use GET"
    response, body = _request(conn, "GET", "/healthz")
    assert response.status == 200
    assert json.loads(body)["status"] == "ok"


def test_unusable_content_length_on_unknown_path_closes_the_connection(served):
    _, conn = served
    conn.putrequest("POST", "/nope")
    conn.putheader("Content-Length", "many")
    conn.endheaders()
    response = conn.getresponse()
    assert response.status == 404
    response.read()
    # The server hung up: the unread body cannot pose as a request.
    conn.sock.settimeout(5)
    assert conn.sock.recv(1) == b""


def test_unsupported_verb_keeps_stdlib_501(served):
    _, conn = served
    for verb in ("DELETE", "PUT"):
        response, body = _request(conn, verb, "/analyze")
        assert response.status == 501
        # The stdlib's reply closes the connection (the client reconnects
        # for the next verb); its body still arrives whole.
        assert response.will_close
        assert len(body) == int(response.getheader("Content-Length")) > 0
        assert b"Unsupported method" in body


def test_reply_reaches_the_socket_in_one_write_before_request_finished(served, monkeypatch):
    server, conn = served
    _request(conn, "POST", "/analyze", HIT_BODY)  # the miss stores the entry
    # Its reply can reach us before its handler calls request_finished().
    assert server.wait_drained(10)
    events = []
    original_write = socket.SocketIO.write
    original_finished = server.request_finished

    def recording_write(sock_io, data):
        events.append(("write", bytes(data)))
        return original_write(sock_io, data)

    def recording_finished():
        events.append(("finished", b""))
        original_finished()

    # The client sends with sock.sendall, so SocketIO.write is the server's.
    monkeypatch.setattr(socket.SocketIO, "write", recording_write)
    monkeypatch.setattr(server, "request_finished", recording_finished)
    response, body = _request(conn, "POST", "/analyze", HIT_BODY)
    assert response.status == 200
    deadline = time.monotonic() + 10
    while len(events) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert [kind for kind, _ in events] == ["write", "finished"]
    written = events[0][1]
    assert written.startswith(b"HTTP/1.1 200 OK\r\n")
    assert written.endswith(b"\r\n\r\n" + body)
    # Compact JSON, one document per reply.
    assert body == (json.dumps(json.loads(body)) + "\n").encode()


def test_every_reply_arrives_whole_and_the_connection_stays_usable(served):
    _, conn = served
    response, miss = _request(conn, "POST", "/analyze", HIT_BODY)
    assert response.status == 200
    exchanges = [
        ("POST", "/analyze", HIT_BODY, 200),
        ("POST", "/analyze", "{not json", 400),
        ("GET", "/nope", None, 404),
        ("GET", "/analyze", None, 405),
        ("POST", "/analyze", HIT_BODY, 200),
    ]
    for method, path, body, status in exchanges:
        response, reply = _request(conn, method, path, body)
        assert response.status == status, (method, path, reply)
        assert len(reply) == int(response.getheader("Content-Length"))
        assert not response.will_close
        payload = json.loads(reply)
        if status == 200:
            assert reply == miss
        else:
            assert "error" in payload


def test_draining_503_delivers_its_full_body(served):
    server, conn = served
    server.draining.set()
    response, body = _request(conn, "POST", "/analyze", HIT_BODY)
    assert response.status == 503
    assert response.will_close
    assert len(body) == int(response.getheader("Content-Length"))
    assert json.loads(body) == {"error": "service is draining; not accepting new work"}


def test_interim_100_continue_is_not_held_back(served):
    server, _ = served
    body = json.dumps({"benchmark": "rdwalk"}).encode()
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(
            b"POST /lint HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\nExpect: 100-continue\r\n\r\n" % len(body)
        )
        # The server is now reading the body; the 100 must already be out.
        assert sock.recv(1024) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        assert sock.recv(1024).startswith(b"HTTP/1.1 200 OK\r\n")
