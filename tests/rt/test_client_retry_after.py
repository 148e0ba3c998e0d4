"""A 503 that names a ``Retry-After`` is the caller's answer: the client
returns it as it came and never re-sends the request; so is a 503
without one."""

import threading

from repro.http import Headers, HttpRequest, HttpResponse
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer


class _Overloaded:
    """Answers 503 (+ Retry-After, if given) for the first ``reject`` requests."""

    def __init__(self, reject: int, retry_after="0.05"):
        self.reject = reject
        self.retry_after = retry_after
        self.requests = 0
        self.lock = threading.Lock()

    def handler(self, request: HttpRequest, peer=None) -> HttpResponse:
        with self.lock:
            self.requests += 1
            n = self.requests
        if n <= self.reject:
            headers = Headers()
            if self.retry_after is not None:
                headers.set("Retry-After", self.retry_after)
            return HttpResponse(status=503, headers=headers, body=b"busy")
        return HttpResponse(status=202)


def test_default_client_returns_503_untouched(inproc):
    service = _Overloaded(reject=1)
    server = HttpServer(inproc.listen("busy:80"), service.handler, workers=2).start()
    client = HttpClient(inproc)
    try:
        resp = client.request("http://busy:80/msg", HttpRequest("POST", "/", body=b"x"))
        assert resp.status == 503
        assert resp.headers.get("Retry-After") == "0.05"
        assert service.requests == 1
    finally:
        client.close()
        server.stop()


def test_503_without_retry_after_is_not_retried(inproc):
    service = _Overloaded(reject=5, retry_after=None)
    server = HttpServer(inproc.listen("busy:80"), service.handler, workers=2).start()
    client = HttpClient(inproc)
    try:
        resp = client.request("http://busy:80/msg", HttpRequest("POST", "/", body=b"x"))
        assert resp.status == 503
        assert resp.headers.get("Retry-After") is None
        assert service.requests == 1  # no header, no license to resend
    finally:
        client.close()
        server.stop()
