"""AioHttpServer + AioHttpClient wire semantics over real loopback TCP.

Every test runs entirely on one event loop via ``asyncio.run`` — the
deployment shape the runtime exists for (no threads anywhere).
"""

import asyncio

from repro.aio import AioHttpClient, AioHttpServer
from repro.http import Headers, HttpRequest, HttpResponse
from repro.obs.metrics import MetricsRegistry
from tests.conftest import serving


def ok_handler(request, peer):
    return HttpResponse(status=200, body=b"echo:" + request.body)


def post(body=b"", target="/x"):
    return HttpRequest("POST", target, headers=Headers(), body=body)


def test_roundtrip_and_keep_alive_reuse():
    async def main():
        metrics = MetricsRegistry()
        async with serving(AioHttpServer(ok_handler, metrics=metrics)) as srv:
            client = AioHttpClient(metrics=metrics)
            first = await client.request(srv.url, post(b"one"))
            second = await client.request(srv.url, post(b"two"))
            assert first.body == b"echo:one"
            assert second.body == b"echo:two"
            # the second exchange reused the pooled keep-alive connection
            assert srv.connections_served == 1
            assert srv.requests_served == 2
            client.close()

    asyncio.run(main())


def test_pipeline_burst_in_order():
    async def main():
        async with serving(AioHttpServer(ok_handler)) as srv:
            client = AioHttpClient()
            batch = [post(b"%d" % i) for i in range(5)]
            results = await client.pipeline(srv.url, batch)
            assert [r.body for r in results] == [
                b"echo:%d" % i for i in range(5)
            ]
            assert srv.connections_served == 1  # one burst, one connection
            client.close()

    asyncio.run(main())


def test_awaitable_handler_is_awaited():
    async def slow(request, peer):
        await asyncio.sleep(0.01)
        return HttpResponse(status=200, body=b"later")

    def handler(request, peer):
        return slow(request, peer)  # sync handler returning a coroutine

    async def main():
        async with serving(AioHttpServer(handler)) as srv:
            client = AioHttpClient()
            response = await client.request(srv.url, post())
            assert response.body == b"later"
            client.close()

    asyncio.run(main())


def test_stale_pooled_connection_retried_once():
    async def main():
        async with serving(AioHttpServer(ok_handler, keep_alive_timeout=0.1)) as srv:
            client = AioHttpClient()
            assert (await client.request(srv.url, post(b"a"))).status == 200
            # the server expires the idle keep-alive connection; the
            # pooled conn is now stale and the retry must be transparent
            await asyncio.sleep(0.3)
            assert (await client.request(srv.url, post(b"b"))).status == 200
            assert srv.connections_served == 2
            client.close()

    asyncio.run(main())


def test_connection_close_honoured():
    async def main():
        async with serving(AioHttpServer(ok_handler)) as srv:
            client = AioHttpClient()
            request = post(b"bye")
            request.headers.set("Connection", "close")
            response = await client.request(srv.url, request)
            assert response.body == b"echo:bye"
            assert response.headers.get("Connection") == "close"
            # nothing was pooled: the next request opens a new connection
            assert (await client.request(srv.url, post(b"hi"))).status == 200
            assert srv.connections_served == 2
            client.close()

    asyncio.run(main())


def test_many_parked_connections_on_one_loop():
    """The C10k shape in miniature: hundreds of handlers parked as
    coroutines on one loop, no thread per connection anywhere."""
    release = None

    def handler(request, peer):
        async def wait():
            await release.wait()
            return HttpResponse(status=200, body=b"released")

        return wait()

    async def main():
        nonlocal release
        release = asyncio.Event()
        async with serving(AioHttpServer(handler)) as srv:
            clients = [AioHttpClient() for _ in range(200)]
            pending = [
                asyncio.ensure_future(c.request(srv.url, post()))
                for c in clients
            ]
            while srv.open_connections < 200:
                await asyncio.sleep(0.01)
            release.set()
            responses = await asyncio.gather(*pending)
            assert all(r.body == b"released" for r in responses)
            for c in clients:
                c.close()

    asyncio.run(main())


def test_a_body_larger_than_the_socket_buffers_arrives_whole():
    """The transport pauses the client's writing part-way through the body
    and resumes it as the server reads: nothing is lost and nothing sticks."""

    def length(request, peer):
        return HttpResponse(status=200, body=b"%d" % len(request.body))

    async def main():
        async with serving(AioHttpServer(length)) as srv:
            client = AioHttpClient()
            body = b"x" * (8 << 20)
            response = await asyncio.wait_for(client.request(srv.url, post(body)), 30)
            assert response.body == b"%d" % len(body)
            client.close()

    asyncio.run(main())
