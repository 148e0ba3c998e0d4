"""The observability plane served from the event loop, verbatim.

The introspection endpoints are plain synchronous page handlers; the
acceptance bar is that they mount on a :class:`SoapHttpApp` hosted by
:class:`AioHttpServer` with no adaptation and answer while thousands of
long-poll coroutines could be parked on the same loop.
"""

import asyncio
import json

from repro.aio import AioHttpClient, AioHttpServer, AioLoopThread
from repro.http import Headers, HttpRequest
from repro.obs.http import Introspection
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.rt.service import SoapHttpApp
from tests.conftest import serving


def get(target):
    return HttpRequest("GET", target, headers=Headers())


def test_obs_endpoints_scrape_on_the_loop():
    async def main():
        metrics = MetricsRegistry()
        intro = Introspection(metrics=metrics, traces=TraceStore())
        intro.add_source("fake", lambda: {"handled": 7})
        intro.add_health_source("fake", lambda: {"ok": True})
        app = SoapHttpApp()
        intro.mount(app)
        async with serving(AioHttpServer(
            app.handle_request, metrics=metrics, name="obs"
        )) as srv:
            client = AioHttpClient(metrics=metrics)

            warmup = await client.request(srv.url + "/health", get("/health"))
            assert warmup.status == 200

            scrape = await client.request(srv.url + "/metrics", get("/metrics"))
            assert scrape.status == 200
            text = scrape.body.decode()
            # the loop server's own gauges show up in its own scrape
            assert 'aio_http_open_connections{server="obs"} 1' in text
            assert "aio_client_requests_total" in text

            health = json.loads(
                (await client.request(srv.url + "/health", get("/health"))).body
            )
            assert health["fake"] == {"ok": True}
            assert "slo" in health

            slo = await client.request(srv.url + "/slo", get("/slo"))
            assert slo.status == 200

            flight = await client.request(srv.url + "/flightrecorder", get("/flightrecorder"))
            assert flight.status == 200

            client.close()

    asyncio.run(main())


def test_scrape_from_a_thread_while_loop_serves():
    """Cross-thread shape: a threaded scraper polls a loop-hosted app
    through the embedding bridge, as a sidecar collector would."""
    metrics = MetricsRegistry()
    app = SoapHttpApp()
    intro = Introspection(metrics=metrics, traces=TraceStore())
    intro.mount(app)
    loop_thread = AioLoopThread().start()
    try:

        async def boot():
            srv = AioHttpServer(app.handle_request, metrics=metrics)
            await srv.start()
            return srv

        srv = loop_thread.run(boot())

        async def scrape(url):
            client = AioHttpClient(metrics=MetricsRegistry())
            try:
                return await client.request(url + "/metrics", get("/metrics"))
            finally:
                client.close()

        response = loop_thread.run(scrape(srv.url))
        assert response.status == 200
        assert b"aio_http_connections_served" in response.body
        loop_thread.run(srv.stop())
    finally:
        loop_thread.stop()
