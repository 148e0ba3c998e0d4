"""The scanner's memo of root start tags is safe to share.

``scan_envelope`` keeps the ``(name, scope)`` of each root start tag it
has read, keyed by the tag's exact bytes, so a sender that repeats its
``<soapenv:Envelope xmlns:…>`` pays for its declarations once.  What that
must not cost: a scope one message changes under the next, a memo that
grows without bound, a bad tag accepted once it has been seen, or a
race between threads.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import FastPathUnsupported
from repro.soap.lazy import LazyEnvelope
from repro.wsa import WSA_NS
from repro.xmlmini import QName, Element, scan
from repro.xmlmini.scan import ROOT_MAX_BYTES, ROOTS_MAX, scan_envelope

SOAP = "http://schemas.xmlsoap.org/soap/envelope/"


def envelope(root_attrs: str = "", body: str = "<m:ping>hi</m:ping>") -> bytes:
    return (
        f'<s:Envelope xmlns:s="{SOAP}" xmlns:m="urn:m" xmlns:wsa="{WSA_NS}"{root_attrs}>'
        f"<s:Header><wsa:To>urn:to</wsa:To></s:Header>"
        f"<s:Body>{body}</s:Body></s:Envelope>"
    ).encode()


@pytest.fixture(autouse=True)
def empty_memo():
    scan._ROOTS.clear()
    yield
    scan._ROOTS.clear()


def test_a_repeated_root_is_read_once_and_shares_its_scope():
    first, second = scan_envelope(envelope()), scan_envelope(envelope())
    assert second.scope is first.scope
    assert second.root_name == QName(SOAP, "Envelope")
    assert len(scan._ROOTS) == 1


def test_the_shared_scope_is_unchanged_by_a_body_parse_and_a_splice():
    data = envelope(' xmlns="urn:default"', body="<m:ping a='1'><x>hi</x></m:ping>")
    shared = scan_envelope(data).scope
    before = dict(shared)

    lazy = LazyEnvelope.from_bytes(data)
    assert lazy.body.name == QName("urn:m", "ping")  # parse_fragment over the scope
    assert lazy.body.children[0].name == QName("urn:default", "x")
    lazy.headers.append(Element(QName("urn:m", "extra"), text="x"))
    spliced = lazy.to_bytes()
    assert b' xmlns=""' in spliced  # the splice resets the default namespace
    LazyEnvelope.from_bytes(spliced).body  # the spliced form, scanned and parsed again

    assert scan_envelope(data).scope is shared
    assert shared == before


def test_distinct_roots_never_grow_the_memo_past_its_bound():
    for i in range(ROOTS_MAX + 1):
        scanned = scan_envelope(envelope(f' xmlns:p{i}="urn:p{i}"'))
        assert scanned.scope[f"p{i}"] == f"urn:p{i}"
        assert len(scan._ROOTS) <= ROOTS_MAX
    assert len(scan._ROOTS) == 1  # it started over at the bound


def test_a_long_root_tag_is_read_every_time_and_never_kept():
    data = envelope(f' xmlns:long="urn:{"x" * ROOT_MAX_BYTES}"')
    for _ in range(2):
        assert scan_envelope(data).scope["long"].startswith("urn:x")
    assert not scan._ROOTS


@pytest.mark.parametrize("attrs", [' bad:a="1"', ' a="1" a="2"', ' xmlns:e="&amp;"'])
def test_a_refused_root_is_refused_every_time(attrs):
    for _ in range(3):
        with pytest.raises(FastPathUnsupported):
            scan_envelope(envelope(attrs))
    assert not scan._ROOTS


def test_threads_scanning_distinct_roots_raise_nothing():
    errors: list[BaseException] = []
    wrong: list[str] = []

    def worker(k: int) -> None:
        try:
            for i in range(3 * ROOTS_MAX):
                prefix = f"t{k}n{i % (ROOTS_MAX // 2 + 7)}"
                scanned = scan_envelope(envelope(f' xmlns:{prefix}="urn:{prefix}"'))
                if scanned.scope.get(prefix) != f"urn:{prefix}":
                    wrong.append(prefix)
        except BaseException as exc:  # noqa: BLE001 - any failure fails the test
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and not wrong
    assert len(scan._ROOTS) <= ROOTS_MAX
