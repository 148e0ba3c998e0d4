#!/usr/bin/env python
"""Two peers behind firewalls holding a long conversation via WS-MsgBox.

The paper's motivating scenario: *neither* peer has an accessible network
endpoint (applets, NATed laptops).  Both create mailboxes at the public
intermediary, advertise the mailbox EPRs as their reply addresses, and a
multi-turn conversation flows entirely through outbound HTTP — each peer
only ever *originates* connections.

The conversation here is a tiny negotiation: peer A proposes a number,
peer B counters with half, until they agree below a threshold.  Every
turn is a one-way WS-Addressing message deposited into the other peer's
mailbox; ``RelatesTo`` chains the turns into one conversation, exactly
the "reliable and long running conversations through firewalls" the paper
targets.

Run:  python examples/firewalled_peers.py
"""

from repro.msgbox import MailboxSecurity, MailboxStore, MsgBoxClient, MsgBoxService
from repro.rt import HttpClient, HttpServer, SoapHttpApp
from repro.soap import RpcRequest, build_rpc_request, parse_rpc_request
from repro.transport import InprocNetwork
from repro.util.ids import IdGenerator
from repro.wsa import AddressingHeaders, EndpointReference

CONVERSATION_NS = "urn:example:negotiation"


class Peer:
    """A firewalled peer: a mailbox for inbox, outbound HTTP for outbox."""

    def __init__(self, name: str, net: InprocNetwork, post_office_url: str) -> None:
        self.name = name
        self.http = HttpClient(net)
        self.mailbox = MsgBoxClient(self.http, post_office_url)
        self.mailbox.create()
        self.ids = IdGenerator(name, seed=hash(name) % 2**31)
        self.transcript: list[str] = []

    @property
    def epr(self) -> EndpointReference:
        return self.mailbox.epr()

    def send_proposal(self, to: EndpointReference, value: int,
                      relates_to: str | None = None) -> str:
        envelope = build_rpc_request(
            RpcRequest(CONVERSATION_NS, "propose", [("value", str(value))])
        )
        message_id = self.ids.next()
        headers = AddressingHeaders(
            to=to.address,
            action=f"{CONVERSATION_NS}/propose",
            message_id=message_id,
            reply_to=self.epr,
            relates_to=[relates_to] if relates_to else [],
            reference_headers=[p.copy() for p in to.reference_properties],
        )
        headers.attach(envelope)
        self.http.post_envelope(to.address, envelope)
        self.transcript.append(f"{self.name} -> propose {value}")
        return message_id

    def receive_one(self, timeout: float = 5.0) -> tuple[int, str, EndpointReference]:
        """Poll the mailbox for the next turn; returns (value, msg id, sender)."""
        messages = self.mailbox.poll(expected=1, timeout=timeout)
        if not messages:
            raise TimeoutError(f"{self.name}: no message arrived")
        envelope = messages[0]
        call = parse_rpc_request(envelope)
        headers = AddressingHeaders.from_envelope(envelope)
        value = int(call.require_param("value"))
        self.transcript.append(f"{self.name} <- propose {value}")
        return value, headers.message_id or "", headers.reply_to

    def close(self) -> None:
        self.mailbox.destroy()
        self.http.close()


def main() -> None:
    net = InprocNetwork()

    # the only public machine: the post office
    msgbox = MsgBoxService(
        MailboxStore(),
        security=MailboxSecurity(b"post-office-secret"),
        base_url="http://post-office.example:8500/mailbox",
    )
    app = SoapHttpApp()
    app.mount("/mailbox", msgbox)
    server = HttpServer(
        net.listen("post-office.example:8500"), app.handle_request, workers=4
    ).start()
    print(f"[po]   post office at {server.url}")

    alice = Peer("alice", net, "http://post-office.example:8500/mailbox")
    bob = Peer("bob", net, "http://post-office.example:8500/mailbox")
    print(f"[alice] mailbox {alice.mailbox.mailbox_id[:12]}…")
    print(f"[bob]   mailbox {bob.mailbox.mailbox_id[:12]}…")

    # Alice opens the negotiation at 1000; each side halves until < 10.
    value = 1000
    last_id = alice.send_proposal(bob.epr, value)
    turn_owner, other = bob, alice
    turns = 1
    while True:
        value, last_id, sender_epr = turn_owner.receive_one()
        if value < 10:
            print(f"[deal] {turn_owner.name} accepts {value} after {turns} turns")
            break
        counter = value // 2
        last_id = turn_owner.send_proposal(sender_epr, counter, relates_to=last_id)
        turn_owner, other = other, turn_owner
        turns += 1

    print("\n-- transcript --")
    for line in alice.transcript + bob.transcript:
        print("  ", line)
    print(f"\n[po]   mailbox service stats: {msgbox.stats}")

    alice.close()
    bob.close()
    server.stop()
    print("done.")


if __name__ == "__main__":
    main()
