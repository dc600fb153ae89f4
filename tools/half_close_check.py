#!/usr/bin/env python3
"""Checks that a client which half-closes still reads every reply.

Usage: tools/half_close_check.py server|gateway PORT [ROUNDS]

Each round opens a connection to `gmine server` (line protocol) or
`gmine gateway` (HTTP, no bearer token), sends two requests in one
write, calls shutdown(SHUT_WR) and reads until the peer closes. Every
request must be answered: `summary` and `ping` on the server, `/stats`
and `/api/v1/stores` on the gateway. Exits 1 unless every round
(default 50) got every reply.
"""

import socket
import sys

WIRES = {
    "server": b"summary\nping\n",
    "gateway": (b"GET /stats HTTP/1.1\r\nHost: ci\r\n\r\n"
                b"GET /api/v1/stores HTTP/1.1\r\nHost: ci\r\n\r\n"),
}


def answered(kind, reply):
    """Number of requests the reply bytes answer."""
    if kind == "server":
        lines = reply.decode(errors="replace").splitlines()
        # The greeting comes first; each request gets one OK line.
        if not lines or lines[0] != "OK gmine-server protocol=1":
            return 0
        return sum(1 for line in lines[1:] if line.startswith("OK "))
    return reply.count(b"HTTP/1.1 200 OK\r\n")


def exchange(port, wire):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(wire)
        s.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def main():
    if len(sys.argv) not in (3, 4) or sys.argv[1] not in WIRES:
        sys.exit(__doc__)
    kind, port = sys.argv[1], int(sys.argv[2])
    rounds = int(sys.argv[3]) if len(sys.argv) == 4 else 50
    complete = 0
    for _ in range(rounds):
        reply = exchange(port, WIRES[kind])
        if answered(kind, reply) == 2:
            complete += 1
        else:
            print("short reply: %r" % reply[:300])
    print("half-close %s: %d/%d rounds read every reply" %
          (kind, complete, rounds))
    sys.exit(0 if complete == rounds else 1)


if __name__ == "__main__":
    main()
