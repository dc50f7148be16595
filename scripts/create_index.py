#!/usr/bin/env python3
"""Issue one CREATE_INDEX frame to a running siasserver.

    scripts/create_index.py HOST:PORT TABLE INDEX COLUMN

CI uses it to create an index on a table that already holds rows (siasload
only creates its index before loading). A frame is u32 LE length | u8 tag |
payload, the length counting tag and payload; CREATE_INDEX is tag 16 with
three length-prefixed strings; tag 0 in the reply is OK, anything else an
error code with a message.
"""
import socket
import struct
import sys

addr, table, index, column = sys.argv[1:5]
host, port = addr.rsplit(":", 1)
payload = b"".join(struct.pack("<I", len(s)) + s for s in (a.encode() for a in (table, index, column)))
with socket.create_connection((host, int(port)), timeout=30) as s:
    s.sendall(struct.pack("<IB", 1 + len(payload), 16) + payload)
    f = s.makefile("rb")
    (n,) = struct.unpack("<I", f.read(4))
    body = f.read(n)
if body[0] != 0:
    sys.exit(f"CREATE_INDEX {table}.{index}({column}): code {body[0]}: {body[1:]!r}")
print(f"created index {index} on {table}({column})")
