"""Host-speed calibration kernel for the host-clock benchmark.

The benchmark box is a shared 2-core VM whose speed drifts by a third
between invocations of the *same* code.  Every repetition is therefore
bracketed by :func:`calib`, a fixed pure-stdlib kernel with the same
instruction mix as the program's hot paths (bytes formatting, SHA-256,
256-bit integer folding, dict updates, tuple/list allocation), and the
repetition's wall time is scaled by how slow the kernel ran around it.

This file must never change once baselines exist, and must import
nothing from ``repro``: a change to the program may not move the
yardstick it is measured with.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

#: Kernel iterations (about 50 ms on the reference host).
CALIB_ITERS = 60_000

#: Wall seconds one :func:`calib` call took on the reference host, set
#: once.  Normalised times read as "seconds on the reference host".
CALIB_REF_S = 0.050

_MODULUS = 1 << 256


def calib() -> float:
    """Run the fixed kernel once; return the wall seconds it took."""
    start = perf_counter()
    accumulator = 0
    table: dict[int, tuple[int, bytes]] = {}
    rows: list[tuple[int, int]] = []
    for i in range(CALIB_ITERS):
        body = b"i%d:%d;" % (len(str(i)), i)
        digest = hashlib.sha256(body).digest()
        accumulator = (accumulator + int.from_bytes(digest, "big")) % _MODULUS
        table[i & 1023] = (i, body)
        rows.append((i, accumulator & 0xFFFF))
        if len(rows) == 256:
            rows = []
    return perf_counter() - start


def normalise(wall_s: float, calib_before_s: float, calib_after_s: float) -> float:
    """Scale ``wall_s`` to reference-host seconds using the two
    calibration calls that bracket it."""
    return wall_s * CALIB_REF_S / ((calib_before_s + calib_after_s) / 2.0)
