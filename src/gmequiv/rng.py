"""Deterministic random streams.

Every stochastic routine in the package draws from a counter-based Philox
generator whose 128-bit key is derived by hashing the user seed together
with a stream label and the parameters that define the draw. Identical
(seed, label, parameters) always produce bit-identical output, on any
platform and in any call order, because each draw owns its own stream.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream(seed: int, *labels) -> np.random.Generator:
    """Generator for the stream identified by (seed, labels)."""
    material = "|".join([str(int(seed)), *(str(x) for x in labels)]).encode()
    key = int.from_bytes(hashlib.sha256(material).digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))
