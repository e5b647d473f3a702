"""Deterministic hierarchical random streams.

Every stochastic choice in the package (parameter init, client sampling,
synthetic data, perturbations) draws from its own stream keyed by
(seed, purpose tags), so streams never interfere and replays are bitwise
identical across platforms and thread counts.
"""

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _tag_int(tag) -> int:
    # a numpy integer reprs as e.g. 'np.int64(5)' under numpy 2, so it would key
    # a different stream than the same Python int
    if isinstance(tag, np.integer):
        tag = int(tag)
    digest = hashlib.sha256(repr(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream(seed: int, *tags) -> np.random.Generator:
    """Return a Generator keyed by (seed, *tags).

    Tags may be strings or ints (a numpy integer keys the same stream as the
    equal Python int); they are hashed into the seed material so e.g.
    stream(s, "participants", t) is independent of stream(s, "init").
    """
    entropy = [int(seed) & _MASK64] + [_tag_int(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))
