"""Scalar draws decoded in bulk from a PCG64 stream, equal to numpy's.

The phrase renderer makes millions of scalar ``rng.random()`` and
``rng.integers(n)`` calls, and each numpy call costs microseconds of
argument handling. :class:`DrawStream` fetches the bit generator's raw
64-bit words in chunks and decodes them in Python exactly as
:class:`numpy.random.Generator` does:

* ``random()`` is ``(word >> 11) * 2**-53``;
* ``integers(n)`` is Lemire's bounded method on 32-bit halves: a word
  gives its low half first and keeps the high half for the next 32-bit
  draw, 64-bit draws leave that half alone, and ``n == 1`` draws nothing.

So a stream and ``Generator(bit_generator)`` return the same values call
for call. The stream reads ahead up to one chunk, so it leaves the bit
generator further on than a ``Generator`` would: use it only for a stream
that nothing reads afterwards. ``tests/test_corpus_draws.py`` pins the
decoding to the installed numpy.
"""

from __future__ import annotations

import numpy as np

#: Raw words fetched from the bit generator per refill.
CHUNK_WORDS = 4096

_LOW32 = 0xFFFFFFFF


class DrawStream:
    """``random()`` and ``integers(n)`` of ``Generator(bit_generator)``."""

    __slots__ = ("_bit_generator", "_words", "_high")

    def __init__(self, bit_generator: np.random.BitGenerator) -> None:
        self._bit_generator = bit_generator
        self._words = iter(())
        self._high: int | None = None  # buffered high half of a word

    def _word(self) -> int:
        word = next(self._words, None)
        if word is None:
            chunk = self._bit_generator.random_raw(CHUNK_WORDS)
            self._words = iter(chunk.tolist())
            word = next(self._words)
        return word

    def random(self) -> float:
        """A double in [0, 1), as ``Generator.random()``."""
        return (self._word() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """An int in [0, n), as ``Generator.integers(n)``; 1 <= n < 2**32."""
        if not 1 <= n <= _LOW32:
            raise ValueError(f"n must be in [1, 2**32), got {n}")
        if n == 1:
            return 0
        threshold = (_LOW32 + 1 - n) % n  # 2**32 mod n
        while True:
            half = self._high
            if half is None:
                word = self._word()
                half, self._high = word & _LOW32, word >> 32
            else:
                self._high = None
            scaled = half * n
            if scaled & _LOW32 >= threshold:
                return scaled >> 32
