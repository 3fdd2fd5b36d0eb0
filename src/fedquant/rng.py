"""Deterministic counter-based random streams.

Every consumer of randomness derives its own stream from a root seed and an
integer path (purpose tag, round, client, ...). Streams with the same
(root_seed, path) replay bit-identical draws, so simulations are reproducible
regardless of execution order or thread count. Draws are generated by hashing
a per-stream key plus a running counter (splitmix64 finalizer), i.e. there is
no shared mutable generator state anywhere.
"""

from __future__ import annotations

import enum
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_PATH_SALT = 0xA3EC647659359ACD


class Purpose(enum.IntEnum):
    """Path tags that keep independent uses of randomness independent."""

    INIT = 1
    CALIBRATION = 2
    CLIENT_SAMPLING = 3
    BATCH = 4
    NOISE = 5
    BIT_CHOICE = 6
    DATA = 7
    PARTITION = 8
    EVAL = 9


def _mix64(x: int) -> int:
    # splitmix64 output function, pure Python ints mod 2**64
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _fold(key: int, path: tuple[int, ...]) -> int:
    # extend a stream key by path entries; the root key folds in the whole path
    for p in path:
        key = _mix64(key ^ _mix64((p & _MASK64) ^ _PATH_SALT))
    return key


def _derive_key(root_seed: int, path: tuple[int, ...]) -> int:
    return _fold(_mix64(root_seed & _MASK64), path)


# Draws of at most this many values hash in Python ints. One numpy pass costs
# about 4.3 us at any n <= 64; the Python loop 0.5 us plus 0.36 us per value,
# and the two cross between 10 and 11 values (timings in the README).
_SCALAR_DRAWS = 10
_U11, _U27, _U30, _U31 = (np.uint64(s) for s in (11, 27, 30, 31))
_UGOLDEN, _UMIX1, _UMIX2 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    # splitmix64 output function on uint64 lanes, in place
    t = np.empty_like(x)
    x ^= np.right_shift(x, _U30, out=t)
    x *= _UMIX1
    x ^= np.right_shift(x, _U27, out=t)
    x *= _UMIX2
    x ^= np.right_shift(x, _U31, out=t)
    return x


class RngStream:
    """Counter-based stream identified by (root_seed, path).

    Drawing advances an internal counter, so a single stream instance is
    stateful, but re-deriving the stream always restarts the sequence.
    Instances are cheap; derive one per (round, client, purpose) and never
    share them across threads.
    """

    __slots__ = ("root_seed", "path", "_key", "_counter")

    def __init__(self, root_seed: int, path: tuple[int, ...] | list[int] = (),
                 _key: int | None = None):
        # ``child`` passes the key it folded from its parent's as ``_key``
        self.root_seed = int(root_seed)
        self.path = tuple(map(int, path))
        self._key = _derive_key(self.root_seed, self.path) if _key is None else _key
        self._counter = 0

    def child(self, *path: int) -> "RngStream":
        """Derive an independent sub-stream by extending the path."""
        tail = tuple(map(int, path))
        return RngStream(self.root_seed, self.path + tail, _fold(self._key, tail))

    def _raw(self, n: int) -> np.ndarray:
        first = self._counter + 1
        self._counter += n
        if n <= _SCALAR_DRAWS:
            key, out = self._key, []
            for i in range(first, first + n):
                # _mix64(key + i * _GOLDEN), inlined
                x = (key + i * _GOLDEN) & _MASK64
                x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
                x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
                out.append(x ^ (x >> 31))
            return np.array(out, dtype=np.uint64)
        state = np.arange(first, first + n, dtype=np.uint64)
        state *= _UGOLDEN
        state += np.uint64(self._key)
        return _mix64_array(state)

    def uniform(self, size: int | tuple[int, ...] = 1) -> np.ndarray:
        """I.i.d. uniforms on [0, 1) as float64, in the buffer of the draws."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        raw = self._raw(int(math.prod(shape)))
        raw >>= _U11
        out = raw.view(np.float64)
        out[...] = raw
        out *= 2.0 ** -53
        return out.reshape(shape)

    def _uniform_open(self, n: int) -> np.ndarray:
        # uniforms on (0, 1], safe to pass through log()
        raw = self._raw(n)
        raw >>= _U11
        out = raw.astype(np.float64)
        out += 1.0
        out *= 2.0 ** -53
        return out

    def normal(self, size: int | tuple[int, ...] = 1) -> np.ndarray:
        """I.i.d. standard normals via Box-Muller (no rejection, fixed draw count)."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = int(math.prod(shape))
        half = (n + 1) // 2
        u1 = self._uniform_open(half)
        u2 = self.uniform(half)
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        z = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])[:n]
        return z.reshape(shape)

    def integers(self, upper: int, size: int = 1) -> np.ndarray:
        """Uniform integers in [0, upper). Modulo bias is ~upper/2^64, ignored."""
        if upper <= 0:
            raise ValueError("upper must be positive")
        return (self._raw(size) % np.uint64(upper)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n)."""
        return np.argsort(self.uniform(n), kind="stable")

    def gamma(self, alpha: float, size: int = 1) -> np.ndarray:
        """Gamma(alpha, 1) samples (Marsaglia-Tsang, boosted for alpha < 1)."""
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        if alpha < 1.0:
            boosted = self.gamma(alpha + 1.0, size)
            u = self._uniform_open(size)
            return boosted * u ** (1.0 / alpha)
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(size, dtype=np.float64)
        filled = 0
        while filled < size:
            todo = size - filled
            x = self.normal(todo)
            u = self._uniform_open(todo)
            v = (1.0 + c * x) ** 3
            ok = (v > 0) & (np.log(u) < 0.5 * x * x + d - d * v
                            + d * np.log(np.where(v > 0, v, 1.0)))
            accepted = (d * v)[ok]
            take = min(accepted.size, todo)
            out[filled:filled + take] = accepted[:take]
            filled += take
        return out

    def dirichlet(self, alpha: float, dim: int) -> np.ndarray:
        """One draw from a symmetric Dirichlet with concentration alpha."""
        g = self.gamma(alpha, dim)
        total = g.sum()
        if total <= 0.0:
            # all-zero draw is possible only for tiny alpha underflow
            g = np.full(dim, 1.0 / dim)
            total = 1.0
        return g / total

