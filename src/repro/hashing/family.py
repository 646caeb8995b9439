"""Carter-Wegman pairwise-independent hash functions.

A family ``H = {h : U -> [0, w)}`` is pairwise independent when for distinct
keys ``x != y`` and any buckets ``k, l``::

    Pr[h(x) = k and h(y) = l] = 1 / w**2

The classic construction ``h(x) = ((a*x + b) mod p) mod w`` with ``p`` prime,
``a`` drawn uniformly from ``[1, p)`` and ``b`` from ``[0, p)`` achieves this
(up to the small bias of the final ``mod w``).  We use the Mersenne prime
``p = 2**61 - 1``, which covers 64-bit label keys after one reduction, keeps
scalar arithmetic in native Python ints, and admits an overflow-free
vectorized implementation in uint64 numpy arrays via limb splitting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.hashing.labels import Label, label_to_int

MERSENNE_PRIME_61 = (1 << 61) - 1

_P = np.uint64(MERSENNE_PRIME_61)
_LIMB_BITS = np.uint64(31)
_LIMB_MASK = np.uint64((1 << 31) - 1)


@dataclass(frozen=True)
class PairwiseHash:
    """One hash ``h(x) = ((a*x + b) mod p) mod width`` with ``p = 2^61-1``.

    Instances are immutable and hashable so sketches can be compared and
    serialized; two sketches built from equal :class:`PairwiseHash` objects
    are bucket-for-bucket identical.
    """

    a: int
    b: int
    width: int

    def __post_init__(self) -> None:
        if not 1 <= self.a < MERSENNE_PRIME_61:
            raise ValueError(f"a must be in [1, p), got {self.a}")
        if not 0 <= self.b < MERSENNE_PRIME_61:
            raise ValueError(f"b must be in [0, p), got {self.b}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")

    def __call__(self, label: Label) -> int:
        """Return the bucket of ``label`` in ``[0, width)``."""
        return self.hash_int(label_to_int(label))

    def hash_int(self, key: int) -> int:
        """Bucket an already-converted integer key (scalar fast path)."""
        return ((self.a * (key % MERSENNE_PRIME_61) + self.b) % MERSENNE_PRIME_61) % self.width

    def hash_many(self, keys: "np.ndarray") -> "np.ndarray":
        """Vectorized bucketing of an array of non-negative integer keys.

        Equivalent to ``np.array([self.hash_int(k) for k in keys])``;
        a one-function :func:`hash_many_bulk`.
        """
        return hash_many_bulk((self,), keys)[0]


@lru_cache(maxsize=128)
def _bulk_coefficients(funcs: Tuple["PairwiseHash", ...]):
    """Stacked ``(d, 1)`` coefficient columns for :func:`hash_many_bulk`.

    Cached per function tuple (``PairwiseHash`` is frozen/hashable): a
    sketch hashes every batch through the same ensemble, so the setup
    cost of the list comprehensions and array constructors is paid once
    per sketch instead of once per batch.
    """
    d = len(funcs)
    a = np.array([f.a for f in funcs], dtype=np.uint64).reshape(d, 1)
    b = np.array([f.b for f in funcs], dtype=np.uint64).reshape(d, 1)
    widths = np.array([f.width for f in funcs],
                      dtype=np.uint64).reshape(d, 1)
    a_hi = a >> _LIMB_BITS
    a_lo = a & _LIMB_MASK
    mask = None
    if bool(np.all(widths & (widths - np.uint64(1)) == 0)):
        mask = widths - np.uint64(1)
    return a_hi, a_lo, b, widths, mask


_ONE = np.uint64(1)
_THIRTY = np.uint64(30)
_SIXTY_ONE = np.uint64(61)
_M30 = np.uint64((1 << 30) - 1)


def hash_many_bulk(funcs: Sequence["PairwiseHash"],
                   keys: "np.ndarray") -> "np.ndarray":
    """Bucket one key column through several hash functions at once.

    Returns an ``(len(funcs), len(keys))`` int64 array where row ``i``
    holds ``funcs[i].hash_int(k)`` for every key ``k``.  Stacking the
    ``(a, b, width)`` coefficients as ``(d, 1)`` columns and
    broadcasting against the ``(n,)`` keys runs the whole ensemble in
    one pass instead of ``d`` separate passes -- numpy dispatch
    overhead is paid once, which is most of the cost at sketch-sized
    batches.  The partial products accumulate in-place into three
    ``(d, n)`` scratch buffers (the naive chain allocates ~16), and
    all-power-of-two ensembles take a mask instead of the slow uint64
    ``%``.

    ``a*k mod p`` is computed over 31-bit limbs so every partial
    product fits in uint64, with *lazy* Mersenne reduction:
    intermediates are kept merely ``< 2^63`` (congruent mod p, not
    canonical), so the whole ``(a*k + b) mod p`` needs one
    canonicalizing pass at the end instead of one per partial product.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if not funcs:
        raise ValueError("hash_many_bulk needs at least one function")
    a_hi, a_lo, b, widths, mask = _bulk_coefficients(tuple(funcs))
    k = (keys & _P) + (keys >> _SIXTY_ONE)
    k_hi = k >> _LIMB_BITS
    k_lo = k & _LIMB_MASK
    # acc <- top = (a_hi*k_hi) * 2   (2^62 === 2 mod p, stays < 2^61)
    acc = a_hi * k_hi
    acc <<= _ONE
    # mid = a_hi*k_lo + a_lo*k_hi, folded by *2^31 === (>>30) + (&m30)<<31
    mid = a_hi * k_lo
    scratch = a_lo * k_hi
    mid += scratch
    np.right_shift(mid, _THIRTY, out=scratch)
    mid &= _M30
    mid <<= _LIMB_BITS
    mid += scratch
    acc += mid
    # bot = a_lo*k_lo < 2^62: one lazy fold brings it under 2^61 + 2
    np.multiply(a_lo, k_lo, out=mid)
    np.right_shift(mid, _SIXTY_ONE, out=scratch)
    mid &= _P
    mid += scratch
    acc += mid
    acc += b
    # canonicalize: acc < 2^63, two folds + one conditional subtract
    np.right_shift(acc, _SIXTY_ONE, out=scratch)
    acc &= _P
    acc += scratch
    np.subtract(acc, _P, out=acc, where=acc >= _P)
    if mask is not None:
        acc &= mask
        # Buckets are < width < 2^63, so the int64 reinterpretation is
        # value-preserving and skips an astype copy.
        return acc.view(np.int64)
    return (acc % widths).view(np.int64)


class HashFamily:
    """``d`` independent pairwise hash functions over a common key space.

    This is the object handed to a :class:`~repro.core.tcm.TCM`: one
    :class:`PairwiseHash` per constituent graph sketch.  Functions may have
    different widths (used by non-square matrices, paper Section 5.1.2).
    """

    def __init__(self, widths: Sequence[int], seed: Optional[int] = None):
        if not widths:
            raise ValueError("HashFamily needs at least one width")
        rng = random.Random(seed)
        self._functions = tuple(
            PairwiseHash(
                a=rng.randrange(1, MERSENNE_PRIME_61),
                b=rng.randrange(0, MERSENNE_PRIME_61),
                width=w,
            )
            for w in widths
        )

    @classmethod
    def uniform(cls, d: int, width: int, seed: Optional[int] = None) -> "HashFamily":
        """Family of ``d`` functions that all map into ``[0, width)``."""
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        return cls([width] * d, seed=seed)

    def __len__(self) -> int:
        return len(self._functions)

    def __iter__(self) -> Iterator[PairwiseHash]:
        return iter(self._functions)

    def __getitem__(self, i: int) -> PairwiseHash:
        return self._functions[i]
