"""Per-chunk key deduplication for the batched ingest paths.

An ensemble hashes each chunk's key columns once per sketch side, and
streams repeat hot endpoints constantly, so hashing only the distinct
keys and gathering back per sketch saves most of the duplicate work.
The scatter itself needs no kernel layer: every bulk mutation is one
``np.add.at``/``np.subtract.at``/``np.minimum.at``/``np.maximum.at``
over flat cell indices (see
:meth:`repro.core.graph_sketch.GraphSketch._scatter`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["dedup_keys"]

#: Batches smaller than this skip the per-chunk key dedup (the sort
#: costs more than the duplicate hashing it saves).
_DEDUP_MIN_BATCH = 2048

_DEDUP_PROBE = 512


def dedup_keys(keys: np.ndarray, *,
               min_batch: int = _DEDUP_MIN_BATCH
               ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Distinct keys plus the inverse gather, or ``(keys, None)`` when
    deduplication would cost more than it saves.

    Streams repeat hot endpoints constantly, and an ensemble hashes the
    same key column once per sketch: hashing only the distinct keys and
    gathering per sketch amortizes the sort across ``d`` hash passes.

    The full ``np.unique`` sort is itself the dominant cost on
    low-repetition batches, so a strided ~512-key probe is sorted first
    and the batch is passed through untouched when the probe shows
    almost no repetition.  The probe sees heavy-hitter repetition (the
    case where dedup pays) at roughly its true rate; it under-counts
    keys that repeat only a couple of times each, but for those the
    sort costs about as much as the duplicate hashing it would avoid,
    so skipping is near break-even rather than a loss.
    """
    n = keys.shape[0]
    if n < min_batch:
        return keys, None
    step = n // _DEDUP_PROBE
    if step > 1:
        probe = np.sort(keys[::step])
        distinct = int(np.count_nonzero(probe[1:] != probe[:-1])) + 1
        if distinct * 8 >= probe.shape[0] * 7:
            # Under ~12.5% repetition in the probe: not worth sorting
            # the full batch to find out the exact rate.
            return keys, None
    unique, inverse = np.unique(keys, return_inverse=True)
    if unique.shape[0] * 4 > keys.shape[0] * 3:
        # Barely any repetition; the gathers would cost more than the
        # duplicate hashing they avoid.
        return keys, None
    return unique, inverse
