"""The bulk mutation paths' contract: bit-identity with the scalar loop.

Every batched ingest/remove path bottoms out in one unbuffered
``ufunc.at`` scatter (``GraphSketch._scatter``, the sparse sketch's
seeded dict fold, ``CountMinSketch.update_many``), which promises
*bit-identical* state to the per-element scalar loop for arbitrary float
weights.  This suite checks that promise through the public batch APIs:

- against the ``ufunc.at`` / scalar-loop references on hand-built
  batches, including unit weights past 2**53 and float32 matrices;
- model-level (hypothesis): batched ``update_many`` / ``remove_many`` /
  ``TCM.ingest_columns`` against the scalar ``update`` / ``remove`` loop
  across aggregations, orientations, dtypes and dense/sparse storage.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.countmin import CountMinSketch
from repro.core.aggregation import Aggregation
from repro.core.graph_sketch import GraphSketch
from repro.core.kernels import dedup_keys
from repro.core.sparse import SparseGraphSketch
from repro.core.tcm import TCM
from repro.hashing.family import HashFamily


class TestDedupKeys:
    def test_small_batch_skips_dedup(self):
        keys = np.arange(10, dtype=np.uint64)
        unique, inverse = dedup_keys(keys)
        assert unique is keys
        assert inverse is None

    def test_repetitive_batch_dedups_losslessly(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 50, size=5000).astype(np.uint64)
        unique, inverse = dedup_keys(keys)
        assert inverse is not None
        assert unique.shape[0] <= 50
        np.testing.assert_array_equal(unique[inverse], keys)

    def test_mostly_distinct_batch_skips_dedup(self):
        keys = np.arange(5000, dtype=np.uint64)
        unique, inverse = dedup_keys(keys)
        assert inverse is None


# -- batch APIs vs ufunc.at / scalar references -------------------------------


def random_batch(rng, n, universe=40):
    sources = rng.integers(0, universe, size=n).astype(np.uint64)
    targets = rng.integers(0, universe, size=n).astype(np.uint64)
    weights = np.exp(rng.normal(size=n)).astype(np.float64)
    return sources, targets, weights


def sketch_of(shape, aggregation=Aggregation.SUM, dtype=np.float64):
    """A non-square directed sketch with ``shape`` (two hash functions)."""
    family = HashFamily(list(shape), seed=17)
    return GraphSketch(family[0], family[1], aggregation=aggregation,
                       dtype=dtype)


def cells_of(sketch, sources, targets):
    """Scalar-hashed ``(rows, cols)`` -- independent of the bulk hash."""
    rows = [sketch._row_hash.hash_int(int(k)) for k in sources]
    cols = [sketch._col_hash.hash_int(int(k)) for k in targets]
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


@pytest.mark.parametrize("shape,n", [
    ((4, 8), 500),        # table much smaller than the batch
    ((64, 256), 100),     # table much larger than the batch
])
class TestScatterAddSub:
    def test_add_matches_add_at(self, shape, n):
        rng = np.random.default_rng(1)
        sketch = sketch_of(shape)
        expected = np.zeros(shape)
        for _ in range(2):
            sources, targets, weights = random_batch(rng, n)
            np.add.at(expected, cells_of(sketch, sources, targets), weights)
            sketch.update_many(sources, targets, weights)
        np.testing.assert_array_equal(sketch.matrix, expected)

    def test_sub_matches_subtract_at(self, shape, n):
        rng = np.random.default_rng(2)
        sketch = sketch_of(shape)
        sources, targets, weights = random_batch(rng, n)
        cells = cells_of(sketch, sources, targets)
        expected = np.zeros(shape)
        np.add.at(expected, cells, weights * 3.0)
        np.subtract.at(expected, cells, weights)
        sketch.update_many(sources, targets, weights * 3.0)
        sketch.remove_many(sources, targets, weights)
        np.testing.assert_array_equal(sketch.matrix, expected)

    def test_unit_weights_match_scalar_loop(self, shape, n):
        rng = np.random.default_rng(3)
        scalar = sketch_of(shape, Aggregation.COUNT)
        batched = sketch_of(shape, Aggregation.COUNT)
        sources, targets, weights = random_batch(rng, n)
        for x, y in zip(sources.tolist(), targets.tolist()):
            scalar.update(x, y)
        batched.update_many(sources, targets, weights)
        np.testing.assert_array_equal(batched.matrix, scalar.matrix)


class TestCountFastPathGate:
    """Unit counts far below 2**53 are exact integers in float64, so a
    COUNT batch must land on exactly the ``np.add.at`` reference."""

    def test_far_from_limit_takes_fast_path_exactly(self):
        sketch = sketch_of((3, 5), Aggregation.COUNT)
        rng = np.random.default_rng(4)
        sources, targets, weights = random_batch(rng, 1000)
        expected = np.zeros((3, 5))
        np.add.at(expected, cells_of(sketch, sources, targets), 1.0)
        sketch.update_many(sources, targets, weights)
        np.testing.assert_array_equal(sketch.matrix, expected)
        assert sketch.matrix.sum() == 1000.0


class TestUnitWeightsPast2To53:
    """Past 2**53 float64 addition of 1.0 rounds, so a grouped count
    (``m + k``) differs from ``k`` repeated ``+= 1``; the scatter must
    replay the increments one by one, like the scalar loop."""

    @pytest.mark.parametrize("aggregation",
                             [Aggregation.SUM, Aggregation.COUNT])
    def test_ingest_keys_and_remove_many_match_scalar(self, aggregation):
        config = dict(d=2, width=4, seed=5, aggregation=aggregation)
        scalar, batched = TCM(**config), TCM(**config)
        for tcm in (scalar, batched):
            for sketch in tcm.sketches:
                sketch._matrix[...] = 2.0 ** 53 - 3.0
        rng = np.random.default_rng(4)
        sources = rng.integers(0, 6, size=400).astype(np.uint64)
        targets = rng.integers(0, 6, size=400).astype(np.uint64)
        batched.ingest_keys(sources, targets)
        for x, y in zip(sources.tolist(), targets.tolist()):
            scalar.update(x, y)
        assert_same_state(scalar, batched)
        # 2**53 + 1 rounds back to 2**53: the cells saturate there.
        assert max(s.matrix.max() for s in batched.sketches) == 2.0 ** 53
        batched.remove_many(sources[:150], targets[:150])
        for x, y in zip(sources[:150].tolist(), targets[:150].tolist()):
            scalar.remove(x, y)
        assert_same_state(scalar, batched)


class TestScatterExtremeAndFloor:
    @pytest.mark.parametrize("minimum", [True, False])
    def test_extreme_matches_scalar_loop(self, minimum):
        rng = np.random.default_rng(5)
        aggregation = Aggregation.MIN if minimum else Aggregation.MAX
        scalar = sketch_of((8, 16), aggregation)
        batched = sketch_of((8, 16), aggregation)
        for _ in range(2):
            sources, targets, weights = random_batch(rng, 200)
            for x, y, w in zip(sources.tolist(), targets.tolist(),
                               weights.tolist()):
                scalar.update(x, y, w)
            batched.update_many(sources, targets, weights)
        np.testing.assert_array_equal(batched.matrix, scalar.matrix)
        np.testing.assert_array_equal(batched._touched, scalar._touched)

    def test_floor_matches_maximum_at(self):
        rng = np.random.default_rng(6)
        sketch = sketch_of((8, 16))
        sources, targets, weights = random_batch(rng, 400)
        sketch.update_many(sources, targets, weights)
        expected = np.array(sketch.matrix)
        floors = weights * 4.0
        np.maximum.at(expected, cells_of(sketch, sources, targets), floors)
        sketch.raise_cells_to(sources, targets, floors)
        np.testing.assert_array_equal(sketch.matrix, expected)


class TestScatterAdd1D:
    def test_matches_add_at(self):
        rng = np.random.default_rng(7)
        cms = CountMinSketch(d=3, width=64, seed=2)
        keys = rng.integers(0, 200, size=500).astype(np.uint64)
        values = np.exp(rng.normal(size=500))
        expected = np.zeros((3, 64))
        for row, h in enumerate(cms._family):
            idx = [h.hash_int(int(k)) for k in keys]
            np.add.at(expected[row], idx, values)
        cms.update_many(keys, values)
        np.testing.assert_array_equal(cms._table, expected)

    def test_unit_weights(self):
        scalar = CountMinSketch(d=2, width=16, seed=1)
        batched = CountMinSketch(d=2, width=16, seed=1)
        keys = np.array([3, 3, 3, 0, 15], dtype=np.uint64)
        for key in keys.tolist():
            scalar.update(key)
        batched.update_many(keys, np.ones(len(keys)))
        np.testing.assert_array_equal(batched._table, scalar._table)
        assert batched.estimate(3) >= 3.0


class TestEmptyBatches:
    def test_all_primitives_noop_on_empty(self):
        empty_k = np.empty(0, dtype=np.uint64)
        empty_f = np.empty(0, dtype=np.float64)
        sketches = [sketch_of((4, 4)), sketch_of((4, 4), Aggregation.MIN),
                    SparseGraphSketch(HashFamily([4], seed=1)[0])]
        for sketch in sketches:
            sketch.update_many(empty_k, empty_k, empty_f)
            if sketch.aggregation.invertible:
                sketch.remove_many(empty_k, empty_k, empty_f)
                sketch.raise_cells_to(empty_k, empty_k, empty_f)
            assert not np.asarray(sketch.matrix).any()
        assert not sketches[1]._touched.any()
        cms = CountMinSketch(d=2, width=8)
        cms.update_many(empty_k, empty_f)
        assert not cms._table.any()


# -- hypothesis: batch path == scalar path -----------------------------------

labels = st.integers(min_value=0, max_value=25).map(lambda i: f"n{i}")
# Plain floats shrink towards "nice" (exactly summable) values, so mix
# in non-dyadic fractions whose sums round.
float_weights = st.one_of(
    st.floats(min_value=0.0, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=10 ** 6).map(lambda i: i / 7.0))
elements = st.lists(st.tuples(labels, labels, float_weights),
                    min_size=1, max_size=80)

common = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def assert_same_state(a: TCM, b: TCM) -> None:
    for sa, sb in zip(a.sketches, b.sketches):
        np.testing.assert_array_equal(sa.matrix, sb.matrix)
        ta, tb = getattr(sa, "_touched", None), getattr(sb, "_touched", None)
        if ta is not None or tb is not None:
            np.testing.assert_array_equal(ta, tb)


def columns(triples):
    sources = [x for x, _, _ in triples]
    targets = [y for _, y, _ in triples]
    weights = np.array([w for _, _, w in triples], dtype=np.float64)
    return sources, targets, weights


class TestKernelPathMatchesScalarPath:
    @common
    @given(elements,
           st.sampled_from(list(Aggregation)),
           st.booleans(), st.booleans())
    def test_ingest_columns(self, triples, aggregation, directed, sparse):
        if sparse and aggregation not in (Aggregation.SUM,
                                          Aggregation.COUNT):
            return
        config = dict(d=3, width=16, seed=7, directed=directed,
                      aggregation=aggregation, sparse=sparse)
        scalar = TCM(**config)
        for x, y, w in triples:
            scalar.update(x, y, w)
        vectorized = TCM(**config)
        sources, targets, weights = columns(triples)
        # Two chunks, so the second folds onto non-empty cells.
        half = len(triples) // 2
        vectorized.ingest_columns(sources[:half], targets[:half],
                                  weights[:half])
        vectorized.ingest_columns(sources[half:], targets[half:],
                                  weights[half:])
        assert_same_state(scalar, vectorized)

    @common
    @given(elements, st.sampled_from([Aggregation.SUM, Aggregation.COUNT]),
           st.booleans(), st.booleans())
    def test_remove_many(self, triples, aggregation, directed, sparse):
        config = dict(d=3, width=16, seed=7, directed=directed,
                      aggregation=aggregation, sparse=sparse)
        sources, targets, weights = columns(triples)
        scalar = TCM(**config)
        vectorized = TCM(**config)
        for tcm in (scalar, vectorized):
            tcm.ingest_columns(sources, targets, weights * 3.0)
        for x, y, w in zip(sources, targets, weights):
            scalar.remove(x, y, float(w))
        vectorized.remove_many(sources, targets, weights)
        assert_same_state(scalar, vectorized)

    @common
    @given(elements, st.sampled_from(list(Aggregation)),
           st.sampled_from([np.float64, np.float32]), st.booleans(),
           st.booleans())
    def test_sketch_dtypes_and_large_cells(self, triples, aggregation,
                                           dtype, large, sparse):
        # float32 matrices and cells past 2**53 (resp. 2**24 in float32),
        # where a regrouped sum would round differently.
        if sparse and (dtype is np.float32
                       or aggregation in (Aggregation.MIN, Aggregation.MAX)):
            return
        offset = 2.0 ** (53 if dtype is np.float64 else 24) if large else 0.0
        family = HashFamily([8, 4], seed=9)
        if sparse:
            scalar, batched = (SparseGraphSketch(family[0], family[1],
                                                 aggregation=aggregation)
                               for _ in range(2))
        else:
            scalar, batched = (GraphSketch(family[0], family[1],
                                           aggregation=aggregation,
                                           dtype=dtype)
                               for _ in range(2))
        sources, targets, weights = columns(triples)
        source_keys = np.array([int(x[1:]) for x in sources], dtype=np.uint64)
        target_keys = np.array([int(y[1:]) for y in targets], dtype=np.uint64)
        weights = weights + offset
        for x, y, w in zip(source_keys.tolist(), target_keys.tolist(),
                           weights.tolist()):
            scalar.update(x, y, w)
        batched.update_many(source_keys, target_keys, weights)
        if aggregation.invertible:
            for x, y, w in zip(source_keys.tolist(), target_keys.tolist(),
                               (weights / 3.0).tolist()):
                scalar.remove(x, y, w)
            batched.remove_many(source_keys, target_keys, weights / 3.0)
        np.testing.assert_array_equal(batched.matrix, scalar.matrix)
        np.testing.assert_array_equal(batched.row_sums(), scalar.row_sums())
        np.testing.assert_array_equal(batched.col_sums(), scalar.col_sums())
        if getattr(batched, "_touched", None) is not None:
            np.testing.assert_array_equal(batched._touched, scalar._touched)

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("universe", [500, 10 ** 6])
    def test_large_batches_match_scalar_loop(self, universe, directed):
        # Large batches: repeated keys take the dedup path (universe 500),
        # distinct ones hash each key column in its own pass.
        rng = np.random.default_rng(universe)
        sources, targets, weights = random_batch(rng, 6000, universe)
        config = dict(d=4, width=64, seed=7, directed=directed)
        scalar, batched = TCM(**config), TCM(**config)
        batched.ingest_keys(sources, targets, weights * 3.0)
        batched.remove_many(sources, targets, weights)
        for x, y, w in zip(sources.tolist(), targets.tolist(),
                           weights.tolist()):
            scalar.update(x, y, w * 3.0)
        for x, y, w in zip(sources.tolist(), targets.tolist(),
                           weights.tolist()):
            scalar.remove(x, y, w)
        assert_same_state(scalar, batched)
        pairs = list(zip(sources[:300].tolist(), targets[:300].tolist()))
        np.testing.assert_array_equal(
            batched.edge_weights(pairs),
            [scalar.edge_weight(x, y) for x, y in pairs])

    @common
    @given(elements, st.booleans())
    def test_conservative_chunk_one_is_scalar_loop(self, triples, directed):
        # With chunk_size=1 the batched conservative path must reproduce
        # the per-edge algorithm exactly, and with larger chunks stay
        # one-sided below it (tests/test_ingest_engine.py covers the
        # larger-chunk bound).
        config = dict(d=3, width=16, seed=7, directed=directed)
        scalar = TCM(**config)
        for x, y, w in triples:
            scalar.update_conservative(x, y, w)
        batched = TCM(**config)
        batched.ingest_conservative(
            (type("E", (), {"source": x, "target": y, "weight": w,
                            "timestamp": 0.0})() for x, y, w in triples),
            chunk_size=1)
        assert_same_state(scalar, batched)

    @common
    @given(elements, st.booleans())
    def test_keep_labels_legacy_path_unchanged(self, triples, directed):
        config = dict(d=2, width=16, seed=3, directed=directed,
                      keep_labels=True)
        scalar = TCM(**config)
        for x, y, w in triples:
            scalar.update(x, y, w)
        vectorized = TCM(**config)
        sources, targets, weights = columns(triples)
        vectorized.ingest_columns(sources, targets, weights)
        assert_same_state(scalar, vectorized)
