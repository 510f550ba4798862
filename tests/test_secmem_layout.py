"""Metadata layout: region carving and Merkle geometry."""

import dataclasses
import pickle

import pytest

from repro.mem import LINE_SIZE, PAGE_SIZE
from repro.secmem import MetadataLayout


def layout(mb=16, ott_kb=32):
    return MetadataLayout(data_bytes=mb * 1024 * 1024, ott_region_bytes=ott_kb * 1024)


class TestRegions:
    def test_regions_are_ordered_and_disjoint(self):
        lay = layout()
        assert lay.mecb_base == lay.data_bytes
        assert lay.fecb_base == lay.mecb_base + lay.counter_region_bytes
        assert lay.ott_base == lay.fecb_base + lay.counter_region_bytes
        assert lay.merkle_base == lay.ott_base + lay.ott_region_bytes

    def test_counter_region_sizes(self):
        lay = layout(mb=16)
        assert lay.num_pages == 16 * 1024 * 1024 // PAGE_SIZE
        assert lay.counter_region_bytes == lay.num_pages * LINE_SIZE

    def test_one_counter_line_per_page(self):
        lay = layout()
        assert lay.mecb_addr(1) - lay.mecb_addr(0) == LINE_SIZE
        assert lay.fecb_addr(1) - lay.fecb_addr(0) == LINE_SIZE

    def test_mecb_fecb_parallel_arrays(self):
        lay = layout()
        for page in (0, 17, lay.num_pages - 1):
            assert lay.fecb_addr(page) - lay.mecb_addr(page) == lay.counter_region_bytes

    def test_page_bounds_enforced(self):
        lay = layout()
        with pytest.raises(ValueError):
            lay.mecb_addr(-1)
        with pytest.raises(ValueError):
            lay.mecb_addr(lay.num_pages)
        with pytest.raises(ValueError):
            lay.fecb_addr(lay.num_pages)

    def test_ott_slots(self):
        lay = layout(ott_kb=32)
        assert lay.ott_slots == 32 * 1024 // LINE_SIZE
        assert lay.ott_slot_addr(0) == lay.ott_base
        with pytest.raises(ValueError):
            lay.ott_slot_addr(lay.ott_slots)

    @pytest.mark.parametrize("kwargs", [
        dict(data_bytes=4097),
        dict(data_bytes=PAGE_SIZE, ott_region_bytes=100),
        dict(data_bytes=PAGE_SIZE, merkle_arity=1),
        dict(data_bytes=0),
        dict(data_bytes=-PAGE_SIZE),
    ])
    def test_invalid_layouts_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MetadataLayout(**kwargs)


class TestMerkleGeometry:
    def test_leaves_cover_all_protected_metadata(self):
        lay = layout()
        protected = 2 * lay.counter_region_bytes + lay.ott_region_bytes
        assert lay.merkle_leaves == protected // LINE_SIZE

    def test_leaf_index_bijective_over_regions(self):
        lay = layout()
        assert lay.merkle_leaf_index(lay.mecb_base) == 0
        assert lay.merkle_leaf_index(lay.mecb_base + LINE_SIZE) == 1
        last = lay.merkle_base - LINE_SIZE
        assert lay.merkle_leaf_index(last) == lay.merkle_leaves - 1

    def test_leaf_index_rejects_non_metadata(self):
        lay = layout()
        with pytest.raises(ValueError):
            lay.merkle_leaf_index(0)  # data region
        with pytest.raises(ValueError):
            lay.merkle_leaf_index(lay.merkle_base)  # tree region

    def test_node_addrs_above_merkle_base(self):
        lay = layout()
        assert lay.merkle_node_addr(0, 0) == lay.merkle_base
        assert lay.merkle_node_addr(1, 0) > lay.merkle_node_addr(0, 0)

    def test_node_index_bounds(self):
        lay = layout()
        with pytest.raises(ValueError):
            lay.merkle_node_addr(0, lay.merkle_leaves)  # way out of range
        with pytest.raises(ValueError):
            lay.merkle_node_addr(-1, 0)

    def test_node_level_bounds(self):
        lay = layout()
        top = lay.merkle_levels - 1
        assert lay.merkle_node_addr(top, 0) == lay.total_bytes - LINE_SIZE
        with pytest.raises(ValueError):
            lay.merkle_node_addr(lay.merkle_levels, 0)
        with pytest.raises(ValueError):
            lay.merkle_node_addr(50, 0)

    def test_levels_shrink_by_arity(self):
        lay = layout()
        level0_nodes = -(-lay.merkle_leaves // 8)
        span0 = lay.merkle_node_addr(1, 0) - lay.merkle_node_addr(0, 0)
        assert span0 == level0_nodes * LINE_SIZE

    def test_total_bytes_monotone_in_data(self):
        assert layout(mb=32).total_bytes > layout(mb=16).total_bytes

    def test_paper_scale_tree_depth(self):
        """Table III: 9 levels for the full 16 GB machine (8-ary)."""
        lay = MetadataLayout(data_bytes=16 * 1024 * 1024 * 1024)
        # leaves = 2*4M pages + OTT slots; ceil(log8(leaves)) == 8 internal
        # levels + the leaf level itself == 9 levels of tree structure.
        assert lay.merkle_levels == 8


def recomputed(lay):
    """Every derived quantity, computed from the three fields alone."""
    num_pages = lay.data_bytes // PAGE_SIZE
    counter = num_pages * LINE_SIZE
    mecb = lay.data_bytes
    merkle_base = mecb + 2 * counter + lay.ott_region_bytes
    leaves = (2 * counter + lay.ott_region_bytes) // LINE_SIZE
    levels, nodes = 1, leaves
    while nodes > lay.merkle_arity:
        nodes = -(-nodes // lay.merkle_arity)
        levels += 1
    level_bases = []
    base, nodes = merkle_base, leaves
    while True:
        nodes = -(-nodes // lay.merkle_arity)
        level_bases.append((base, nodes))
        base += nodes * LINE_SIZE
        if nodes == 1:
            break
    return {
        "num_pages": num_pages,
        "counter_region_bytes": counter,
        "mecb_base": mecb,
        "fecb_base": mecb + counter,
        "ott_base": mecb + 2 * counter,
        "merkle_base": merkle_base,
        "ott_slots": lay.ott_region_bytes // LINE_SIZE,
        "merkle_leaves": leaves,
        "merkle_levels": levels,
        "total_bytes": base,
    }, level_bases


GRID = [
    (data_mb * 1024 * 1024, arity, ott_bytes)
    for data_mb in (1, 3, 16, 1024)
    for arity in (2, 3, 8, 16)
    for ott_bytes in (0, 64, 4096, 256 * 1024)
]


class TestCachedGeometry:
    @pytest.mark.parametrize("data_bytes,arity,ott_bytes", GRID)
    def test_cached_values_match_recomputation(self, data_bytes, arity, ott_bytes):
        lay = MetadataLayout(
            data_bytes=data_bytes, ott_region_bytes=ott_bytes, merkle_arity=arity
        )
        expected, level_bases = recomputed(lay)
        for _ in range(2):  # first read computes, second reads the cache
            assert {name: getattr(lay, name) for name in expected} == expected
        assert len(level_bases) == lay.merkle_levels
        for level, (base, nodes) in enumerate(level_bases):
            assert lay.merkle_node_addr(level, 0) == base
            assert lay.merkle_node_addr(level, nodes - 1) == base + (nodes - 1) * LINE_SIZE
            with pytest.raises(ValueError):
                lay.merkle_node_addr(level, nodes)

    def test_identity_ignores_cache(self):
        fresh = layout()
        warm = layout()
        warm.total_bytes, warm.merkle_node_addr(0, 0), warm.mecb_addr(0)
        assert warm == fresh
        assert hash(warm) == hash(fresh)
        assert pickle.dumps(warm) == pickle.dumps(fresh)
        assert dataclasses.asdict(warm) == dataclasses.asdict(fresh)

    def test_pickle_roundtrip_recomputes(self):
        warm = layout()
        before = warm.total_bytes
        clone = pickle.loads(pickle.dumps(warm))
        assert clone == warm
        assert "total_bytes" not in vars(clone)
        assert clone.total_bytes == before

    def test_replace_does_not_inherit_cache(self):
        small = layout(mb=16)
        small.total_bytes, small.num_pages
        big = dataclasses.replace(small, data_bytes=32 * 1024 * 1024)
        assert big.num_pages == 2 * small.num_pages
        assert big.total_bytes == recomputed(big)[0]["total_bytes"]
