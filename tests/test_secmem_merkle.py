"""Bonsai Merkle tree: path geometry, tamper detection, rebuild."""

import pytest

from repro.mem import LINE_SIZE
from repro.secmem import BonsaiMerkleTree, IntegrityError, MetadataLayout


@pytest.fixture
def small_setup():
    layout = MetadataLayout(data_bytes=4 * 1024 * 1024, ott_region_bytes=4096)
    leaves = {}

    def reader(index):
        return leaves.get(index, bytes(LINE_SIZE))

    tree = BonsaiMerkleTree(layout, leaf_reader=reader)
    return layout, leaves, tree


class TestGeometry:
    def test_path_is_leaf_side_first(self, small_setup):
        layout, _, tree = small_setup
        path = tree.path_to_root(layout.mecb_base)
        assert path == sorted(path) or len(path) == len(set(path))
        assert len(path) == tree.num_levels

    @pytest.mark.parametrize("arity", [2, 3, 8, 16])
    @pytest.mark.parametrize("data_mb,ott_bytes", [(1, 64), (4, 4096), (64, 256 * 1024)])
    def test_num_levels_is_layout_levels(self, arity, data_mb, ott_bytes):
        layout = MetadataLayout(
            data_bytes=data_mb * 1024 * 1024, ott_region_bytes=ott_bytes, merkle_arity=arity
        )
        tree = BonsaiMerkleTree(layout)
        levels, nodes = 0, layout.merkle_leaves
        while nodes > 1:
            nodes = -(-nodes // arity)
            levels += 1
        assert tree.num_levels == layout.merkle_levels == levels
        last = layout.merkle_base - LINE_SIZE
        assert len(tree.path_to_root(last)) == levels
        assert tree.path_to_root(last)[-1] == layout.total_bytes - LINE_SIZE

    def test_sibling_leaves_share_path(self, small_setup):
        layout, _, tree = small_setup
        a = tree.path_to_root(layout.mecb_base)
        b = tree.path_to_root(layout.mecb_base + LINE_SIZE)
        assert a == b  # siblings under the same level-0 parent

    def test_distant_leaves_converge(self, small_setup):
        layout, _, tree = small_setup
        a = tree.path_to_root(layout.mecb_base)
        b = tree.path_to_root(layout.merkle_base - LINE_SIZE)
        assert a[-1] == b[-1]  # same top node
        assert a[0] != b[0]

    def test_non_metadata_address_rejected(self, small_setup):
        _, _, tree = small_setup
        with pytest.raises(ValueError):
            tree.path_to_root(0)


class TestFunctionalIntegrity:
    def test_verify_default_leaf(self, small_setup):
        layout, _, tree = small_setup
        tree.verify_leaf(layout.mecb_base)  # untouched leaf verifies

    def test_update_then_verify(self, small_setup):
        layout, leaves, tree = small_setup
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        tree.verify_leaf(layout.mecb_base)

    def test_root_changes_on_update(self, small_setup):
        layout, leaves, tree = small_setup
        before = tree.root
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        assert tree.root != before

    def test_tamper_detected(self, small_setup):
        layout, leaves, tree = small_setup
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        leaves[0] = b"\x22" * LINE_SIZE  # tamper without update
        with pytest.raises(IntegrityError):
            tree.verify_leaf(layout.mecb_base)

    def test_replay_detected(self, small_setup):
        """Restoring an old value after a newer update must fail —
        the replay attack counter-mode cannot survive."""
        layout, leaves, tree = small_setup
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        leaves[0] = b"\x22" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        leaves[0] = b"\x11" * LINE_SIZE  # replay the old value
        with pytest.raises(IntegrityError):
            tree.verify_leaf(layout.mecb_base)

    def test_sibling_tamper_detected(self, small_setup):
        layout, leaves, tree = small_setup
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        leaves[1] = b"\x99" * LINE_SIZE  # tamper an untouched sibling
        with pytest.raises(IntegrityError):
            tree.verify_leaf(layout.mecb_base + LINE_SIZE)

    def test_independent_subtrees_unaffected(self, small_setup):
        layout, leaves, tree = small_setup
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        far = layout.merkle_base - LINE_SIZE
        tree.verify_leaf(far)  # distant default leaf still verifies

    def test_requires_leaf_reader_for_hashing(self):
        layout = MetadataLayout(data_bytes=4 * 1024 * 1024, ott_region_bytes=4096)
        tree = BonsaiMerkleTree(layout)  # no reader
        tree2 = BonsaiMerkleTree(layout)
        assert tree.root == tree2.root  # geometry-only trees agree
        with pytest.raises(RuntimeError):
            tree._leaf_digest(0)


class TestRebuild:
    def test_rebuild_preserves_valid_state(self, small_setup):
        layout, leaves, tree = small_setup
        for i in range(5):
            leaves[i] = bytes([i + 1]) * LINE_SIZE
            tree.update_leaf(layout.mecb_base + i * LINE_SIZE)
        before = tree.root
        assert tree.rebuild_root() == before

    def test_rebuild_after_out_of_band_changes(self, small_setup):
        """Crash recovery: counters recovered by Osiris changed leaf
        content; rebuild recomputes a consistent root."""
        layout, leaves, tree = small_setup
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        leaves[0] = b"\x22" * LINE_SIZE  # recovered to a newer value
        tree.rebuild_root()
        tree.verify_leaf(layout.mecb_base)

    def test_stats_counted(self, small_setup):
        layout, leaves, tree = small_setup
        leaves[0] = b"\x11" * LINE_SIZE
        tree.update_leaf(layout.mecb_base)
        tree.verify_leaf(layout.mecb_base)
        assert tree.stats.get("leaf_updates") == 1
        assert tree.stats.get("verifications") == 1
