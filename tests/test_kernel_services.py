"""Kernel services: MMIO channel, keyring, page cache, cost model."""

import pytest

from repro.crypto import generate_fek, unwrap_key, wrap_key
from repro.kernel import (
    Keyring,
    KeyringError,
    MMIORegisters,
    PageCache,
    PageCacheConfig,
    SoftwareCosts,
)


class _RecordingTarget:
    """A fake memory controller recording MMIO verbs."""

    def __init__(self):
        self.calls = []
        self.accept_admin = True

    def install_file_key(self, group_id, file_id, key):
        self.calls.append(("install", group_id, file_id, key))

    def revoke_file_key(self, group_id, file_id):
        self.calls.append(("revoke", group_id, file_id))

    def update_fecb(self, page, group_id, file_id):
        self.calls.append(("fecb", page, group_id, file_id))

    def admin_login(self, credential_digest):
        self.calls.append(("admin", credential_digest))
        return self.accept_admin


class TestMMIO:
    def test_install_reaches_target_and_charges(self):
        target = _RecordingTarget()
        mmio = MMIORegisters(target=target)
        latency = mmio.install_file_key(1, 2, b"k" * 16)
        assert target.calls == [("install", 1, 2, b"k" * 16)]
        assert latency == 5 * mmio.write_latency_ns

    def test_revoke(self):
        target = _RecordingTarget()
        mmio = MMIORegisters(target=target)
        latency = mmio.revoke_file_key(1, 2)
        assert target.calls == [("revoke", 1, 2)]
        assert latency == 3 * mmio.write_latency_ns

    def test_update_fecb(self):
        target = _RecordingTarget()
        mmio = MMIORegisters(target=target)
        latency = mmio.update_fecb(9, 1, 2)
        assert target.calls == [("fecb", 9, 1, 2)]
        assert latency == 4 * mmio.write_latency_ns

    def test_admin_login_passthrough(self):
        target = _RecordingTarget()
        mmio = MMIORegisters(target=target)
        ok, latency = mmio.admin_login(b"digest")
        assert ok is True and latency > 0
        target.accept_admin = False
        ok, _ = mmio.admin_login(b"digest")
        assert ok is False

    def test_stats(self):
        mmio = MMIORegisters(target=_RecordingTarget())
        mmio.install_file_key(1, 2, b"k" * 16)
        mmio.update_fecb(9, 1, 2)
        assert mmio.stats.get("install_key") == 1
        assert mmio.stats.get("update_fecb") == 1
        assert mmio.stats.get("register_writes") == 9


class TestKeyring:
    def test_login_session_wrap_unwrap(self):
        ring = Keyring()
        session = ring.login(1000, "hunter2")
        fek = generate_fek(b"e")
        assert session.unwrap(session.wrap(fek)) == fek

    def test_wrong_user_cannot_unwrap(self):
        ring = Keyring()
        alice = ring.login(1000, "alice-pass")
        mallory = ring.login(2000, "guessed-pass")
        wrapped = alice.wrap(generate_fek(b"e"))
        with pytest.raises(KeyringError):
            mallory.unwrap(wrapped)

    def test_session_cipher_matches_fresh_key_schedule(self):
        # The session reuses one key schedule; the bytes must be exactly
        # what a freshly keyed wrap/unwrap produces.
        session = Keyring().login(1000, "hunter2")
        for index in range(3):
            fek = generate_fek(bytes([index]))
            wrapped = session.wrap(fek)
            assert wrapped == wrap_key(fek, session.fekek)
            assert session.unwrap(wrapped) == unwrap_key(wrapped, session.fekek) == fek

    def test_session_repr_hides_key_material(self):
        session = Keyring().login(1000, "hunter2")
        assert session.fekek.hex() not in repr(session)
        assert "cipher" not in repr(session)

    def test_same_passphrase_same_fekek(self):
        ring = Keyring()
        a = ring.login(1000, "pw")
        ring.logout(1000)
        b = ring.login(1000, "pw")
        assert a.fekek == b.fekek

    def test_no_session_raises(self):
        with pytest.raises(KeyringError):
            Keyring().session(1000)

    def test_logout(self):
        ring = Keyring()
        ring.login(1000, "pw")
        ring.logout(1000)
        assert not ring.has_session(1000)

    def test_admin_digest(self):
        ring = Keyring()
        with pytest.raises(KeyringError):
            _ = ring.admin_digest
        ring.set_admin_passphrase("root-pw")
        assert ring.admin_digest == ring.credential_digest("root-pw")
        assert ring.admin_digest != ring.credential_digest("other")


class TestPageCache:
    def test_insert_lookup(self):
        pc = PageCache(PageCacheConfig(capacity_pages=4))
        pc.insert(1, 0)
        assert pc.lookup(1, 0) is not None
        assert pc.lookup(1, 1) is None

    def test_lru_eviction(self):
        pc = PageCache(PageCacheConfig(capacity_pages=2))
        pc.insert(1, 0)
        pc.insert(1, 1)
        pc.lookup(1, 0)
        evicted = pc.insert(1, 2)
        assert (evicted.file_id, evicted.page_index) == (1, 1)

    def test_dirty_propagation(self):
        pc = PageCache(PageCacheConfig(capacity_pages=1))
        pc.insert(1, 0, dirty=True)
        evicted = pc.insert(1, 1)
        assert evicted.dirty

    def test_mark_dirty(self):
        pc = PageCache(PageCacheConfig(capacity_pages=2))
        pc.insert(1, 0)
        pc.mark_dirty(1, 0)
        evicted = pc.insert(1, 1) or pc.insert(1, 2)
        assert evicted.dirty

    def test_invalidate_file_returns_dirty_only(self):
        pc = PageCache(PageCacheConfig(capacity_pages=8))
        pc.insert(1, 0, dirty=True)
        pc.insert(1, 1, dirty=False)
        pc.insert(2, 0, dirty=True)
        dirty = pc.invalidate_file(1)
        assert [(p.file_id, p.page_index) for p in dirty] == [(1, 0)]
        assert pc.lookup(1, 1) is None
        assert pc.lookup(2, 0) is not None

    def test_sync_cleans_in_place(self):
        pc = PageCache(PageCacheConfig(capacity_pages=8))
        pc.insert(1, 0, dirty=True)
        dirty = pc.sync()
        assert len(dirty) == 1
        assert pc.sync() == []
        assert pc.resident_pages == 1


class TestSoftwareCosts:
    def test_page_costs_scale_with_page_size(self):
        costs = SoftwareCosts()
        assert costs.page_copy_ns == pytest.approx(4096 * costs.copy_ns_per_byte)
        assert costs.page_crypto_ns > costs.page_copy_ns

    def test_encrypted_fault_strictly_costlier(self):
        costs = SoftwareCosts()
        assert costs.encrypted_fault_ns() > costs.conventional_fault_ns()

    def test_dax_fault_much_cheaper_than_conventional(self):
        """Figure 1's point: DAX removes the copy and FS/driver layers."""
        costs = SoftwareCosts()
        assert costs.dax_fault_ns() < costs.conventional_fault_ns() / 1.5
