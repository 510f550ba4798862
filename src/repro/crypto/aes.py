"""AES-128 block cipher implemented from scratch.

FsEncr's encryption engines (the memory encryption engine and the file
encryption engine) are both AES engines operating in counter mode.  This
module provides a functional, dependency-free AES-128 implementation used
whenever the simulator runs in *functional* mode — i.e. when cache lines
are really encrypted so that tests can verify end-to-end confidentiality
properties (wrong key => garbage plaintext, counter reuse detection, etc.).

The timing model never calls into it (timing uses the paper's 40 ns AES
latency constant), but raw speed still matters outside the test suite.
Every functional pad is four AES blocks, so the crash sweep's Osiris
trial decryptions are dominated by this module, and file-create key
wrapping plus OTT spill encryption put about a fifth of the service
model's host time here.

The cipher is the standard 32-bit T-table formulation of FIPS-197.  The
state is four big-endian column words.  ``_TE0``..``_TE3`` fold SubBytes,
ShiftRows and MixColumns of one byte into one word lookup, and
``_TD0``..``_TD3`` do the same for the inverse cipher.  All tables are
built once at import from the S-box.  Each key's schedule is expanded
once into round-key words.  The decryption schedule (the equivalent
inverse cipher's InvMixColumns'd round keys) is built on first use,
because most keys only ever encrypt.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

__all__ = ["AES128", "aes128_encrypt_block", "aes128_decrypt_block"]

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]

_Tables = Tuple[List[int], List[int], List[int], List[int]]


def _gf_mul(a: int, b: int) -> int:
    """GF(2^8) multiply with the AES polynomial (table building only)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


def _round_tables(sbox: List[int], c0: int, c1: int, c2: int, c3: int) -> _Tables:
    """Four round tables for an S-box and a MixColumns column
    ``(c0, c1, c2, c3)``: table ``k`` maps a byte to its column word
    rotated right by ``8k`` bits, i.e. to byte lane ``k`` of the state."""
    t0 = [
        (_gf_mul(s, c0) << 24) | (_gf_mul(s, c1) << 16) | (_gf_mul(s, c2) << 8)
        | _gf_mul(s, c3)
        for s in sbox
    ]
    return (
        t0,
        [(w >> 8) | ((w & 0xFF) << 24) for w in t0],
        [(w >> 16) | ((w & 0xFFFF) << 16) for w in t0],
        [(w >> 24) | ((w & 0xFFFFFF) << 8) for w in t0],
    )


# Round tables: SubBytes + MixColumns (encryption), InvSubBytes +
# InvMixColumns (decryption), one per byte position of a column word.
_TE0, _TE1, _TE2, _TE3 = _round_tables(_SBOX, 2, 1, 1, 3)
_TD0, _TD1, _TD2, _TD3 = _round_tables(_INV_SBOX, 14, 9, 13, 11)
# Final-round tables: (Inv)SubBytes alone, pre-shifted to each byte lane.
_SE3, _SE2, _SE1, _SE0 = (
    [s << shift for s in _SBOX] for shift in (24, 16, 8, 0)
)
_SD3, _SD2, _SD1, _SD0 = (
    [s << shift for s in _INV_SBOX] for shift in (24, 16, 8, 0)
)

_BLOCK = struct.Struct(">4I")

_RoundKey = Tuple[int, int, int, int]


def _expand_key(key: bytes) -> List[_RoundKey]:
    """Expand a 16-byte key into 11 round keys of four words each."""
    if len(key) != 16:
        raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
    w = list(_BLOCK.unpack(key))
    for i in range(4, 44):
        t = w[i - 1]
        if i % 4 == 0:
            # SubWord(RotWord(t)) ^ Rcon
            t = (
                _SE3[(t >> 16) & 0xFF] ^ _SE2[(t >> 8) & 0xFF]
                ^ _SE1[t & 0xFF] ^ _SBOX[t >> 24] ^ (_RCON[i // 4 - 1] << 24)
            )
        w.append(w[i - 4] ^ t)
    return [tuple(w[r : r + 4]) for r in range(0, 44, 4)]


def _inv_mix_word(w: int) -> int:
    """InvMixColumns of one column word (S-box first cancels the
    inverse S-box folded into the ``_TD`` tables)."""
    return (
        _TD0[_SBOX[w >> 24]] ^ _TD1[_SBOX[(w >> 16) & 0xFF]]
        ^ _TD2[_SBOX[(w >> 8) & 0xFF]] ^ _TD3[_SBOX[w & 0xFF]]
    )


class AES128:
    """A keyed AES-128 cipher with a cached key schedule.

    >>> cipher = AES128(bytes(16))
    >>> cipher.decrypt_block(cipher.encrypt_block(b"0123456789abcdef"))
    b'0123456789abcdef'
    """

    BLOCK_SIZE = 16

    def __init__(self, key: bytes) -> None:
        self._key = bytes(key)
        self._enc_keys = _expand_key(self._key)
        self._dec_keys: Optional[List[_RoundKey]] = None

    @property
    def key(self) -> bytes:
        return self._key

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        rk = self._enc_keys
        k0, k1, k2, k3 = rk[0]
        s0, s1, s2, s3 = _BLOCK.unpack(block)
        s0 ^= k0
        s1 ^= k1
        s2 ^= k2
        s3 ^= k3
        for k0, k1, k2, k3 in rk[1:10]:
            s0, s1, s2, s3 = (
                te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF]
                ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ k0,
                te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF]
                ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ k1,
                te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF]
                ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ k2,
                te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF]
                ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ k3,
            )
        f3, f2, f1, f0 = _SE3, _SE2, _SE1, _SE0
        k0, k1, k2, k3 = rk[10]
        return _BLOCK.pack(
            f3[s0 >> 24] ^ f2[(s1 >> 16) & 0xFF] ^ f1[(s2 >> 8) & 0xFF] ^ f0[s3 & 0xFF] ^ k0,
            f3[s1 >> 24] ^ f2[(s2 >> 16) & 0xFF] ^ f1[(s3 >> 8) & 0xFF] ^ f0[s0 & 0xFF] ^ k1,
            f3[s2 >> 24] ^ f2[(s3 >> 16) & 0xFF] ^ f1[(s0 >> 8) & 0xFF] ^ f0[s1 & 0xFF] ^ k2,
            f3[s3 >> 24] ^ f2[(s0 >> 16) & 0xFF] ^ f1[(s1 >> 8) & 0xFF] ^ f0[s2 & 0xFF] ^ k3,
        )

    def _decryption_keys(self) -> List[_RoundKey]:
        """Equivalent-inverse-cipher schedule: round keys in reverse,
        with InvMixColumns applied to the nine middle ones."""
        if self._dec_keys is None:
            enc = self._enc_keys
            self._dec_keys = (
                [enc[10]]
                + [tuple(_inv_mix_word(w) for w in enc[r]) for r in range(9, 0, -1)]
                + [enc[0]]
            )
        return self._dec_keys

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        td0, td1, td2, td3 = _TD0, _TD1, _TD2, _TD3
        rk = self._decryption_keys()
        k0, k1, k2, k3 = rk[0]
        s0, s1, s2, s3 = _BLOCK.unpack(block)
        s0 ^= k0
        s1 ^= k1
        s2 ^= k2
        s3 ^= k3
        for k0, k1, k2, k3 in rk[1:10]:
            s0, s1, s2, s3 = (
                td0[s0 >> 24] ^ td1[(s3 >> 16) & 0xFF]
                ^ td2[(s2 >> 8) & 0xFF] ^ td3[s1 & 0xFF] ^ k0,
                td0[s1 >> 24] ^ td1[(s0 >> 16) & 0xFF]
                ^ td2[(s3 >> 8) & 0xFF] ^ td3[s2 & 0xFF] ^ k1,
                td0[s2 >> 24] ^ td1[(s1 >> 16) & 0xFF]
                ^ td2[(s0 >> 8) & 0xFF] ^ td3[s3 & 0xFF] ^ k2,
                td0[s3 >> 24] ^ td1[(s2 >> 16) & 0xFF]
                ^ td2[(s1 >> 8) & 0xFF] ^ td3[s0 & 0xFF] ^ k3,
            )
        f3, f2, f1, f0 = _SD3, _SD2, _SD1, _SD0
        k0, k1, k2, k3 = rk[10]
        return _BLOCK.pack(
            f3[s0 >> 24] ^ f2[(s3 >> 16) & 0xFF] ^ f1[(s2 >> 8) & 0xFF] ^ f0[s1 & 0xFF] ^ k0,
            f3[s1 >> 24] ^ f2[(s0 >> 16) & 0xFF] ^ f1[(s3 >> 8) & 0xFF] ^ f0[s2 & 0xFF] ^ k1,
            f3[s2 >> 24] ^ f2[(s1 >> 16) & 0xFF] ^ f1[(s0 >> 8) & 0xFF] ^ f0[s3 & 0xFF] ^ k2,
            f3[s3 >> 24] ^ f2[(s2 >> 16) & 0xFF] ^ f1[(s1 >> 8) & 0xFF] ^ f0[s0 & 0xFF] ^ k3,
        )


def aes128_encrypt_block(key: bytes, block: bytes) -> bytes:
    """One-shot block encryption (expands the key schedule every call)."""
    return AES128(key).encrypt_block(block)


def aes128_decrypt_block(key: bytes, block: bytes) -> bytes:
    """One-shot block decryption (expands the key schedule every call)."""
    return AES128(key).decrypt_block(block)
