"""SEC-DED Hamming ECC over 64-bit words, as Osiris repurposes it.

Osiris (§II-D, [36]) stores each data line's ECC *computed over the
plaintext* but written alongside the ciphertext.  Because the ciphertext
only decrypts to the correct plaintext under the correct counter value,
the ECC doubles as a counter-correctness oracle: after a crash, candidate
counter values are tried in order and the one whose decryption satisfies
the ECC is the counter that encrypted the line.

This module implements the classic Hamming(72,64) SEC-DED code per
64-bit word (8 words per cache line => 64 ECC bits per line), with
single-bit correction and double-bit detection — enough structure that a
*wrong* counter's decryption fails the check with overwhelming
probability, which is exactly the property Osiris recovery leans on.

Encoding is linear over GF(2): the ECC of ``a ^ b`` is the ECC of ``a``
XOR the ECC of ``b``.  ``_encode_definitional`` spells the code out bit
by bit; at import it encodes the 64 unit vectors, and those codewords
are folded into eight 256-entry tables, one per byte of the word.
``encode_word`` is then eight lookups XORed together.
"""

from __future__ import annotations

from typing import List

__all__ = ["encode_word", "check_word", "encode_line", "check_line", "EccMismatch"]

_DATA_BITS = 64
# Parity positions are the powers of two inside a 72-bit codeword laid out
# 1-indexed (positions 1..71), plus an overall parity bit for DED.
_PARITY_POSITIONS = [1, 2, 4, 8, 16, 32, 64]


class EccMismatch(Exception):
    """Raised when a line fails its ECC check (uncorrectable)."""


def _data_positions() -> List[int]:
    """Codeword positions (1-indexed) that carry data bits."""
    positions = []
    pos = 1
    while len(positions) < _DATA_BITS:
        if pos not in _PARITY_POSITIONS:
            positions.append(pos)
        pos += 1
    return positions


_DATA_POSITIONS = _data_positions()
_CODEWORD_BITS = _DATA_POSITIONS[-1]  # highest used position


def _encode_definitional(word: int) -> int:
    """Hamming(72,64) SEC-DED ECC of a 64-bit word, computed bit by bit:
    7 Hamming parity bits + an overall parity bit."""
    # Scatter data bits into codeword positions.
    codeword = 0
    for bit_index, pos in enumerate(_DATA_POSITIONS):
        if (word >> bit_index) & 1:
            codeword |= 1 << pos
    # Each parity bit covers positions whose index has that bit set.
    parity = 0
    for p_index, p_pos in enumerate(_PARITY_POSITIONS):
        covered = 0
        for pos in range(1, _CODEWORD_BITS + 1):
            if pos & p_pos and (codeword >> pos) & 1:
                covered ^= 1
        parity |= covered << p_index
        if covered:
            codeword |= 1 << p_pos
    # Overall parity over the full codeword for double-error detection.
    overall = bin(codeword).count("1") & 1
    return parity | (overall << 7)


def _byte_tables() -> List[List[int]]:
    """Per byte lane, the ECC of every byte value in that lane."""
    tables = []
    for lane in range(_DATA_BITS // 8):
        units = [_encode_definitional(1 << (8 * lane + bit)) for bit in range(8)]
        table = [0] * 256
        for value in range(1, 256):
            low = value & -value
            table[value] = table[value ^ low] ^ units[low.bit_length() - 1]
        tables.append(table)
    return tables


_T0, _T1, _T2, _T3, _T4, _T5, _T6, _T7 = _byte_tables()


def encode_word(word: int) -> int:
    """Compute the 8-bit ECC (7 Hamming parity bits + overall parity)."""
    if word < 0 or word >= (1 << _DATA_BITS):
        raise ValueError(f"word out of 64-bit range: {word:#x}")
    return (
        _T0[word & 0xFF] ^ _T1[(word >> 8) & 0xFF]
        ^ _T2[(word >> 16) & 0xFF] ^ _T3[(word >> 24) & 0xFF]
        ^ _T4[(word >> 32) & 0xFF] ^ _T5[(word >> 40) & 0xFF]
        ^ _T6[(word >> 48) & 0xFF] ^ _T7[word >> 56]
    )


def check_word(word: int, ecc: int) -> bool:
    """True when ``word`` is consistent with ``ecc`` (no error syndrome)."""
    return encode_word(word) == (ecc & 0xFF)


def encode_line(line: bytes) -> bytes:
    """ECC for a 64-byte line: one byte per 64-bit word."""
    if len(line) != 64:
        raise ValueError(f"line must be 64 bytes, got {len(line)}")
    return bytes(
        encode_word(int.from_bytes(line[i : i + 8], "little")) for i in range(0, 64, 8)
    )


def check_line(line: bytes, ecc: bytes) -> bool:
    """Check all 8 words of a line against its 8 ECC bytes."""
    if len(line) != 64 or len(ecc) != 8:
        raise ValueError("line must be 64 bytes and ecc 8 bytes")
    return all(
        check_word(int.from_bytes(line[i : i + 8], "little"), ecc[i // 8])
        for i in range(0, 64, 8)
    )
