"""Test-only reference implementations, independent of the package's backends.

The AES-128 here is pure Python with the S-box built from the GF(2^8)
inverse and affine transform rather than a transcribed table, so it shares
no code or data with the OpenSSL-backed production path. Slow, but only
used as a cross-check oracle.

The Keccak-f[1600] here is the loop form of the permutation, with the round
constants computed from FIPS 202's LFSR rather than transcribed, so it shares
nothing with the Nettle permutation the package calls. The sponge over it
works lane by lane, pads the message as a byte string and squeezes lanes
back to bytes, sharing no state layout or padding arithmetic with the
package's sponge.
"""


def _gf_mul(a, b):
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return out


def _build_sbox():
    # multiplicative inverse then the affine transform; 0 maps to 0x63
    inverse = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if _gf_mul(x, y) == 1:
                inverse[x] = y
                break
    sbox = []
    for x in range(256):
        b = inverse[x]
        s = b
        for shift in (1, 2, 3, 4):
            s ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox.append(s ^ 0x63)
    return sbox


_SBOX = _build_sbox()
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _expand_key(key):
    words = [list(key[4 * i:4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = [_SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    return words


def _xtime(b):
    b <<= 1
    return (b ^ 0x1B) & 0xFF if b & 0x100 else b


def aes128_encrypt_block(key, block):
    """Reference AES-128 forward cipher of one 16-byte block."""
    assert len(key) == 16 and len(block) == 16
    words = _expand_key(key)
    # flat state indexed 4*c + r, matching the input byte order
    state = list(block)

    def add_round_key(s, rnd):
        for c in range(4):
            for r in range(4):
                s[4 * c + r] ^= words[4 * rnd + c][r]

    def sub_shift(s):
        s = [_SBOX[b] for b in s]
        # ShiftRows: row r (bytes r, r+4, r+8, r+12) rotates left by r
        out = list(s)
        for r in range(1, 4):
            row = [s[r + 4 * c] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                out[r + 4 * c] = row[c]
        return out

    def mix_columns(s):
        for c in range(4):
            col = s[4 * c:4 * c + 4]
            t = col[0] ^ col[1] ^ col[2] ^ col[3]
            u = col[0]
            s[4 * c + 0] ^= t ^ _xtime(col[0] ^ col[1])
            s[4 * c + 1] ^= t ^ _xtime(col[1] ^ col[2])
            s[4 * c + 2] ^= t ^ _xtime(col[2] ^ col[3])
            s[4 * c + 3] ^= t ^ _xtime(col[3] ^ u)

    add_round_key(state, 0)
    for rnd in range(1, 10):
        state = sub_shift(state)
        mix_columns(state)
        add_round_key(state, rnd)
    state = sub_shift(state)
    add_round_key(state, 10)
    return bytes(state)


def cmac_reference(key, msg):
    """Brute-force CMAC: materialize every block explicitly, fold the chain.

    Uses the reference AES above, so both the chaining logic and the cipher
    are independent of the production path.
    """
    zero = bytes(16)

    def double(block):
        value = int.from_bytes(block, "big") << 1
        if value >> 128:
            value = (value & ((1 << 128) - 1)) ^ 0x87
        return value.to_bytes(16, "big")

    k1 = double(aes128_encrypt_block(key, zero))
    k2 = double(k1)
    n = max(1, -(-len(msg) // 16))
    blocks = [msg[16 * i:16 * i + 16] for i in range(n)]
    if len(blocks[-1]) == 16:
        blocks[-1] = bytes(a ^ b for a, b in zip(blocks[-1], k1))
    else:
        padded = blocks[-1] + b"\x80" + bytes(15 - len(blocks[-1]))
        blocks[-1] = bytes(a ^ b for a, b in zip(padded, k2))
    chain = zero
    for block in blocks:
        chain = aes128_encrypt_block(key, bytes(a ^ b for a, b in zip(chain, block)))
    return chain


_MASK64 = (1 << 64) - 1


def _rc_bit(t):
    # FIPS 202 Algorithm 5: bit t of the LFSR x^8 + x^6 + x^5 + x^4 + 1
    r = 1
    for _ in range(t % 255):
        r <<= 1
        if r & 0x100:
            r ^= 0x171
    return r & 1


# Iota: round ir sets lane bits 2^j - 1 from rc(j + 7*ir) (FIPS 202 Algorithm 6).
_ROUND_CONSTANTS = tuple(sum(_rc_bit(j + 7 * ir) << (2 ** j - 1) for j in range(7))
                         for ir in range(24))

# Rho rotation offsets, flat index x + 5*y.
_ROTATIONS = (
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
)

# Pi: lane x + 5*y moves to y + 5*((2x + 3y) % 5).
_PI_DEST = tuple(y + 5 * ((2 * x + 3 * y) % 5) for y in range(5) for x in range(5))

# Chi: lane x + 5*y combines with lanes (x+1, y) and (x+2, y).
_CHI_NEIGHBOURS = tuple(((x + 1) % 5 + 5 * y, (x + 2) % 5 + 5 * y)
                        for y in range(5) for x in range(5))


def keccak_f1600_reference(lanes):
    """Keccak-f[1600] over 25 64-bit lanes at flat index x + 5*y (new list returned)."""
    a = lanes
    b = [0] * 25
    for rc in _ROUND_CONSTANTS:
        # theta: c[x - 1] and c[x - 4] are the columns left and right of x.
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        d = [c[x - 1] ^ (((c[x - 4] << 1) | (c[x - 4] >> 63)) & _MASK64) for x in range(5)]
        # theta applied per lane, then rho + pi
        for v, dx, dest, r in zip(a, d * 5, _PI_DEST, _ROTATIONS):
            v ^= dx
            b[dest] = ((v << r) | (v >> (64 - r))) & _MASK64
        # chi (into a fresh list, so the caller's lanes are never written)
        a = [bi ^ (~b[j] & b[k]) for bi, (j, k) in zip(b, _CHI_NEIGHBOURS)]
        # iota
        a[0] ^= rc
    return a


def reference_sponge(data, rate, pad, out_len):
    """Keccak sponge at ``rate`` bytes with pad10*1 after domain byte ``pad``.

    FIPS 202 Algorithm 8 over ``keccak_f1600_reference``: the padded message
    is split into rate blocks, each XORed into the lanes word by word.
    """
    assert rate % 8 == 0 and 0 < rate < 200 and 0 <= pad < 0x80
    padded = bytearray(data) + bytes([pad])
    padded += bytes(-len(padded) % rate)
    padded[-1] |= 0x80  # the pad byte's own top bit is clear, so this cannot collide
    lanes = [0] * 25
    for start in range(0, len(padded), rate):
        for i in range(rate // 8):
            word = padded[start + 8 * i:start + 8 * i + 8]
            lanes[i] ^= int.from_bytes(word, "little")
        lanes = keccak_f1600_reference(lanes)
    out = b""
    while True:
        out += b"".join(lane.to_bytes(8, "little") for lane in lanes[:rate // 8])
        if len(out) >= out_len:
            return out[:out_len]
        lanes = keccak_f1600_reference(lanes)
