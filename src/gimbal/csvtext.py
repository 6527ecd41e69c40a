"""CSV rows as bytes, computed a block of columns at a time in numpy.

A float is written as Python's ``repr`` writes it: the shortest decimal
that reads back as the same double, the closest to it when several are
that short and the even one of two equally close, in fixed notation for a
decimal exponent in [-4, 16) and as ``d.ddde±XX`` otherwise, ``-0.0``,
``inf`` and ``-inf`` included. NaN is an empty field. An integer or a
boolean is written in decimal digits. Text is passed in already laid out as
a (rows, width) byte matrix, padded with PAD.

No Python object is made per cell. The digits come from Schubfach (R.
Giulietti, "The Schubfach way to render doubles", 2020): a double
c 2**q is multiplied, in 32-bit limbs on uint64 arrays, by a 126-bit
upper approximation g of 10**-k for the k with 10**k at most the spacing of
the doubles around it. The product, rounded to odd, decides exactly which
multiples of 10**k and 10**(k+1) lie in the interval of decimals that read
back as the double; at most one multiple of 10**(k+1) does, and it is then
the shortest. Each cell is then laid out by gathering its bytes (17 digits,
3 exponent digits and a few constants) through a template chosen by its
sign, notation, decimal point position and digit count, and a row is its
cells' bytes with the pad dropped. A table written after another of the
same layout patches that table's padded rows: only the cells that differ
from it are rendered, of every kind of column.
"""

from __future__ import annotations

import math

import numpy as np

# a byte that UTF-8 text never holds: a cell's bytes are padded with it to
# the width of its column's matrix, and dropped when the rows are joined
PAD = 0xFF

_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_MANTISSA = (1 << 52) - 1
_ABS = np.uint64((1 << 63) - 1)
_INF_BITS = np.uint64(0x7FF << 52)
_CRLF = np.frombuffer(b"\r\n", dtype=np.uint8)
_POW10 = np.array([10 ** p for p in range(18)], dtype=np.uint64)


def _schubfach_tables():
    """(k, h, g, k_min). Per biased exponent (0..2047) and spacing (regular,
    then irregular: a power of two above the smallest normal, whose lower
    neighbour is half as far): k = floor(log10(w)) for the width w of the
    interval of decimals that read back as the double (2**q, or 3/4 of it
    when irregular), and the shift h with 4 c 2**h g 2**-127 ~ 4 c 2**q
    10**-k. Per k from k_min: g = floor(10**-k 2**(125 - beta)) + 1 for
    beta = floor(log2(10**-k)), as _rop takes it: a (5, k) uint64 array
    of g's limbs, so that one take gathers a cell's five.

    k and beta are taken in float64: none of the products q log10(2),
    q log10(2) + log10(3/4) and k log2(10) of these ranges lies within 1e-5 of
    an integer (unless it is 0), far above their rounding error. g is exact,
    from Python integers.
    """
    q = np.maximum(np.arange(2048), 1) - 1075
    log_w = q * math.log10(2.0)
    k = np.floor(np.concatenate([log_w, log_w + math.log10(0.75)])).astype(np.int64)
    k_min = int(k.min())
    limbs, betas = [], []
    for kk in range(k_min, int(k.max()) + 1):
        beta = math.floor(-kk * math.log2(10.0))
        if kk <= 0:
            shift = 125 - beta
            g = (10 ** -kk << shift if shift >= 0 else 10 ** -kk >> -shift) + 1
        else:
            g = (1 << (125 - beta)) // 10 ** kk + 1
        g1, g0 = g >> 63, g & _M63
        limbs.append((g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32))
        betas.append(beta)
    h = np.concatenate([q, q]) + np.array(betas)[k - k_min] + 2
    return k.astype(np.int16), h.astype(np.uint8), np.array(limbs, dtype=np.uint64).T.copy(), k_min


_K, _H, _G, _K_MIN = _schubfach_tables()


def _high(hi, lo, ch, cl):
    """The high 64 bits of (hi 2**32 + lo)(ch 2**32 + cl), each of the four
    uint64 limbs below 2**32, from products of the limbs, in place."""
    lh, hl, mid, out = lo * ch, hi * cl, lo * cl, hi * ch
    mid >>= 32
    for part in (lh, hl):
        out += part >> 32
        part &= _M32
        mid += part
    mid >>= 32
    out += mid
    return out


def _rop(g, cp):
    """floor(cp g 2**-127) for g = g1 2**63 + g0 and cp < 2**60, rounded to
    odd: its low bit is set when the bits below it are not all zero. g is
    (g1, g1's high and low 32 bits, g0's high and low 32 bits), uint64
    arrays as cp is. cp is overwritten."""
    g1, g1h, g1l, g0h, g0l = g
    ch = cp >> 32
    cl = cp & _M32
    # g1 cp wraps to its low 64 bits
    z = np.multiply(g1, cp, out=cp)
    z >>= 1
    z += _high(g0h, g0l, ch, cl)
    y1 = _high(g1h, g1l, ch, cl)
    y1 += z >> 63
    z &= _M63
    y1 |= z != 0
    return y1


def _significand(bits):
    """(c, irregular, at) of each double of the uint64 bits: its integer
    significand, 1 where it is a power of two above the smallest normal (its
    lower neighbour is half as far as its upper one), else 0, and its row of
    the per-exponent tables."""
    exponent = (bits >> 52) & 0x7FF
    fraction = bits & _MANTISSA
    irregular = ((fraction == 0) & (exponent > 1)).astype(np.uint64)
    c = np.where(exponent > 0, fraction | (1 << 52), fraction)
    return c, irregular, (exponent | (irregular << 11)).astype(np.intp)


def _scaled(bits):
    """(vb, vbl, vbr, k) for each finite non-zero double of the uint64 bits:
    its value and the ends of the interval of decimals that read back as it,
    times 4 10**-k and rounded to odd (_rop); an end is moved in by one unit
    when it does not read back itself (an odd significand: reading rounds
    half to even). Undefined elsewhere."""
    c, irregular, at = _significand(bits)
    k = _K[at]
    g = np.take(_G, k - _K_MIN, axis=1)
    h = _H[at]
    odd = c & 1
    cb = c << 2
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - 2 + irregular) << h) + odd
    vbr = _rop(g, (cb + 2) << h) - odd
    return vb, vbl, vbr, k.astype(np.intp)


def _shortest(bits):
    """(dec, k): |x| = dec 10**k read back, dec < 10**17 the shortest such
    integer significand, for each finite non-zero double of the uint64 bits;
    undefined elsewhere."""
    vb, vbl, vbr, k = _scaled(bits)
    s = vb >> 2
    # one multiple of 10**(k+1) at most reads back: the one below or above
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    upin = vbl <= sp10 << 2
    wpin = tp10 << 2 <= vbr
    # else those of 10**k, the closer if both read back, the even one on a tie
    t1 = s + 1
    uin = vbl <= s << 2
    win = t1 << 2 <= vbr
    mid = (s + t1) << 1
    take_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & 1) == 0)))
    return np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(take_s, s, t1)), k


def _digit_groups(values):
    """The leading digit and the four groups of 4 digits after it (an
    (n, 4) array, each group as a number) of each value < 10**17, zero-filled
    on the left to 17 digits."""
    high = values // _POW10[8]
    low = (values - high * _POW10[8]).astype(np.uint32)
    lead = high // _POW10[8]
    high = (high - lead * _POW10[8]).astype(np.uint32)
    groups = np.empty((len(values), 4), dtype=np.uint32)
    for at, part in ((0, high), (2, low)):
        np.floor_divide(part, 10_000, out=groups[:, at])
        np.subtract(part, groups[:, at] * 10_000, out=groups[:, at + 1])
    return lead.astype(np.intp), groups


def _group_tables():
    """Per number below 10**4: its 4 digits as a word (a group of 4 digits,
    or the leading digit then the exponent's 3 digits, by lead * 1000 +
    |exponent|), and its trailing zeros as a group of 4 digits."""
    numbers = np.arange(10_000, dtype=np.uint16)
    digits = numbers[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")
    zeros = sum((numbers % 10 ** p == 0).astype(np.uint8) for p in (1, 2, 3, 4))
    return digits.astype(np.uint8).view(np.uint32).reshape(-1), zeros


_GROUP_TEXT, _GROUP_ZEROS = _group_tables()

# A float cell's text is gathered, through a template chosen by its shape,
# from 32 source bytes, written as eight words: the 16 digits after its
# leading one, then the leading digit and the exponent's 3 digits (a 17-digit
# significand, zero-filled on the right), then constants.
_DIGIT_AT = [16, *range(16)]  # the byte of the i-th significant digit
_EXPONENT_AT = [17, 18, 19]
_ZERO, _POINT, _MINUS, _PLUS, _E, _INF = 20, 21, 22, 23, 24, 25
_PAD_AT = 28
_CONSTANT_WORDS = np.frombuffer(b"0.-+einf\xff\xff\xff\xff", dtype=np.uint8).view(np.uint32)

# shapes: fixed notation, the decimal point after decpt digits (decpt in
# [-3, 16]) for each digit count; d.ddde±XX for each digit count, exponent
# sign and exponent width (2 or 3); 0.0; inf; NaN. The same again negative.
_DECPT_MIN, _DECPT_MAX = -3, 16
_FIXED = (_DECPT_MAX - _DECPT_MIN + 1) * 17
_EXPONENT = _FIXED + 17 * 4
_ZERO_SHAPE, _INF_SHAPE, _NAN_SHAPE = _EXPONENT, _EXPONENT + 1, _EXPONENT + 2
_SHAPES = _EXPONENT + 3
_WIDTH = 24


def _template(shape):
    """The source bytes of a float cell's text, by its shape, padded to _WIDTH."""
    neg, body = divmod(shape, _SHAPES)
    if body < _FIXED:
        decpt, ndig = divmod(body, 17)
        decpt += _DECPT_MIN
        ndig += 1
        if decpt <= 0:
            chars = [_ZERO, _POINT] + [_ZERO] * -decpt + _DIGIT_AT[:ndig]
        else:
            chars = _DIGIT_AT[:decpt] + [_POINT] + _DIGIT_AT[decpt:max(ndig, decpt + 1)]
    elif body < _EXPONENT:
        ndig, rest = divmod(body - _FIXED, 4)
        exp_neg, three = divmod(rest, 2)
        mantissa = _DIGIT_AT[:1] + ([_POINT, *_DIGIT_AT[1:ndig + 1]] if ndig else [])
        chars = mantissa + [_E, _MINUS if exp_neg else _PLUS] + _EXPONENT_AT[1 - three:]
    elif body == _ZERO_SHAPE:
        chars = [_ZERO, _POINT, _ZERO]
    elif body == _INF_SHAPE:
        chars = [_INF, _INF + 1, _INF + 2]
    else:
        chars = []
    chars = [_MINUS] * (neg and body != _NAN_SHAPE) + chars
    return chars + [_PAD_AT] * (_WIDTH - len(chars))


_TEMPLATES = np.array([_template(shape) for shape in range(2 * _SHAPES)], dtype=np.uint8)
_TEMPLATE_LEN = (_TEMPLATES != _PAD_AT).sum(axis=1)
_GATHER_CELLS = 2048


def _source_and_shape(bits):
    """The 32 source bytes (as eight words) and the template shape of each
    double of the uint64 bits."""
    magnitude = bits & _ABS
    dec, k = _shortest(bits)
    dec[(magnitude == 0) | (magnitude >= _INF_BITS)] = 1
    nd = np.searchsorted(_POW10, dec, side="right")
    lead, groups = _digit_groups(dec * _POW10[17 - nd])
    # the value is 0.ddd 10**decpt, and decpt - 1 its exponent in d.ddde+XX
    decpt = k + nd
    exp_abs = np.abs(decpt - 1)
    source = np.empty((len(bits), 8), dtype=np.uint32)
    source[:, :4] = _GROUP_TEXT[groups]
    source[:, 4] = _GROUP_TEXT[lead * 1000 + exp_abs]
    source[:, 5:] = _CONSTANT_WORDS
    # significant digits: 17 less the trailing zeros, counted group by group
    zeros = _GROUP_ZEROS[groups[:, 3]]
    for j in (2, 1, 0):
        zeros += (zeros == 4 * (3 - j)) * _GROUP_ZEROS[groups[:, j]]
    ndig = 17 - zeros.astype(np.intp)
    fixed = (decpt >= _DECPT_MIN) & (decpt <= _DECPT_MAX)
    shape = np.where(fixed, (decpt - _DECPT_MIN) * 17 + ndig - 1,
                     _FIXED + (ndig - 1) * 4 + (decpt < 1) * 2 + (exp_abs >= 100))
    shape[magnitude == 0] = _ZERO_SHAPE
    shape[magnitude == _INF_BITS] = _INF_SHAPE
    shape[magnitude > _INF_BITS] = _NAN_SHAPE
    shape += (bits >> 63).astype(np.intp) * _SHAPES
    return source, shape


def float_text(block):
    """The text of every float of block as a (*block.shape, width) uint8
    array, padded with PAD; width is the longest text's."""
    bits = np.ascontiguousarray(block, dtype=np.float64).reshape(-1).view(np.uint64)
    source, shape = _source_and_shape(bits)
    width = int(_TEMPLATE_LEN[shape].max(initial=0))
    text = np.empty((len(bits), width), dtype=np.uint8)
    # the byte indices (8 bytes per text byte) are made _GATHER_CELLS cells at a time
    for start in range(0, len(bits), _GATHER_CELLS):
        cells = slice(start, start + _GATHER_CELLS)
        at = np.take(_TEMPLATES[:, :width], shape[cells], axis=0).astype(np.intp)
        at += np.arange(32 * start, 32 * (start + len(at)), 32)[:, None]
        np.take(source.view(np.uint8).reshape(-1), at, out=text[cells])
    return text.reshape(*np.shape(block), width)


def int_text(column):
    """The decimal text of each integer (|value| < 10**17) or boolean (0 or
    1) of column, as a (len(column), width) uint8 matrix padded with PAD."""
    values = np.asarray(column).astype(np.int64)
    neg = values < 0
    magnitude = np.abs(values).astype(np.uint64)
    nd = np.maximum(np.searchsorted(_POW10, magnitude, side="right"), 1)
    lead, groups = _digit_groups(magnitude * _POW10[17 - nd])
    # a minus sign, the 17 digits, and a pad byte
    full = np.empty((len(values), 19), dtype=np.uint8)
    full[:, 0] = ord("-")
    full[:, 1] = lead + ord("0")
    full[:, 2:-1] = _GROUP_TEXT[groups].view(np.uint8)
    full[:, -1] = PAD
    length = nd + neg
    width = int(length.max(initial=0))
    text = np.where(neg[:, None], full[:, :width], full[:, 1:width + 1])
    text[np.arange(width) >= length[:, None]] = PAD
    return text


def text_matrix(texts):
    """The UTF-8 bytes of each text as a (len(texts), width) uint8 matrix,
    padded with PAD; width is the longest text's."""
    encoded = [text.encode("utf-8") for text in texts]
    width = max(map(len, encoded), default=0)
    padded = b"".join(text.ljust(width, bytes([PAD])) for text in encoded)
    return np.frombuffer(padded, dtype=np.uint8).reshape(len(encoded), width)


def _key(column):
    """A column's cell keys, equal where two cells' text is: a float's bits
    (so -0.0 and 0.0 differ, and NaNs of unequal payloads), an integer's or a
    boolean's value, a text row's bytes; a view of the column where the
    dtype allows."""
    if column.ndim == 2:
        return column
    if column.dtype.kind == "f":
        return np.asarray(column, dtype=np.float64).view(np.uint64)
    return np.asarray(column, dtype=np.int64)


def _texts(keys, picks):
    """The text of each column's cells at its picked rows, from its keys: all
    the float cells by one float_text call, the integers by int_text, the
    text rows as they are."""
    bits = [key[pick] for key, pick in zip(keys, picks) if key.dtype == np.uint64]
    if bits:
        text = float_text(np.concatenate(bits).view(np.float64))
        floats = iter(np.split(text, np.cumsum([len(cells) for cells in bits[:-1]])))
    return [next(floats) if key.dtype == np.uint64 else int_text(key[pick]) if key.ndim == 1 else key[pick]
            for key, pick in zip(keys, picks)]


def rows(columns, prev=None):
    """The CSV rows of equal-length columns as bytes, in each row the
    columns' fields joined by "," and ended by "\r\n", and the state by
    which the next table's block at the same place reuses them: (bytes,
    state).

    A column is a 1-D array of floats (float_text), of integers or booleans
    (int_text), or a 2-D uint8 matrix of text as text_matrix lays it out. The
    state is the block's padded row matrix, each column's slot in it (start
    and width) and each column's cell keys (_key). prev is the previous
    table's state for the block at the same place, or None; its matrix is
    taken over, and its columns must be as they were written. When the
    columns have the same kinds, row count and text widths as prev's, only
    the cells whose keys differ from prev's are rendered (_texts) and written
    over their slots, unless a text is wider than its slot; otherwise the
    block is built afresh.
    """
    keys = [_key(column) for column in columns]
    patch = prev is not None and [(k.dtype, k.shape) for k in keys] == [(k.dtype, k.shape) for k in prev[2]]
    if patch:
        out, slots, prev_keys = prev
        picks = [np.flatnonzero(key != old if key.ndim == 1 else (key != old).any(axis=1))
                 for key, old in zip(keys, prev_keys)]
        texts = _texts(keys, picks)
        patch = all(text.shape[1] <= width for text, (_, width) in zip(texts, slots))
    if not patch:
        picks = [slice(None)] * len(keys)
        texts = _texts(keys, picks)
        # each field's slot is followed by its separator; the pad is dropped
        starts = np.cumsum([0] + [text.shape[1] + 1 for text in texts])
        slots = [(start, text.shape[1]) for start, text in zip(starts.tolist(), texts)]
        out = np.empty((len(keys[0]), starts[-1] + 1), dtype=np.uint8)
        out[:, starts[1:] - 1] = ord(",")
        out[:, -2:] = _CRLF
    for pick, text, (start, width) in zip(picks, texts, slots):
        out[pick, start:start + text.shape[1]] = text
        out[pick, start + text.shape[1]:start + width] = PAD
    return out[out != PAD].tobytes(), (out, slots, keys)
