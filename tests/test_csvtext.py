import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gimbal import csvtext


def oracle(values):
    """The rows of one float column as the csv module writes repr: NaN (in
    any payload) an empty field."""
    return "".join(repr(v) + "\r\n" if v == v else "\r\n" for v in np.asarray(values).tolist()).encode()


def written(values, block=8192):
    """The rows of one float column, formatted a block of cells at a time."""
    values = np.asarray(values, dtype=np.float64)
    return b"".join(csvtext.rows([values[i:i + block]])[0] for i in range(0, len(values), block))


def from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def neighbours(values):
    """Each finite value and the doubles 1 ulp below and above it."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def test_random_bit_patterns_match_repr():
    # 80 * 2**17 > 1e7 patterns, one chunk at a time
    rng = np.random.default_rng(20)
    for _ in range(80):
        x = from_bits(rng.integers(0, 2 ** 64, 1 << 17, dtype=np.uint64, endpoint=False))
        assert written(x) == oracle(x)


def test_subnormals_match_repr():
    smallest_normal = np.finfo(np.float64).smallest_normal
    mantissas = np.concatenate([np.arange(1, 1 << 16), (1 << 52) - np.arange(1, 1 << 16),
                                np.random.default_rng(21).integers(1, 1 << 52, 1 << 16)])
    x = from_bits(mantissas)
    x = np.concatenate([x, -x, [5e-324, np.nextafter(smallest_normal, 0.0), smallest_normal]])
    assert written(x) == oracle(x)
    assert written([5e-324, np.nextafter(smallest_normal, 0.0), smallest_normal]) == (
        b"5e-324\r\n2.225073858507201e-308\r\n2.2250738585072014e-308\r\n")


def test_powers_of_two_and_ten_and_their_neighbours_match_repr():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    x = neighbours(np.concatenate([twos, tens]))
    x = np.concatenate([x, -x])
    assert written(x) == oracle(x)


def test_both_sides_of_the_notation_switches():
    x = neighbours([9999999999999998.0, 1e16, 0.0001, 9.999999999999999e-05])
    assert written(x) == oracle(x)
    assert written([9999999999999998.0, 1e16, 0.0001, 9.999999999999999e-05]) == (
        b"9999999999999998.0\r\n1e+16\r\n0.0001\r\n9.999999999999999e-05\r\n")


def test_special_values_and_every_digit_count_match_repr():
    nan_payload = from_bits([0x7FF8000000000001])[0]
    biggest = np.finfo(np.float64).max
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, nan_payload, -math.nan, biggest, -biggest]
    assert written(special) == (b"0.0\r\n-0.0\r\ninf\r\n-inf\r\n\r\n\r\n\r\n"
                                b"1.7976931348623157e+308\r\n-1.7976931348623157e+308\r\n")
    # 1 to 17 significant digits at exponents across the normal range
    rng = np.random.default_rng(22)
    x = [float(f"{rng.integers(10 ** (d - 1), 10 ** d)}e{e}")
         for d in range(1, 18) for e in range(-307, 290, 7)]
    assert written(x) == oracle(x)
    digits = {len(repr(v).split("e")[0].replace("-", "").replace(".", "").strip("0")) for v in x}
    assert digits == set(range(1, 18))


def test_ties_round_to_the_even_digit():
    # halfway between two 17-digit decimals, both of which read back
    x = [1125899906842624.25, 1125899906842624.75]
    assert written(x) == b"1125899906842624.2\r\n1125899906842624.8\r\n" == oracle(x)


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_any_float_matches_repr(values):
    assert written(values) == oracle(values)


def test_float_text_keeps_the_block_shape():
    block = np.array([[1.5, -0.0, math.nan], [1e300, 2.0, -math.inf]])
    text = csvtext.float_text(block)
    assert text.shape[:2] == block.shape
    assert [bytes(cell[cell != csvtext.PAD]) for cell in text.reshape(6, -1)] == [
        b"1.5", b"-0.0", b"", b"1e+300", b"2.0", b"-inf"]
    assert csvtext.float_text(np.empty((0, 3))).shape == (0, 3, 0)


def test_schubfach_tables_are_exact():
    # k = floor(log10(w)) for the interval width w (2**q, or 3/4 of it below
    # a power of two), and (g - 1) 2**r <= 10**-k < g 2**r with g in
    # [2**125, 2**126), r = beta - 125 and h = q + beta + 2, against Python
    # integers
    g1, _, _, g0h, g0l = (limb.tolist() for limb in csvtext._G)
    for at in range(4096):
        irregular, bq = divmod(at, 2048)
        q = max(bq, 1) - 1075
        width = Fraction(3, 4) * Fraction(2) ** q if irregular else Fraction(2) ** q
        k = int(csvtext._K[at])
        assert Fraction(10) ** k <= width < Fraction(10) ** (k + 1)
        row = k - csvtext._K_MIN
        g = g1[row] << 63 | g0h[row] << 32 | g0l[row]
        assert 1 << 125 <= g < 1 << 126
        r = Fraction(2) ** (int(csvtext._H[at]) - q - 2 - 125)
        assert (g - 1) * r <= Fraction(10) ** -k < g * r


def test_int_text_and_text_matrix():
    ints = np.array([0, 7, 10, -1, -99, 10 ** 16, 12345678901234567, -12345678901234567])
    assert csvtext.rows([ints])[0] == "".join(f"{v}\r\n" for v in ints.tolist()).encode()
    assert csvtext.rows([np.array([True, False])])[0] == b"1\r\n0\r\n"
    texts = ["", "a", "ünï", "x\x00y", "日本"]
    matrix = csvtext.text_matrix(texts)
    assert matrix.shape == (5, 6)
    assert csvtext.rows([matrix, np.arange(5)])[0] == "".join(
        f"{t},{i}\r\n" for i, t in enumerate(texts)).encode()
    assert csvtext.text_matrix([]).shape == (0, 0)


@pytest.mark.parametrize("n", [1, 3])
def test_rows_join_every_kind_of_column(n):
    floats = np.linspace(-1.0, 1.0, n)
    matrix = csvtext.text_matrix(["b"] * n)
    out, _ = csvtext.rows([np.arange(n), matrix, floats, floats > 0, np.full(n, math.nan)])
    assert out == "".join(f"{i},b,{v!r},{int(v > 0)},\r\n" for i, v in enumerate(floats.tolist())).encode()


NAN_PAYLOAD = float(from_bits([0x7FF8000000000001])[0])
EDGE_FLOATS = [0.0, -0.0, math.nan, NAN_PAYLOAD, math.inf, -math.inf, 5e-324,
               float(np.nextafter(np.finfo(np.float64).smallest_normal, 0.0)), 1e16, 9.999999999999999e-05]
CELLS = {"f": st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()), "i": st.integers(-10 ** 6, 10 ** 6),
         "b": st.booleans(), "t": st.text(max_size=3)}


@st.composite
def table_chains(draw):
    """(kinds, tables): 2 to 4 tables of the same row count and column kinds
    ("f" float, "i" integer, "b" boolean, "t" text), each but the first the
    one before it with some cells redrawn, so that most cells repeat, an
    integer column at times gains a digit and a text column changes width."""
    n = draw(st.integers(1, 6))
    kinds = draw(st.text("fibt", min_size=1, max_size=5))
    tables = [[draw(st.lists(CELLS[kind], min_size=n, max_size=n)) for kind in kinds]]
    for _ in range(draw(st.integers(1, 3))):
        table = [list(values) for values in tables[-1]]
        for kind, values in zip(kinds, table):
            for row in draw(st.lists(st.integers(0, n - 1), max_size=n)):
                values[row] = draw(CELLS[kind])
        tables.append(table)
    return kinds, tables


def as_column(kind, values):
    if kind == "t":
        return csvtext.text_matrix(values)
    return np.array(values, dtype={"f": np.float64, "i": np.int64, "b": bool}[kind])


@settings(max_examples=300, deadline=None)
@given(table_chains())
# an index gains a digit, a text column widens, a float outgrows its slot
@example(("itf", [[[8, 9], ["a", "b"], [0.0, 1.0]], [[9, 10], ["a", "b"], [-0.0, 1.0]],
                  [[9, 10], ["ab", "b"], [NAN_PAYLOAD, 1.0]], [[9, 10], ["ab", "b"], [NAN_PAYLOAD, 0.125]]]))
# cells change within their slots: a digit lost, equal-width text, the other NaN
@example(("ibtf", [[[10, -1], [True, False], ["ü", "ab"], [math.nan, 5e-324]],
                   [[9, -1], [False, False], ["ab", "ü"], [NAN_PAYLOAD, 1e16]]]))
def test_tables_chained_through_their_state_equal_each_table_written_alone(chain):
    kinds, tables = chain
    state = None
    for table in tables:
        columns = [as_column(kind, values) for kind, values in zip(kinds, table)]
        text, state = csvtext.rows(columns, state)
        assert text == csvtext.rows(columns)[0]
