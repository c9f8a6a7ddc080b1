import pytest

from neqrseg import ImageGray, read_image_pgm, write_image_pgm
from oracles import image_from_rows


def test_image_validation():
    with pytest.raises(ValueError, match="pixels"):
        ImageGray(1, 3, (0, 1, 2))
    with pytest.raises(ValueError, match="fit in 2 bits"):
        ImageGray(1, 2, (0, 1, 2, 4))
    with pytest.raises(ValueError, match="q must be"):
        ImageGray(1, 0, (0, 0, 0, 0))


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(ValueError, match="2 rows need 2 values each"):
        image_from_rows([[1, 2, 3], [0]], 2)
    with pytest.raises(ValueError, match="2 rows need 2 values each"):
        image_from_rows([[1, 2], [0]], 2)


def test_image_accessors(sample_4x4):
    assert sample_4x4.side == 4
    assert sample_4x4.max_value == 7
    assert sample_4x4.get(0, 0) == 3
    assert sample_4x4.get(3, 3) == 7
    assert sample_4x4.get(1, 2) == 0
    with pytest.raises(IndexError):
        sample_4x4.get(4, 0)
    assert sample_4x4.rows()[1] == (2, 3, 0, 1)
    assert image_from_rows([list(r) for r in sample_4x4.rows()], 3) == sample_4x4


def test_single_pixel_image():
    img = ImageGray(0, 4, (9,))
    assert img.side == 1
    assert img.get(0, 0) == 9


def test_pgm_round_trip(sample_4x4):
    data = write_image_pgm(sample_4x4)
    assert read_image_pgm(data) == sample_4x4
    assert data.startswith(b"P2\n4 4\n7\n")


def test_pgm_accepts_comments_and_odd_whitespace():
    text = "P2 # magic\n# full comment line\n 2 2\n3\n0 1\n2 3 # trailing\n"
    img = read_image_pgm(text)
    assert img == ImageGray(1, 2, (0, 1, 2, 3))


def test_pgm_accepts_bytes_and_str():
    text = "P2\n1 1\n1\n1\n"
    assert read_image_pgm(text) == read_image_pgm(text.encode())


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("P5\n2 2\n3\n0 0 0 0\n", "not a plain PGM"),
        ("P2\n2 4\n3\n" + "0 " * 8, "square"),
        ("P2\n3 3\n3\n" + "0 " * 9, "power of two"),
        ("P2\n2 2\n6\n0 0 0 0\n", "2\\^q - 1"),
        ("P2\n2 2\n3\n0 0 0\n", "expected 4 pixel"),
        ("P2\n2 2\n3\n0 0 0 0 0\n", "trailing"),
        ("P2\n2 2\n3\n0 0 0 9\n", "outside"),
        ("P2\n2 2\n3\n0 0 0 x\n", "malformed pixel"),
        ("P2\n2 two\n3\n0 0 0 0\n", "malformed PGM header"),
        ("P2\n2 2\n", "truncated"),
        ("", "not a plain PGM"),
        # int() takes each of these; plain PGM numbers are ASCII [0-9]+ only
        pytest.param("P2 1 1 1 +1", "malformed pixel", id="sign"),
        pytest.param("P2 \u0661 \u0661 \u0663 \u0663", "malformed PGM header", id="arabic-indic"),
        pytest.param("P2 2 2 1_5 1 2 3 4", "malformed PGM header", id="underscore"),
        pytest.param("P2 1 1 1 \uff11", "malformed pixel", id="fullwidth"),
    ],
)
def test_pgm_rejects_bad_input(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        read_image_pgm(text)


def test_written_form_is_row_per_line(sample_2x2):
    assert write_image_pgm(sample_2x2) == b"P2\n2 2\n255\n0 100\n200 255\n"
