"""Image file round-trip tests."""

import numpy as np
import pytest

from adacof.core import Frame
from adacof.ppm import read_ppm, write_ppm


def test_ppm_roundtrip_on_grid_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    px = rng.integers(0, 256, size=(3, 5, 7)).astype(np.float64) / 255.0
    path = tmp_path / "img.ppm"
    write_ppm(path, Frame(px))
    back = read_ppm(path)
    np.testing.assert_array_equal(back.pixels, px)


def test_ppm_double_roundtrip_is_stable(tmp_path):
    rng = np.random.default_rng(1)
    frame = Frame(rng.random((3, 6, 6)))
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_ppm(p1, frame)
    once = read_ppm(p1)
    write_ppm(p2, once)
    assert p1.read_bytes()[p1.read_bytes().index(b"255"):] == \
        p2.read_bytes()[p2.read_bytes().index(b"255"):]
    np.testing.assert_array_equal(read_ppm(p2).pixels, once.pixels)


def test_quantization_rounds_half_up(tmp_path):
    # 0.5/255 rounds up to 1, values just below round down to 0
    vals = np.array([[[0.0, 0.5 / 255.0, 0.49 / 255.0, 1.0]]])
    path = tmp_path / "q.ppm"
    write_ppm(path, vals)
    back = read_ppm(path)
    np.testing.assert_array_equal(back.pixels[0, 0] * 255.0, [0, 1, 0, 255])


def test_gray_frame_written_as_rgb(tmp_path):
    gray = Frame(np.linspace(0, 1, 16).reshape(1, 4, 4))
    path = tmp_path / "g.ppm"
    write_ppm(path, gray)
    back = read_ppm(path)
    assert back.channels == 3
    np.testing.assert_array_equal(back.pixels[0], back.pixels[1])


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.ppm"
    body = bytes([10, 20, 30] * 4)
    path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + body)
    frame = read_ppm(path)
    assert frame.shape == (3, 2, 2)


def test_wrong_magic_raises(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P3\n1 1\n255\n000")
    with pytest.raises(ValueError) as exc:
        read_ppm(path)
    assert str(path) in str(exc.value) and "not a binary PPM (P6)" in str(exc.value)


def test_cut_header_names_file(tmp_path):
    path = tmp_path / "cut.ppm"
    path.write_bytes(b"P6\n4")
    with pytest.raises(ValueError) as exc:
        read_ppm(path)
    msg = str(exc.value)
    assert str(path) in msg and "header is cut short" in msg


def test_non_numeric_header_names_file(tmp_path):
    path = tmp_path / "word.ppm"
    path.write_bytes(b"P6\n4 x\n255\n")
    with pytest.raises(ValueError) as exc:
        read_ppm(path)
    assert str(path) in str(exc.value) and "malformed" in str(exc.value)


def test_trailing_bytes_name_file_and_count(tmp_path):
    path = tmp_path / "long.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12 + 5))
    with pytest.raises(ValueError) as exc:
        read_ppm(path)
    msg = str(exc.value)
    assert str(path) in msg and "5 bytes follow the 2x2 pixel data" in msg


def test_truncated_file_names_file_and_sizes(tmp_path):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n4 3\n255\n" + bytes(20))
    with pytest.raises(ValueError) as exc:
        read_ppm(path)
    msg = str(exc.value)
    assert str(path) in msg and "4x3" in msg and "36 bytes" in msg
    assert "only 20 bytes" in msg
