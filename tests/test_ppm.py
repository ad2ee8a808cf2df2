"""Image file round-trip tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adacof.ppm import read_ppm, write_ppm


def test_ppm_roundtrip_on_grid_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    px = rng.integers(0, 256, size=(3, 5, 7)).astype(np.float64) / 255.0
    path = tmp_path / "img.ppm"
    write_ppm(path, px)
    back = read_ppm(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, px)


def test_ppm_double_roundtrip_is_stable(tmp_path):
    rng = np.random.default_rng(1)
    frame = rng.random((3, 6, 6))
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_ppm(p1, frame)
    once = read_ppm(p1)
    write_ppm(p2, once)
    assert p1.read_bytes()[p1.read_bytes().index(b"255"):] == \
        p2.read_bytes()[p2.read_bytes().index(b"255"):]
    np.testing.assert_array_equal(read_ppm(p2), once)


def test_quantization_rounds_half_up(tmp_path):
    # 0.5/255 rounds up to 1, values just below round down to 0
    vals = np.array([[[0.0, 0.5 / 255.0, 0.49 / 255.0, 1.0]]])
    path = tmp_path / "q.ppm"
    write_ppm(path, vals)
    back = read_ppm(path)
    np.testing.assert_array_equal(back[0, 0] * 255.0, [0, 1, 0, 255])


def test_gray_frame_written_as_rgb(tmp_path):
    gray = np.linspace(0, 1, 16).reshape(4, 4)
    path = tmp_path / "g.ppm"
    write_ppm(path, gray)
    back = read_ppm(path)
    assert back.shape == (3, 4, 4)
    np.testing.assert_array_equal(back[0], back[1])


@pytest.mark.parametrize("image, message", [
    (np.zeros((2, 4, 4)), "got shape (2, 4, 4)"),
    (np.zeros((3, 0, 4)), "got shape (3, 0, 4)"),
    (np.full((1, 4, 4), np.nan), "image contains non-finite values"),
    (np.full((3, 4, 4), np.inf), "image contains non-finite values"),
], ids=["two-channels", "zero-height", "nan", "inf"])
def test_write_ppm_refuses_what_no_ppm_holds(tmp_path, image, message):
    path = tmp_path / "bad.ppm"
    with pytest.raises(ValueError) as exc:
        write_ppm(path, image)
    assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)
    assert not path.exists()


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


@pytest.mark.parametrize("header, message", [
    (b"P6\n0 4\n255\n", "declares a 0x4 image; both sides must be at least 1"),
    (b"P6\n4 0\n255\n", "declares a 4x0 image; both sides must be at least 1"),
    # past int()'s 4300-digit limit, which raises without naming the file
    (b"P6\n" + b"1" * 5000 + b" 4\n255\n", "each of 1-10 digits"),
], ids=["zero-width", "zero-height", "5000-digit-width"])
def test_header_sizes_out_of_range_name_file(tmp_path, header, message):
    path = tmp_path / "sides.ppm"
    path.write_bytes(header)
    with pytest.raises(ValueError) as exc:
        read_ppm(path)
    msg = str(exc.value)
    assert msg.startswith(f"{path}: ") and message in msg


@st.composite
def mutated_ppm(draw):
    """A valid P6 file of up to 4x4 pixels after one or two mutations: cut,
    extended, a byte flipped, or its width, height or maxval rewritten."""
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    fields = [b"%d" % w, b"%d" % h, b"255"]
    body = draw(st.binary(min_size=3 * h * w, max_size=3 * h * w))
    kinds = draw(st.lists(st.sampled_from(["cut", "extend", "flip", "field"]),
                          min_size=1, max_size=2))
    if "field" in kinds:
        fields[draw(st.integers(0, 2))] = draw(
            st.text("0123456789", min_size=1, max_size=12)).encode()
        size = 3 * int(fields[0]) * int(fields[1])
        if size <= 192:  # at most 64 pixels: refit the data to the new header
            body = (body + bytes(size))[:size]
    data = b"P6\n%s %s\n%s\n" % tuple(fields) + body
    for kind in kinds:  # cuts and flips counted from the end, where the pixels are
        if kind == "cut" and data:
            data = data[:-draw(st.integers(1, len(data)))]
        elif kind == "extend":
            data += draw(st.binary(min_size=1, max_size=8))
        elif kind == "flip" and data:
            i = len(data) - draw(st.integers(1, len(data)))
            data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
    return data


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=mutated_ppm())
def test_read_ppm_gives_a_valid_image_or_names_the_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.ppm"
    path.write_bytes(data)
    try:
        image = read_ppm(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert image.dtype == np.float64 and image.ndim == 3 and image.shape[0] == 3
    assert min(image.shape[1:]) >= 1
    assert image.min() >= 0.0 and image.max() <= 1.0
