"""Warp operator tests: oracle equivalence, exact special cases, modes,
occlusion blending, and the binary parameter dump."""

import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adacof import warp
from adacof.core import sample_grid
from adacof.gradcheck import block_rel_err, fd_gradient
from adacof.model import ModelConfig
from adacof.warp import (ACOF_MAGIC, WarpMode, WarpParams, backward_warp_image_vjp,
                         backward_warp_vjp, forward_warp, identity_params,
                         load_acof, occlusion_blend, project_mode, save_acof)

from oracles import (flow_only_oracle, kernel_only_oracle, per_tap_image_vjp, per_tap_warp,
                     per_tap_warp_vjp, random_instance, shift_then_kernel_oracle, warp_oracle)


def test_forward_matches_oracle_small():
    rng = np.random.default_rng(0)
    for f, d in ((1, 0), (3, 1), (5, 2)):
        image, weights, alpha, beta = random_instance(rng, 6, f, d)
        params = WarpParams(weights, alpha, beta, kernel_size=f, dilation=d)
        got = forward_warp(image, params)
        want = warp_oracle(image, weights, alpha, beta, f, d)
        assert np.abs(got - want).max() < 1e-6


def test_identity_params_are_exact():
    rng = np.random.default_rng(1)
    image = rng.random((3, 8, 9))
    out = forward_warp(image, identity_params(8, 9))
    np.testing.assert_array_equal(out, image)


def test_integer_translation_exact_on_interior():
    rng = np.random.default_rng(2)
    image = rng.random((3, 10, 10))
    h = w = 10
    shift = WarpParams(np.ones((1, h, w)), np.full((1, h, w), 2.0),
                       np.full((1, h, w), -1.0), kernel_size=1, dilation=0)
    out = forward_warp(image, shift)
    np.testing.assert_array_equal(out[:, :8, 1:], image[:, 2:, :9])


def test_subpixel_translation_matches_direct_resample():
    rng = np.random.default_rng(3)
    image = rng.random((3, 9, 9))
    dy, dx = 0.7, -1.3
    params = WarpParams(np.ones((1, 9, 9)), np.full((1, 9, 9), dy),
                        np.full((1, 9, 9), dx), kernel_size=1, dilation=0)
    out = forward_warp(image, params)
    gy, gx = np.meshgrid(np.arange(9.0), np.arange(9.0), indexing="ij")
    want = sample_grid(image, gy + dy, gx + dx)
    assert np.abs(out - want).max() < 1e-6


def test_output_stays_in_input_range():
    rng = np.random.default_rng(4)
    image, weights, alpha, beta = random_instance(rng, 8, 5, 1)
    out = forward_warp(image, WarpParams(weights, alpha, beta, 5, 1))
    assert out.min() >= image.min() - 1e-12
    assert out.max() <= image.max() + 1e-12


def test_accepts_non_float64_input():
    # an image is any (C, H, W) array-like: float32 and nested lists warp
    # as their float64 conversion
    image, weights, alpha, beta = random_instance(np.random.default_rng(5), 6, 3, 1)
    params = WarpParams(weights, alpha, beta, kernel_size=3, dilation=1)
    image = image.astype(np.float32)
    want = forward_warp(image.astype(np.float64), params)
    np.testing.assert_array_equal(forward_warp(image, params), want)
    np.testing.assert_array_equal(forward_warp(image.tolist(), params), want)


def test_thread_counts_are_bit_identical():
    rng = np.random.default_rng(6)
    image, weights, alpha, beta = random_instance(rng, 16, 5, 1)
    params = WarpParams(weights, alpha, beta, 5, 1)
    ref = forward_warp(image, params, threads=1)
    for threads in (2, 3, 4, 8):
        np.testing.assert_array_equal(forward_warp(image, params,
                                                   threads=threads), ref)


def test_validation_rejects_bad_parameters():
    good = identity_params(4, 4)
    with pytest.raises(ValueError):
        WarpParams(np.full((1, 4, 4), 0.9), good.alpha, good.beta, 1, 0).validate()
    with pytest.raises(ValueError):
        WarpParams(-np.ones((1, 4, 4)), good.alpha, good.beta, 1, 0).validate()
    with pytest.raises(ValueError):
        WarpParams(good.weights, np.full((1, 4, 4), np.nan), good.beta,
                   1, 0).validate()
    with pytest.raises(ValueError):
        WarpParams(good.weights, good.alpha, good.beta, 1, -1).validate()
    with pytest.raises(ValueError):
        forward_warp(np.zeros((3, 5, 5)), good)


def _projected(mode, weights, alpha, beta, f=3, d=1):
    """WarpParams of project_mode's maps for mode."""
    (w, a, b), _ = project_mode(mode, weights, alpha, beta)
    return WarpParams(w, a, b, f, d)


def test_kernel_only_mode_matches_adaptive_convolution_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        image, weights, alpha, beta = random_instance(rng, 8, 3, 1)
        params = _projected(WarpMode.KERNEL_ONLY, weights, alpha, beta)
        assert np.all(params.alpha == 0.0) and np.all(params.beta == 0.0)
        got = forward_warp(image, params)
        want = kernel_only_oracle(image, weights, 3, 1)
        assert np.abs(got - want).max() < 1e-6


def test_flow_only_mode_matches_backward_warp_oracle():
    """At F=1, d=0: the kernel an 'fb' ModelConfig keeps, whatever it is asked for."""
    cfg = ModelConfig(kernel_size=5, dilation=2, warp_mode="fb")
    assert (cfg.kernel_size, cfg.dilation) == (1, 0)
    rng = np.random.default_rng(8)
    for _ in range(5):
        image = rng.random((3, 8, 8))
        flow = rng.uniform(-2.0, 2.0, size=(2, 8, 8))
        params = _projected(WarpMode.FLOW_ONLY, np.ones((1, 8, 8)), flow[:1], flow[1:],
                            cfg.kernel_size, cfg.dilation)
        got = forward_warp(image, params)
        want = flow_only_oracle(image, flow)
        assert np.abs(got - want).max() < 1e-6


def test_sdc_mode_matches_shift_then_kernel_oracle():
    """The flow every tap shares is the tap-mean of the raw offsets."""
    rng = np.random.default_rng(9)
    for _ in range(5):
        image, weights, alpha, beta = random_instance(rng, 8, 3, 1)
        params = _projected(WarpMode.SDC, weights, alpha, beta)
        got = forward_warp(image, params)
        flow = np.stack([alpha.mean(axis=0), beta.mean(axis=0)])
        want = shift_then_kernel_oracle(image, weights, flow, 3, 1)
        assert np.abs(got - want).max() < 1e-6


def test_shared_weight_mode_is_spatially_constant():
    rng = np.random.default_rng(10)
    _, weights, alpha, beta = random_instance(rng, 8, 3, 1)
    (w_out, a_out, b_out), _ = project_mode(WarpMode.SHARED_WEIGHT,
                                            weights, alpha, beta)
    assert np.abs(w_out - w_out[:, :1, :1]).max() < 1e-12
    np.testing.assert_allclose(w_out.sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_array_equal(a_out, alpha)


def test_mode_projection_vjps_match_finite_differences():
    rng = np.random.default_rng(11)
    _, weights, alpha, beta = random_instance(rng, 4, 3, 1)
    up_w = rng.normal(size=weights.shape)
    up_a = rng.normal(size=alpha.shape)
    up_b = rng.normal(size=beta.shape)
    for mode in (WarpMode.KERNEL_ONLY, WarpMode.SHARED_WEIGHT, WarpMode.SDC):
        def scalar(w, a, b):
            (wo, ao, bo), _ = project_mode(mode, w, a, b)
            return float((wo * up_w).sum() + (ao * up_a).sum() + (bo * up_b).sum())

        _, vjp = project_mode(mode, weights, alpha, beta)
        gw, ga, gb = vjp(up_w, up_a, up_b)
        h = 1e-6
        for arr, grad, pick in ((weights, gw, 0), (alpha, ga, 1), (beta, gb, 2)):
            idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
            bumped = [weights.copy(), alpha.copy(), beta.copy()]
            bumped[pick][idx] += h
            plus = scalar(*bumped)
            bumped[pick][idx] -= 2 * h
            minus = scalar(*bumped)
            assert grad[idx] == pytest.approx((plus - minus) / (2 * h), abs=1e-6)


@pytest.mark.parametrize("mode", list(WarpMode), ids=lambda m: m.value)
@pytest.mark.parametrize("batch", [(), (2,)], ids=["single", "batched"])
def test_mode_projection_is_its_own_vjp(mode, batch):
    """The vjp is the projection: bit for bit the closed forms sum/hw (ws),
    sum/n (sdc), zero offsets (kb) and identity, and <P x, y> = <x, P y>."""
    rng = np.random.default_rng(13)
    n, h, w = 9, 4, 5
    x = [rng.normal(size=batch + (n, h, w)) for _ in range(3)]
    y = [rng.normal(size=batch + (n, h, w)) for _ in range(3)]
    px, vjp = project_mode(mode, *x)
    py = vjp(*y)
    want = list(y)
    if mode is WarpMode.KERNEL_ONLY:
        want[1:] = [np.zeros_like(y[1]), np.zeros_like(y[2])]
    elif mode is WarpMode.SHARED_WEIGHT:
        want[0] = np.broadcast_to(y[0].sum(axis=(-2, -1), keepdims=True) / (h * w), y[0].shape)
    elif mode is WarpMode.SDC:
        want[1:] = [np.broadcast_to(g.sum(axis=-3, keepdims=True) / n, g.shape) for g in y[1:]]
    for got, expected in zip(py, want):
        assert got.shape == expected.shape and np.array_equal(got, expected)
    lhs = sum(float((p * v).sum()) for p, v in zip(px, y))
    rhs = sum(float((u * p).sum()) for u, p in zip(x, py))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_warp_vjp_matches_directional_derivative():
    rng = np.random.default_rng(12)
    image, weights, alpha, beta = random_instance(rng, 5, 3, 1, channels=1)
    params = WarpParams(weights, alpha, beta, 3, 1)
    upstream = rng.normal(size=image.shape)
    gw, ga, gb = backward_warp_vjp(image, params, upstream)
    h = 1e-6
    da = rng.normal(size=alpha.shape)
    plus = forward_warp(image, WarpParams(weights, alpha + h * da, beta, 3, 1))
    minus = forward_warp(image, WarpParams(weights, alpha - h * da, beta, 3, 1))
    fd = float(((plus - minus) / (2 * h) * upstream).sum())
    assert float((ga * da).sum()) == pytest.approx(fd, rel=1e-4, abs=1e-6)


def _single_tap(image, ys, xs):
    """F=1 instance sampling (C, H, W) image at the maps ys, xs."""
    h, w = ys.shape
    i, j = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64),
                       indexing="ij")
    return WarpParams(np.ones((1, h, w)), (ys - i)[None], (xs - j)[None], 1, 0)


def test_single_tap_offset_gradient_matches_finite_difference():
    rng = np.random.default_rng(3)
    image = rng.random((2, 8, 8))
    # keep coordinates away from the integer kinks
    ys = rng.uniform(0.2, 6.8, size=(8, 8))
    ys += np.where(ys - np.floor(ys) < 0.15, 0.2, 0.0)
    xs = rng.uniform(0.2, 6.8, size=(8, 8))
    xs += np.where(xs - np.floor(xs) < 0.15, 0.2, 0.0)
    params = _single_tap(image, ys, xs)
    upstream = rng.normal(size=image.shape)
    _, ga, gb = backward_warp_vjp(image, params, upstream)
    h = 1e-6

    def shifted(dy, dx):
        return forward_warp(image, _single_tap(image, ys + dy, xs + dx))

    fd_y = ((shifted(h, 0.0) - shifted(-h, 0.0)) / (2 * h) * upstream).sum(axis=0)
    fd_x = ((shifted(0.0, h) - shifted(0.0, -h)) / (2 * h) * upstream).sum(axis=0)
    np.testing.assert_allclose(ga[0], fd_y, atol=1e-6)
    np.testing.assert_allclose(gb[0], fd_x, atol=1e-6)


def test_single_tap_offset_gradient_zero_where_clamped():
    image = np.random.default_rng(4).random((1, 5, 5))
    ys = np.full((5, 5), 2.5)
    xs = np.full((5, 5), 2.5)
    ys[0, 0], ys[0, 1], xs[0, 2] = -2.5, 6.5, -3.0
    _, ga, gb = backward_warp_vjp(image, _single_tap(image, ys, xs), np.ones((1, 5, 5)))
    assert ga[0, 0, 0] == 0.0 and ga[0, 0, 1] == 0.0 and gb[0, 0, 2] == 0.0
    assert ga[0, 2, 2] != 0.0 and gb[0, 2, 2] != 0.0


def _mode_sample(rng, mode, size):
    """An image and the mode's projected params; 'fb' at F=1, d=0, as its model."""
    f, d = (1, 0) if mode is WarpMode.FLOW_ONLY else (3, 1)
    image, weights, alpha, beta = random_instance(rng, size, f, d)
    return image, _projected(mode, weights, alpha, beta, f, d)


def _stacked(params):
    """One batched WarpParams from per-sample ones."""
    return WarpParams(*(np.stack([getattr(p, name) for p in params])
                        for name in ("weights", "alpha", "beta")),
                      params[0].kernel_size, params[0].dilation)


@pytest.mark.parametrize("mode", list(WarpMode), ids=lambda m: m.value)
def test_batched_warp_and_vjps_equal_per_sample_calls(mode):
    rng = np.random.default_rng(16)
    samples = [_mode_sample(rng, mode, 7) for _ in range(3)]
    images = np.stack([image for image, _ in samples])
    params = _stacked([p for _, p in samples])
    upstream = rng.normal(size=images.shape)
    out = forward_warp(images, params)
    grads = backward_warp_vjp(images, params, upstream)
    grad_image = backward_warp_image_vjp(params, upstream)
    for i, (image, p) in enumerate(samples):
        np.testing.assert_array_equal(out[i], forward_warp(image, p))
        for got, want in zip(grads, backward_warp_vjp(image, p, upstream[i])):
            np.testing.assert_array_equal(got[i], want)
        np.testing.assert_array_equal(grad_image[i], backward_warp_image_vjp(p, upstream[i]))


def _random_batch(rng, b, size, f, channels=3):
    """b random_instance samples stacked into (B, C, H, W) images and batched params."""
    samples = [random_instance(rng, size, f, 1, channels) for _ in range(b)]
    return (np.stack([s[0] for s in samples]),
            WarpParams(*(np.stack([s[k] for s in samples]) for k in (1, 2, 3)), f, 1))


def test_batched_warp_thread_counts_are_bit_identical():
    images, params = _random_batch(np.random.default_rng(17), 2, 96, 5)
    np.testing.assert_array_equal(forward_warp(images, params, threads=2),
                                  forward_warp(images, params, threads=1))


def test_batched_image_vjp_matches_finite_differences():
    rng = np.random.default_rng(18)
    images, params = _random_batch(rng, 2, 4, 3, channels=2)
    upstream = rng.normal(size=images.shape)
    numeric = fd_gradient(lambda z: float((forward_warp(z, params) * upstream).sum()),
                          images.copy())
    assert block_rel_err(backward_warp_image_vjp(params, upstream), numeric) < 1e-4


# at B=3, F=5 and 6x5 frames: one-row slices, one tap per block; slices of 4
# and 2 rows (one 6-row slice unbatched, in blocks of 2 taps then 1), one tap
# per block; 7 taps a block (21 unbatched) then a partial tail; all 25 taps in
# one block. Only the first two spread their slices over two threads.
@pytest.mark.parametrize("band_pixels", [1, 60, 630, 10**6],
                         ids=["one-tap", "uneven-slices", "tail", "all-taps"])
def test_tap_blocks_equal_the_per_tap_formula(monkeypatch, band_pixels):
    monkeypatch.setattr(warp, "BAND_PIXELS", band_pixels)
    rng = np.random.default_rng(20)
    b, f, h, w = 3, 5, 6, 5
    weights = rng.random((b, f * f, h, w))
    params = WarpParams(weights / weights.sum(axis=1, keepdims=True),
                        rng.uniform(-3.0, 3.0, (b, f * f, h, w)),
                        rng.uniform(-3.0, 3.0, (b, f * f, h, w)), f, 1)
    images, upstream = rng.random((b, 3, h, w)), rng.normal(size=(b, 3, h, w))
    for threads in (1, 2):
        np.testing.assert_array_equal(forward_warp(images, params, threads=threads),
                                      per_tap_warp(images, params))
        np.testing.assert_array_equal(forward_warp(images[0], params.at(0), threads=threads),
                                      per_tap_warp(images[:1], params.at(slice(0, 1)))[0])
    for got, want in zip(backward_warp_vjp(images, params, upstream),
                         per_tap_warp_vjp(images, params, upstream)):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(backward_warp_vjp(images[0], params.at(0), upstream[0]),
                         per_tap_warp_vjp(images[:1], params.at(slice(0, 1)), upstream[:1])):
        np.testing.assert_array_equal(got, want[0])
    np.testing.assert_array_equal(backward_warp_image_vjp(params, upstream),
                                  per_tap_image_vjp(params, upstream))
    np.testing.assert_array_equal(backward_warp_image_vjp(params.at(0), upstream[0]),
                                  per_tap_image_vjp(params.at(slice(0, 1)), upstream[:1])[0])


def test_forward_warp_samples_eight_taps_per_call_at_32x32(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[1].shape)
        return sample_grid(*args)

    monkeypatch.setattr(warp, "sample_grid", counting)
    image, weights, alpha, beta = random_instance(np.random.default_rng(21), 32, 5, 1)
    forward_warp(image, WarpParams(weights, alpha, beta, 5, 1))
    assert calls == [(1, 8, 32, 32)] * 3 + [(1, 1, 32, 32)]


def test_only_a_call_of_several_slices_starts_a_pool(monkeypatch):
    """A whole 256x256 frame is eight 32-row slices, spread over one pool of
    two threads and bit-identical to one thread; a 32-row band of it is one
    slice, warped on the calling thread."""
    pools = []
    monkeypatch.setattr(warp, "ThreadPoolExecutor",
                        lambda **kw: pools.append(kw) or ThreadPoolExecutor(**kw))
    image, weights, alpha, beta = random_instance(np.random.default_rng(24), 256, 5, 1)
    params = WarpParams(weights, alpha, beta, 5, 1)
    whole = forward_warp(image, params, threads=2)
    assert pools == [{"max_workers": 2}]
    np.testing.assert_array_equal(whole, forward_warp(image, params, threads=1))
    band = WarpParams(weights[:, 64:96], alpha[:, 64:96], beta[:, 64:96], 5, 1)
    np.testing.assert_array_equal(forward_warp(image, band, threads=2, top=64),
                                  whole[:, 64:96])
    assert len(pools) == 1


def test_mismatched_batch_is_rejected():
    _, weights, alpha, beta = random_instance(np.random.default_rng(19), 4, 3, 1)
    params = WarpParams(weights[None], alpha[None], beta[None], 3, 1)
    with pytest.raises(ValueError, match="does not match"):
        forward_warp(np.zeros((2, 3, 4, 4)), params)
    with pytest.raises(ValueError, match="does not match"):
        forward_warp(np.zeros((3, 4, 4)), params)


def _rows(params, r, stop):
    """The batched params' maps on rows r..stop."""
    return WarpParams(*(getattr(params, name)[:, :, r:stop] for name in ("weights", "alpha",
                                                                          "beta")),
                      params.kernel_size, params.dilation)


@pytest.mark.parametrize("rows", [(0, 5), (5, 17), (17, 24), (0, 24)])
def test_row_offset_gives_those_rows_of_the_whole_warp(rows):
    """Maps for rows r..r+n with top=r sample the whole image: the result is
    those rows of the whole-frame warp, batched and single, on 1 or 2 threads."""
    images, params = _random_batch(np.random.default_rng(22), 2, 24, 5)
    r, stop = rows
    band, whole = _rows(params, r, stop), forward_warp(images, params)
    for threads in (1, 2):
        np.testing.assert_array_equal(forward_warp(images, band, threads=threads, top=r),
                                      whole[:, :, r:stop])
        np.testing.assert_array_equal(forward_warp(images[1], band.at(1), threads=threads,
                                                   top=r), whole[1, :, r:stop])


def test_row_offset_past_the_image_is_rejected():
    images, params = _random_batch(np.random.default_rng(23), 1, 8, 3)
    band = _rows(params, 0, 4)
    forward_warp(images, band, top=4)
    for top in (5, -1):
        with pytest.raises(ValueError, match=f"does not match params maps .* from row {top}"):
            forward_warp(images, band, top=top)
    with pytest.raises(ValueError, match="does not match"):  # the VJPs take whole-frame maps
        backward_warp_vjp(images, band, np.zeros_like(images))


def test_occlusion_blend_formula_and_half_map_average():
    rng = np.random.default_rng(13)
    fwd = rng.random((3, 4, 4))
    bwd = rng.random((3, 4, 4))
    v = rng.uniform(0, 1, size=(4, 4))
    out = occlusion_blend(fwd, bwd, v)
    np.testing.assert_allclose(out, v[None] * fwd + (1 - v[None]) * bwd)
    # the constant 1/2 map of 'woocc' is the plain average, bit for bit
    half = occlusion_blend(fwd, bwd, np.full_like(v, 0.5))
    np.testing.assert_array_equal(half, 0.5 * (fwd + bwd))
    for bad in (v + 2.0, np.where(v > 0.5, np.nan, v)):
        with pytest.raises(ValueError, match="must lie in"):
            occlusion_blend(fwd, bwd, bad)
    with pytest.raises(ValueError):
        occlusion_blend(fwd, bwd[:, :2], v)


def test_acof_roundtrip(tmp_path):
    rng = np.random.default_rng(15)
    _, weights, alpha, beta = random_instance(rng, 6, 3, 2)
    params = WarpParams(weights, alpha, beta, 3, 2)
    occ = rng.uniform(0, 1, size=(6, 6))
    path = tmp_path / "p.acof"
    save_acof(path, params, occ)
    back, occ_back = load_acof(path)
    assert back.kernel_size == 3 and back.dilation == 2
    # float32 storage precision
    assert np.abs(back.weights - weights).max() < 1e-6
    assert np.abs(back.alpha - alpha).max() < 1e-6
    assert np.abs(occ_back - occ).max() < 1e-6


def test_acof_rejects_garbage(tmp_path):
    path = tmp_path / "bad.acof"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError):
        load_acof(path)


def _acof_bytes(fields, payload):
    """An .acof file: magic, the (version, F, d, H, W) header, float32 payload."""
    return ACOF_MAGIC + struct.pack("<5I", *fields) + np.asarray(payload, "<f4").tobytes()


@pytest.mark.parametrize("fields, message", [
    ((1, 1, 0, 0, 4), "header declares F=1 at 0x4"),
    ((1, 1, 0, 4, 0), "header declares F=1 at 4x0"),
    ((1, 2**32 - 1, 0, 0, 0), f"header declares F={2**32 - 1} at 0x0"),
    ((1, 0, 0, 2, 2), "header declares F=0 at 2x2"),
], ids=["zero-height", "zero-width", "huge-kernel-no-pixels", "zero-kernel"])
def test_acof_header_out_of_range_names_file(tmp_path, fields, message):
    path = tmp_path / "bad.acof"
    path.write_bytes(_acof_bytes(fields, np.full(4, 0.5)))
    with pytest.raises(ValueError) as exc:
        load_acof(path)
    assert str(exc.value).startswith(f"{path}: {message}; F and both sides must be at least 1")


def test_acof_with_weights_off_the_simplex_names_file(tmp_path):
    path = tmp_path / "bad.acof"
    path.write_bytes(_acof_bytes((1, 1, 0, 1, 1), [0.5, 0.0, 0.0, 0.5]))
    with pytest.raises(ValueError) as exc:
        load_acof(path)
    assert str(exc.value) == f"{path}: kernel weights must sum to 1 at every pixel"


@st.composite
def mutated_acof(draw):
    """A valid .acof of F <= 3 at up to 4x4 after one or two mutations: cut,
    extended, a byte flipped, or a header field (version, F, d, H, W)
    rewritten, with the payload refit to a small new header."""
    f, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random((f * f, h, w))
    fields = [1, f, draw(st.integers(0, 2)), h, w]
    payload = np.concatenate([(weights / weights.sum(axis=0)).ravel(),
                              rng.normal(size=2 * f * f * h * w), rng.random(h * w)])
    kinds = draw(st.lists(st.sampled_from(["cut", "extend", "flip", "field"]),
                          min_size=1, max_size=2))
    if "field" in kinds:
        fields[draw(st.integers(0, 4))] = draw(st.one_of(
            st.sampled_from([0, 1, 2, 2**16, 2**32 - 1]), st.integers(0, 2**32 - 1)))
        size = (3 * fields[1] ** 2 + 1) * fields[3] * fields[4]
        if size <= 256:
            payload = np.resize(payload, size)
    data = _acof_bytes(fields, payload)
    for kind in kinds:
        if kind == "cut":
            data = data[:-draw(st.integers(1, len(data)))]
        elif kind == "extend":
            data += draw(st.binary(min_size=1, max_size=8))
        elif kind == "flip" and data:
            i = draw(st.integers(0, len(data) - 1))
            data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
    return data


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=mutated_acof())
def test_load_acof_gives_valid_params_or_names_the_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.acof"
    path.write_bytes(data)
    try:
        params, occ = load_acof(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    params.validate()
    assert occ.shape == (params.height, params.width)
    assert occ.min() >= 0.0 and occ.max() <= 1.0
