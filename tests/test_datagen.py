"""Synthetic triplet generator tests: ground-truth consistency."""

import math

import numpy as np
import pytest

from adacof.datagen import (MotionSpec, Triplet, augment, generate_triplet,
                            load_triplet, random_spec, read_manifest,
                            save_triplet, smooth_texture, write_dataset)
from adacof.warp import WarpParams, forward_warp


def test_smooth_texture_range_and_determinism():
    t1 = smooth_texture(np.random.default_rng(0), 3, 16, 16)
    t2 = smooth_texture(np.random.default_rng(0), 3, 16, 16)
    np.testing.assert_array_equal(t1, t2)
    assert t1.min() >= 0.05 - 1e-12 and t1.max() <= 0.95 + 1e-12


def test_integer_translation_middle_frame_is_exact_shift():
    spec = MotionSpec(displacement=(2.0, -2.0))
    t = generate_triplet(spec, 24, seed=0)
    first, middle = t.first, t.middle
    # middle(p) = first(p + disp/2): compare shifted interiors
    np.testing.assert_allclose(middle[:, :-1, 1:], first[:, 1:, :-1], atol=1e-12)


def _assert_first_warped_by_truth_is_middle(t):
    """On the interior, the first frame warped by the truth flow (an F=1
    warp) is the middle frame."""
    params = WarpParams(np.ones((1,) + t.flow.shape[1:]), t.flow[0:1], t.flow[1:2],
                        kernel_size=1, dilation=0)
    warped = forward_warp(t.first, params)
    interior = (slice(None), slice(3, -3), slice(3, -3))
    assert np.abs(warped[interior] - t.middle[interior]).max() < 1e-6


def test_middle_frame_matches_truth_flow_warp():
    # warping the first frame by the stored truth flow reproduces the
    # middle frame almost exactly for smooth translational motion
    spec = MotionSpec(displacement=(1.3, -0.6))
    _assert_first_warped_by_truth_is_middle(generate_triplet(spec, 24, seed=1))


@pytest.mark.parametrize("spec", [
    MotionSpec(kind="rotation", angle_deg=-7.0),
    MotionSpec(kind="rotation", angle_deg=5.0, displacement=(1.0, -0.8)),
], ids=["rotation", "rotation-and-shift"])
def test_rotation_middle_frame_matches_truth_flow_warp(spec):
    """The first frame warped by the truth flow is the middle frame: both
    sample the texture where one rotation and shift put each pixel."""
    t = generate_triplet(spec, 24, seed=11)
    _assert_first_warped_by_truth_is_middle(t)
    assert np.abs(t.flow).max() > 0.5


def test_flow_is_the_half_step_rotation_and_shift():
    """flow = R(theta/2) r - r + shift/2, r the pixel's offset from the centre."""
    size, angle, shift = 20, 6.0, np.array([0.7, -0.4])
    t = generate_triplet(MotionSpec(kind="rotation", angle_deg=angle, displacement=tuple(shift)),
                         size, seed=12)
    half = math.radians(angle) / 2.0
    rot = np.array([[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]])
    r = np.indices((size, size), dtype=np.float64) - (size - 1) / 2.0
    want = np.einsum("ij,jyx->iyx", rot, r) - r + shift[:, None, None] / 2.0
    np.testing.assert_allclose(t.flow, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(t.occlusion, 0.5)


@pytest.mark.parametrize("kind", ["global_translation", "occluder"])
def test_only_a_rotation_reads_its_angle(kind):
    """A translation or occluder spec with an angle renders as with angle 0."""
    turned = generate_triplet(MotionSpec(kind=kind, displacement=(1.5, -1.0), angle_deg=9.0),
                              24, seed=13)
    still = generate_triplet(MotionSpec(kind=kind, displacement=(1.5, -1.0)), 24, seed=13)
    for name in ("first", "middle", "last", "flow", "occlusion"):
        np.testing.assert_array_equal(getattr(turned, name), getattr(still, name))


def test_translation_truth_values():
    spec = MotionSpec(displacement=(2.0, 1.0))
    t = generate_triplet(spec, 16, seed=2)
    np.testing.assert_allclose(t.flow[0], 1.0)
    np.testing.assert_allclose(t.flow[1], 0.5)
    np.testing.assert_allclose(t.occlusion, 0.5)


def test_rotation_flow_is_antisymmetric_about_center():
    spec = MotionSpec(kind="rotation", angle_deg=4.0)
    t = generate_triplet(spec, 16, seed=3)
    fy = t.flow[0]
    # rotating the frame 180 degrees negates the displacement field
    np.testing.assert_allclose(fy, -fy[::-1, ::-1], atol=1e-9)
    assert np.abs(t.flow).max() > 0.0


def test_occluder_truth_partitions():
    spec = MotionSpec(kind="occluder", displacement=(0.0, 3.0),
                      occluder_size=6, occluder_pos=(5.0, 2.0))
    t = generate_triplet(spec, 20, seed=4)
    occ = t.occlusion
    assert set(np.unique(occ)) <= {0.0, 0.5, 1.0}
    assert (occ == 1.0).any() and (occ == 0.0).any()
    # background visible only in the first frame must take it fully (V=1)
    # and the flow there is zero (static background)
    np.testing.assert_allclose(t.flow[:, occ == 1.0], 0.0)


def test_occluder_flow_is_half_its_displacement_on_the_square():
    """The square's flow at t = 1/2 is displacement/2; the background's is 0."""
    dy, dx = 1.0, -2.5
    spec = MotionSpec(kind="occluder", displacement=(dy, dx), occluder_size=7,
                      occluder_pos=(6.0, 9.0))
    t = generate_triplet(spec, 24, seed=14)
    ys, xs = np.indices((24, 24))
    square = ((ys >= 6.0 + dy / 2) & (ys < 13.0 + dy / 2)
              & (xs >= 9.0 + dx / 2) & (xs < 16.0 + dx / 2))
    assert square.sum() == 49
    np.testing.assert_array_equal(t.flow[0][square], dy / 2)
    np.testing.assert_array_equal(t.flow[1][square], dx / 2)
    np.testing.assert_array_equal(t.flow[:, ~square], 0.0)
    np.testing.assert_array_equal(t.occlusion[square], 0.5)


def test_motion_exceeding_cap_rejected():
    with pytest.raises(ValueError):
        generate_triplet(MotionSpec(displacement=(5.0, 0.0)), 16, seed=0)
    with pytest.raises(ValueError):
        generate_triplet(MotionSpec(), 8, seed=0)
    with pytest.raises(ValueError):
        MotionSpec(kind="zoom")


def test_cap_bounds_a_rotation_plus_a_shift_by_their_sum():
    """A 3 px shift and a turn whose corner arc is 3 px move a corner's
    sampling coordinate past 3 px: the cap adds the two, not their max."""
    radius = math.hypot(16.0, 16.0)  # the farthest pixel from a 32x32 frame's centre
    turn = math.degrees(3.0 / radius)
    with pytest.raises(ValueError, match="exceeds the configured maximum 3.0"):
        generate_triplet(MotionSpec(kind="rotation", displacement=(3.0, 0.0), angle_deg=turn),
                         32, seed=0)
    for shift, arc in ((3.0, 0.0), (0.0, 2.99), (1.5, 1.4)):
        spec = MotionSpec(kind="rotation", displacement=(shift, 0.0),
                          angle_deg=math.degrees(arc / radius))
        generate_triplet(spec, 32, seed=0)


def test_augment_flip_consistency():
    spec = MotionSpec(displacement=(1.5, -1.0))
    t = generate_triplet(spec, 16, seed=5)
    # find a seed whose draw flips horizontally only, no swap
    for seed in range(200):
        rng = np.random.default_rng(seed)
        rng.integers(0, 1 + 16 - 16)  # crop y (degenerate)
        rng.integers(0, 1)
        draws = rng.random(3)
        if draws[0] < 0.5 and draws[1] >= 0.5 and draws[2] >= 0.5:
            a = augment(t, seed)
            np.testing.assert_array_equal(a.first, t.first[:, :, ::-1])
            np.testing.assert_array_equal(a.last, t.last[:, :, ::-1])
            assert a.flow is None and a.occlusion is None
            return
    pytest.fail("no horizontal-flip-only seed found")


def test_augment_swap_consistency():
    spec = MotionSpec(displacement=(1.5, -1.0))
    t = generate_triplet(spec, 16, seed=6)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        rng.integers(0, 1)
        rng.integers(0, 1)
        draws = rng.random(3)
        if draws[0] >= 0.5 and draws[1] >= 0.5 and draws[2] < 0.5:
            a = augment(t, seed)
            np.testing.assert_array_equal(a.first, t.last)
            np.testing.assert_array_equal(a.last, t.first)
            np.testing.assert_array_equal(a.middle, t.middle)
            assert a.flow is None and a.occlusion is None
            return
    pytest.fail("no swap-only seed found")


def test_augment_draws_crop_flips_and_swap_in_order():
    """The frames of each seed's draws (crop corner, horizontal flip,
    vertical flip, swap); no motion truth comes back."""
    t = generate_triplet(MotionSpec(kind="occluder", displacement=(1.0, 2.0)), 24, seed=3)
    for seed in range(16):
        rng = np.random.default_rng(seed)
        y0, x0 = rng.integers(0, 9), rng.integers(0, 9)
        frames = [f[:, y0:y0 + 16, x0:x0 + 16] for f in (t.first, t.middle, t.last)]
        for axis in (2, 1):
            if rng.random() < 0.5:
                frames = [np.flip(f, axis) for f in frames]
        if rng.random() < 0.5:
            frames = frames[::-1]
        a = augment(t, seed, crop=16)
        for got, want in zip((a.first, a.middle, a.last), frames):
            np.testing.assert_array_equal(got, want)
            assert got.flags.c_contiguous
        assert a.flow is None and a.occlusion is None


def test_augment_crop_shapes():
    t = generate_triplet(MotionSpec(displacement=(1.0, 1.0)), 24, seed=7)
    a = augment(t, 0, crop=16)
    assert a.first.shape == a.middle.shape == a.last.shape == (3, 16, 16)
    with pytest.raises(ValueError):
        augment(t, 0, crop=32)


@pytest.mark.parametrize("h, w", [(16, 32), (32, 16)], ids=["wide", "tall"])
def test_augment_without_a_crop_keeps_the_whole_frame(h, w):
    """crop=None, training's crop 0, keeps all h x w pixels of a non-square
    frame, and draws as a square frame's whole-frame crop does: a corner from
    one choice per axis, then the flips and the swap."""
    rng = np.random.default_rng(30)
    t = Triplet(*rng.random((3, 3, h, w)))
    for seed in range(8):
        draws = np.random.default_rng(seed)
        assert draws.integers(0, 1) == 0 and draws.integers(0, 1) == 0
        frames = [t.first, t.middle, t.last]
        for axis in (2, 1):
            if draws.random() < 0.5:
                frames = [np.flip(f, axis) for f in frames]
        if draws.random() < 0.5:
            frames = frames[::-1]
        a = augment(t, seed)
        for got, want in zip((a.first, a.middle, a.last), frames):
            np.testing.assert_array_equal(got, want)


def test_random_spec_respects_cap():
    rng = np.random.default_rng(8)
    for _ in range(50):
        spec = random_spec(rng, 3.0, 32)
        t = generate_triplet(spec, 32, seed=0)  # would raise if above cap
        assert t.first.shape == (3, 32, 32)


def test_save_load_roundtrip(tmp_path):
    t = generate_triplet(MotionSpec(displacement=(1.0, -2.0)), 16, seed=9)
    save_triplet(tmp_path / "t0", t)
    back = load_triplet(tmp_path / "t0")
    # frames go through 8-bit quantization
    assert np.abs(back.first - t.first).max() <= 0.5 / 255.0
    assert np.abs(back.flow - t.flow).max() < 1e-6
    assert np.abs(back.occlusion - t.occlusion).max() < 1e-6


def test_load_triplet_names_frames_of_different_sizes(tmp_path):
    t = generate_triplet(MotionSpec(displacement=(1.0, 0.5)), 32, seed=15)
    save_triplet(tmp_path / "t0", Triplet(t.first, t.middle[:, :28], t.last, t.flow, t.occlusion))
    with pytest.raises(ValueError) as exc:
        load_triplet(tmp_path / "t0")
    assert str(exc.value) == (f"{tmp_path / 't0'}: frames are 32x32, 28x32, 32x32; "
                              "a triplet's three frames must have one size")


def test_write_dataset_manifest(tmp_path):
    names = write_dataset(tmp_path, 5, 16, 2.0, seed=3)
    assert names == [f"{i:04d}" for i in range(5)]
    assert read_manifest(tmp_path) == names
    t = load_triplet(tmp_path / "0002")
    assert t.first.shape == (3, 16, 16)
