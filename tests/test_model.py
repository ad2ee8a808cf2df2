"""Parameter-estimator network tests."""

import json
import struct
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from adacof import nn, train, warp
from adacof.cli import main
from adacof.losses import Discriminator
from adacof.model import (HEAD_NAMES, ModelConfig, SynthModel, _box5, load_checkpoint,
                          motion_features, param_shapes, save_checkpoint, synthesize)
from adacof.ppm import read_ppm, write_ppm
from adacof.train import infer
from adacof.warp import (WarpMode, WarpParams, backward_warp_vjp, forward_warp,
                         occlusion_blend, occlusion_blend_vjp, project_mode, save_acof)


def _tiny_config(**kw):
    base = dict(kernel_size=3, dilation=1, depth=2, widths=(6, 8), seed=0)
    base.update(kw)
    return ModelConfig(**base)


def test_output_shapes_and_constraints():
    cfg = _tiny_config()
    model = SynthModel(cfg)
    x = np.random.default_rng(0).random((2, 6, 16, 16))
    head, _ = model.forward(x)
    assert head.shape == (2, 6 * 9 + 1, 16, 16)
    _, (pf, pb, occ), _ = synthesize(cfg, head, x)
    assert pf.weights.shape == (2, 9, 16, 16)
    assert occ.shape == (2, 16, 16)
    np.testing.assert_allclose(pf.weights.sum(axis=1), 1.0, atol=1e-12)
    assert pb.weights.min() > 0.0
    assert 0.0 < occ.min() and occ.max() < 1.0


def test_untrained_model_emits_neutral_parameters():
    # zero-initialized heads: uniform weights, zero offsets, v = 0.5
    cfg = _tiny_config()
    model = SynthModel(cfg)
    x = np.random.default_rng(1).random((1, 6, 16, 16))
    _, (pf, _, occ), _ = synthesize(cfg, model.forward(x)[0], x)
    np.testing.assert_allclose(pf.weights, 1.0 / 9.0, atol=1e-12)
    np.testing.assert_allclose(pf.alpha, 0.0, atol=1e-12)
    np.testing.assert_allclose(occ, 0.5, atol=1e-12)


def test_head_is_one_convolution_stacked_in_head_names_order():
    cfg = _tiny_config()
    model = SynthModel(cfg)
    assert model.params["head.w"].shape == (6 * 9 + 1, 6, 3, 3)
    assert sorted(n for n in model.params if n.startswith("head")) == ["head.b", "head.w"]
    # with a zero head kernel, every output channel is its own bias value
    bias = np.arange(6 * 9 + 1) / 10.0
    model.params["head.b"] = bias
    x = np.random.default_rng(9).random((1, 6, 16, 16))
    _, (pf, pb, occ), _ = synthesize(cfg, model.forward(x)[0], x)
    maps = {f"{group}_{d}": getattr(p, attr) for d, p in (("f", pf), ("b", pb))
            for group, attr in (("weight", "weights"), ("alpha", "alpha"), ("beta", "beta"))}
    maps["occ"] = occ[:, None]
    for name, group in zip(HEAD_NAMES, np.split(bias, [9, 18, 27, 36, 37, 46])):
        if name == "occ":
            group = 1.0 / (1.0 + np.exp(-group[0]))
        elif name.startswith("weight"):
            group = np.exp(group) / np.exp(group).sum()
        np.testing.assert_allclose(maps[name][0][..., 5, 3], group, rtol=1e-12,
                                   err_msg=name)


def test_batch_elements_are_independent():
    cfg = _tiny_config()
    model = SynthModel(cfg)
    rng = np.random.default_rng(2)
    for name in model.params:
        model.params[name] = rng.normal(0, 0.3, size=model.params[name].shape)
    x1 = rng.random((1, 6, 16, 16))
    x2 = rng.random((1, 6, 16, 16))
    both, _ = model.forward(np.concatenate([x1, x2]))
    solo1, _ = model.forward(x1)
    solo2, _ = model.forward(x2)
    np.testing.assert_array_equal(both[0], solo1[0])
    np.testing.assert_array_equal(both[1], solo2[0])


def test_input_validation():
    model = SynthModel(_tiny_config())
    with pytest.raises(ValueError):
        model.forward(np.zeros((1, 4, 16, 16)))
    with pytest.raises(ValueError):
        model.forward(np.zeros((1, 6, 15, 16)))
    with pytest.raises(ValueError):
        ModelConfig(kernel_size=3, depth=2, widths=(4,))


@pytest.mark.parametrize("depth", [1, 3])
def test_networks_call_the_nn_primitives_through_the_module(monkeypatch, depth):
    """Each stage looks its op up on adacof.nn as it runs, so a wrapper
    installed there (as a tracer installs one) sees every conv and relu."""
    calls = {"conv3x3": 0, "relu": 0}
    for op in calls:
        def counted(*args, op=op, original=getattr(nn, op)):
            calls[op] += 1
            return original(*args)
        monkeypatch.setattr(nn, op, counted)
    model = SynthModel(_tiny_config(depth=depth, widths=(4, 6, 8)[:depth]))
    model.forward(np.zeros((1, 6, 8, 8)))
    assert calls == {"conv3x3": 2 * depth + 2, "relu": 2 * depth + 1}
    Discriminator().forward(np.zeros((6, 8, 8)))
    assert calls == {"conv3x3": 2 * depth + 5, "relu": 2 * depth + 3}


def test_sample_params_validate():
    model = SynthModel(_tiny_config())
    x = np.random.default_rng(3).random((1, 6, 16, 16))
    _, (pf, pb, _), _ = synthesize(model.config, model.forward(x)[0], x)
    pf.validate()
    pb.validate()
    assert pf.weights.shape == (1, 9, 16, 16)


def _random_model(seed, **kw):
    model = SynthModel(_tiny_config(**kw))
    rng = np.random.default_rng(seed)
    for name in model.params:
        model.params[name] = rng.normal(0, 0.3, size=model.params[name].shape)
    return model, rng.random((3, 6, 16, 16))


@pytest.mark.parametrize("mode", list(WarpMode), ids=lambda m: m.value)
def test_synthesize_matches_per_pair_composition(mode):
    """Frames, warp params, occ and the head gradient equal the per-pair
    softmax and sigmoid -> project_mode -> forward_warp x2 -> occlusion_blend
    composition for the config's warp_mode, at its kernel size and dilation
    ('fb' takes F=1, d=0 though asked for F=3). 'woocc' blends with a
    constant 1/2 map: the plain average, 1/2 of the upstream on each warp,
    and an exactly zero occ gradient."""
    occ_on = mode is not WarpMode.NO_OCCLUSION
    model, x = _random_model(6, warp_mode=mode.value)
    cfg = model.config
    assert (cfg.kernel_size, cfg.dilation) == ((1, 0) if mode is WarpMode.FLOW_ONLY else (3, 1))
    head, _ = model.forward(x)
    frames, (pf, pb, occ), synth_vjp = synthesize(cfg, head, x)
    upstream = np.random.default_rng(8).normal(size=frames.shape)
    g_head = synth_vjp(upstream)
    assert frames.shape == (3, 3, 16, 16) and g_head.shape == head.shape
    cuts = np.cumsum(cfg.head_sizes)[:-1]
    raw = dict(zip(HEAD_NAMES, np.split(head, cuts, axis=1)))
    got_grads = dict(zip(HEAD_NAMES, np.split(g_head, cuts, axis=1)))
    directions = (("weight_f", "alpha_f", "beta_f"), ("weight_b", "alpha_b", "beta_b"))
    for i in range(3):
        images = (x[i, :3], x[i, 3:])
        params, vjps, softmax_vjps = [], [], []
        for names, got_p in zip(directions, (p.at(i) for p in (pf, pb))):
            w, softmax_vjp = nn.softmax_channels(raw[names[0]][i:i + 1])
            (w, a, b), vjp = project_mode(mode, w[0], *(raw[n][i] for n in names[1:]))
            assert all(np.array_equal(got, want) for got, want in
                       ((got_p.weights, w), (got_p.alpha, a), (got_p.beta, b)))
            params.append(WarpParams(w, a, b, cfg.kernel_size, cfg.dilation))
            vjps.append(vjp)
            softmax_vjps.append(softmax_vjp)
        sig, sigmoid_vjp = nn.sigmoid(raw["occ"][i])
        assert np.array_equal(occ[i], sig[0])
        warped = [forward_warp(img, p) for img, p in zip(images, params)]
        v = sig[0] if occ_on else np.full_like(sig[0], 0.5)
        assert np.array_equal(frames[i], occlusion_blend(*warped, v))
        *g_warped, g_occ = occlusion_blend_vjp(*warped, v, upstream[i])
        if not occ_on:
            assert np.array_equal(frames[i], 0.5 * (warped[0] + warped[1]))
            assert all(np.array_equal(g, 0.5 * upstream[i]) for g in g_warped)
        want = {"occ": sigmoid_vjp(g_occ[None]) if occ_on else np.zeros((1, 16, 16))}
        for names, img, p, g, vjp, softmax_vjp in zip(directions, images, params, g_warped,
                                                      vjps, softmax_vjps):
            g_w, g_a, g_b = vjp(*backward_warp_vjp(img, p, g))
            want.update(zip(names, (softmax_vjp(g_w[None])[0], g_a, g_b)))
        for name in HEAD_NAMES:
            assert np.array_equal(got_grads[name][i], want[name]), name
    assert occ_on or not got_grads["occ"].any()


def test_synthesize_threads_are_bit_identical():
    model, x = _random_model(7)
    head, _ = model.forward(x)
    serial, _, _ = synthesize(model.config, head, x, threads=1)
    threaded, _, _ = synthesize(model.config, head, x, threads=2)
    assert np.array_equal(serial, threaded)


@pytest.mark.parametrize("depth", [2, 3])
def test_network_vjp_matches_directional_differences(depth):
    """<grad, v> against a central difference along a random direction v,
    for every tensor, at depths whose backward pass pairs skip gradients
    across levels. The loss sum <U, raw head output> has no warp, so no
    sampler kinks."""
    cfg = _tiny_config(depth=depth, widths=(4, 6, 8)[:depth])
    model = SynthModel(cfg)
    rng = np.random.default_rng(depth)
    for name in model.params:
        model.params[name] = rng.normal(0, 0.3, size=model.params[name].shape)
    x = rng.random((1, 6, 8, 8))
    head, tape = model.forward(x)
    upstream = rng.normal(size=head.shape)

    def loss(params):
        return float((SynthModel(cfg, params).forward(x)[0] * upstream).sum())

    grads = model.backward(tape, upstream)
    h = 1e-5
    for name, p in sorted(model.params.items()):
        v = rng.normal(size=p.shape)
        numeric = (loss({**model.params, name: p + h * v})
                   - loss({**model.params, name: p - h * v})) / (2 * h)
        analytic = float((grads[name] * v).sum())
        assert abs(numeric - analytic) < 1e-5 * max(abs(numeric), abs(analytic)), name


def test_motion_features_recover_translation_direction():
    # a translating texture should produce a flow estimate whose dominant
    # component points the right way over most of the frame
    rng = np.random.default_rng(4)
    tex = rng.random((3, 40, 40))
    kernel = np.ones(3) / 3.0
    for _ in range(4):
        for axis in (1, 2):
            tex = np.apply_along_axis(
                lambda m: np.convolve(m, kernel, mode="same"), axis, tex)
    first = tex[:, 4:36, 4:36]
    last = tex[:, 6:38, 4:36]  # shifted down by 2 in y
    x = np.concatenate([first, last])[None]
    feats = motion_features(x)
    assert feats.shape == (1, 5, 32, 32)
    fy = feats[0, 3, 8:24, 8:24]
    # backward flow from first toward last is negative y here
    assert np.median(fy) < -0.5


@settings(max_examples=60, derandomize=True, deadline=None)
@given(b=st.integers(1, 3), h=st.integers(1, 12), w=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_box5_matches_the_sliding_window_sum(b, h, w, seed):
    """Bit-identical to the two-axis sum of a 5x5 sliding-window view, which
    reduces each window row by row in the separable order. At w = 1 the
    padded rows are five wide, so numpy sees each window as one contiguous
    run of 25 and sums it pairwise: there the two agree to rounding only.
    The network never sees w = 1, since its sides are multiples of 2^depth."""
    rng = np.random.default_rng(seed)
    img = rng.normal(size=(b, h, w)) * rng.exponential(size=(b, h, w)) ** 3
    padded = np.pad(img, ((0, 0), (2, 2), (2, 2)), mode="edge")
    want = sliding_window_view(padded, (5, 5), axis=(1, 2)).sum(axis=(3, 4))
    if w > 1:
        np.testing.assert_array_equal(_box5(img), want)
    else:
        bound = 25 * np.finfo(float).eps * sliding_window_view(
            abs(padded), (5, 5), axis=(1, 2)).sum(axis=(3, 4))
        assert np.all(abs(_box5(img) - want) <= bound)


def test_infer_does_not_hold_the_whole_im2col():
    """One 128x128 infer at the acceptance config stays below 60 MiB of
    traced allocations: conv3x3 builds its forward im2col one row band at
    a time, and its vjp keeps the padded input instead of the im2col. The
    whole-frame im2col kept by every layer peaked at 105 MiB."""
    model = SynthModel(ModelConfig(kernel_size=5, dilation=1, depth=2, widths=(8, 16)))
    rng = np.random.default_rng(3)
    first, last = rng.random((2, 3, 128, 128))
    tracemalloc.start()
    try:
        infer(model, first, last)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _acceptance_model(warp_mode="adacof", seed=4):
    """An acceptance-config model whose heads are non-zero, so that its kernels
    are not uniform and its offsets reach a few pixels."""
    model = SynthModel(ModelConfig(kernel_size=5, dilation=1, depth=2, widths=(8, 16),
                                   warp_mode=warp_mode))
    rng = np.random.default_rng(seed)
    model.params["head.w"] = rng.normal(0.0, 0.1, model.params["head.w"].shape)
    return model


def _whole_frame_infer(model, first, last):
    """infer composed from the whole network: forward, then synthesize."""
    x = np.concatenate([first, last])[None]
    frames, (pf, pb, occ), _ = synthesize(model.config, model.forward(x)[0], x)
    return frames[0], pf.at(0), pb.at(0), occ[0]


@pytest.mark.parametrize("mode, h, w, bands", [
    ("adacof", 32, 32, [32]),
    ("adacof", 40, 256, [32, 8]),
    ("adacof", 96, 512, [16] * 6),
    ("sdc", 40, 256, [32, 8]),
    ("woocc", 40, 256, [32, 8]),
    ("ws", 40, 256, [40]),  # the shared weights are a whole-frame mean: one band
])
def test_banded_inference_equals_the_whole_frame_network(monkeypatch, mode, h, w, bands):
    """infer and interpolate run the head, its activations and the warp in
    bands of rows; their frame and maps equal the whole-frame composition's."""
    model = _acceptance_model(mode)
    first, last = np.random.default_rng(6).random((2, 3, h, w))
    seen = []

    def recording(config, head, x, threads=1, top=0):
        seen.append(head.shape[2])
        return synthesize(config, head, x, threads, top=top)

    monkeypatch.setattr(train, "synthesize", recording)
    got = train.infer(model, first, last)
    assert seen == bands
    want = _whole_frame_infer(model, first, last)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[3], want[3])
    for p, q in zip(got[1:3], want[1:3]):
        for name in ("weights", "alpha", "beta"):
            np.testing.assert_array_equal(getattr(p, name), getattr(q, name))
    np.testing.assert_array_equal(train.interpolate(model, first, last), want[0])


def test_interp_files_equal_the_whole_frame_network(tmp_path):
    """adacof interp at 40x256 (bands of 32 and 8 rows), on 1 and 2 threads:
    the PPM, with or without --dump-params, and both dumps are the bytes the
    whole-frame composition writes."""
    ckpt, paths = tmp_path / "model.ackp", [tmp_path / "f0.ppm", tmp_path / "f1.ppm"]
    save_checkpoint(ckpt, _acceptance_model())
    for path, frame in zip(paths, np.random.default_rng(8).random((2, 3, 40, 256))):
        write_ppm(path, frame)
    frame, pf, pb, v = _whole_frame_infer(load_checkpoint(ckpt), *map(read_ppm, paths))
    write_ppm(tmp_path / "want.ppm", frame)
    save_acof(tmp_path / "want.acof", pf, v)
    save_acof(tmp_path / "want.bwd.acof", pb, v)
    for threads in ("1", "2"):
        argv = ["interp", "--ckpt", str(ckpt), "--frame0", str(paths[0]),
                "--frame1", str(paths[1]), "--threads", threads]
        assert main(argv + ["--out", str(tmp_path / "only.ppm")]) == 0
        assert main(argv + ["--out", str(tmp_path / "mid.ppm"),
                            "--dump-params", str(tmp_path / "got.acof")]) == 0
        for got, want in (("only.ppm", "want.ppm"), ("mid.ppm", "want.ppm"),
                          ("got.acof", "want.acof"), ("got.bwd.acof", "want.bwd.acof")):
            assert (tmp_path / got).read_bytes() == (tmp_path / want).read_bytes(), got


def test_frame_only_inference_holds_one_band_of_maps():
    """interpolate at 256x256, acceptance config, stays below 80 MiB of traced
    allocations: the trunk's activations and one 32-row band of head maps.
    The whole-frame maps and their softmax copies took 105 of 134 MiB."""
    model = _acceptance_model()
    first, last = np.random.default_rng(7).random((2, 3, 256, 256))
    tracemalloc.start()
    try:
        train.interpolate(model, first, last)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_interpolate_on_two_threads_starts_no_pool(monkeypatch):
    """Each 32-row band of a 256x256 frame is one warp slice: threads=2 starts
    no thread pool and gives threads=1's frame."""
    pools = []
    monkeypatch.setattr(warp, "ThreadPoolExecutor",
                        lambda **kw: pools.append(kw) or ThreadPoolExecutor(**kw))
    model = _acceptance_model()
    first, last = np.random.default_rng(9).random((2, 3, 256, 256))
    threaded = train.interpolate(model, first, last, threads=2)
    assert pools == []
    np.testing.assert_array_equal(threaded, train.interpolate(model, first, last))


def test_checkpoint_roundtrip(tmp_path):
    """The config, warp mode included, survives; extra is metadata nothing
    reads, even where it names another mode."""
    cfg = _tiny_config(seed=5, warp_mode="kb")
    model = SynthModel(cfg)
    rng = np.random.default_rng(5)
    for name in model.params:
        model.params[name] = np.round(rng.normal(0, 0.3,
                                      model.params[name].shape), 3)
    path = tmp_path / "m.ackp"
    save_checkpoint(path, model, extra={"warp_mode": "adacof", "occlusion_enabled": True})
    back = load_checkpoint(path)
    assert back.config.warp_mode == "kb"
    assert back.config == cfg
    for name in model.params:
        assert np.abs(back.params[name] - model.params[name]).max() < 1e-6


@pytest.mark.parametrize("cut", [10, 500, -3, None], ids=["header", "tensor", "last", "trailing"])
def test_checkpoint_of_the_wrong_length_names_file(tmp_path, cut):
    path = tmp_path / "m.ackp"
    save_checkpoint(path, SynthModel(_tiny_config()))
    data = path.read_bytes()
    path.write_bytes(data[:cut] if cut else data + b"\0")
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    msg = str(exc.value)
    assert str(path) in msg
    assert ("1 bytes follow the last tensor" if cut is None else
            f"checkpoint is cut short: {len(data[:cut])} bytes") in msg


def test_checkpoint_with_a_tensor_name_not_utf8_names_file(tmp_path):
    path = tmp_path / "m.ackp"
    save_checkpoint(path, SynthModel(_tiny_config()))
    data = bytearray(path.read_bytes())
    blob_len = struct.unpack_from("<I", data, 8)[0]
    first_name = 12 + blob_len + 8  # after the config block, tensor count, name length
    data[first_name] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert f"{path}: tensor name b'\\xff" in str(exc.value)
    assert "is not UTF-8" in str(exc.value)


@pytest.mark.parametrize("case", ["version1", "version2", "missing", "wrong-shape", "extra"])
def test_checkpoint_with_the_wrong_tensors_names_file(tmp_path, case):
    model = SynthModel(_tiny_config())
    if case == "missing":
        del model.params["head.b"]
    elif case == "wrong-shape":
        model.params["dec0.w"] = np.zeros((8, 14, 3, 3))
    elif case == "extra":
        model.params["head.occ.w"] = np.zeros((1, 6, 3, 3))
    path = tmp_path / "m.ackp"
    save_checkpoint(path, model)
    if case.startswith("version"):
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", int(case[-1]))
        path.write_bytes(bytes(data))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    msg = str(exc.value)
    assert str(path) in msg
    assert {"version1": "checkpoint version 1, only version 3 is supported",
            "version2": "checkpoint version 2, only version 3 is supported",
            "missing": "tensor head.b is absent in the file but (55,) in its model config",
            "wrong-shape": "tensor dec0.w is (8, 14, 3, 3) in the file but (6, 14, 3, 3)",
            "extra": "tensor head.occ.w is (1, 6, 3, 3) in the file but absent"}[case] in msg


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ackp"
    path.write_bytes(b"XXXX" + b"\0" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", [(65536,) * 4, (2**32 - 1,) * 3 + (0,)],
                         ids=["product-wraps-to-zero", "zero-dimension"])
def test_checkpoint_shape_is_compared_before_its_bytes_are_read(tmp_path, shape):
    """np.prod of these shapes is 0 in int64; the shape is refused first."""
    path = tmp_path / "m.ackp"
    save_checkpoint(path, SynthModel(_tiny_config()))
    data = bytearray(path.read_bytes())
    pos = 12 + struct.unpack_from("<I", data, 8)[0] + 4  # the first tensor's name length
    pos += 4 + struct.unpack_from("<I", data, pos)[0]  # its ndim, then its one dimension
    data[pos:pos + 8] = struct.pack("<5I", 4, *shape)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == (f"{path}: tensor bottleneck.b is {shape} in the file "
                              "but (8,) in its model config")


def _u32_fields(data):
    """Offsets of every u32 of a checkpoint (version, config length, tensor
    count, then each tensor's name length, ndim and dimensions), and of
    each tensor's ndim."""
    blob_len = struct.unpack_from("<I", data, 8)[0]
    offsets, ndims, pos = [4, 8, 12 + blob_len], [], 16 + blob_len
    while pos < len(data):
        offsets.append(pos)
        pos += 4 + struct.unpack_from("<I", data, pos)[0]
        ndim = struct.unpack_from("<I", data, pos)[0]
        ndims.append(pos)
        offsets.extend(range(pos, pos + 4 * (ndim + 1), 4))
        shape = struct.unpack_from(f"<{ndim}I", data, pos + 4)
        pos += 4 * (ndim + 1) + 4 * int(np.prod(shape))
    return offsets, ndims


def _mutated(data, draw):
    """A valid checkpoint after one or two mutations: cut, extended, a byte
    flipped, a u32 header or shape field rewritten, a tensor's whole shape
    replaced, or a config block value replaced."""
    offsets, ndims = _u32_fields(data)
    extreme = st.sampled_from([0, 1, 2**16, 2**32 - 1])
    kinds = draw(st.lists(st.sampled_from(["cut", "extend", "flip", "field", "shape",
                                           "config"]), min_size=1, max_size=2))
    for kind in kinds:
        if kind == "cut":
            data = data[:-draw(st.integers(1, len(data)))]
        elif kind == "extend":
            data += draw(st.binary(min_size=1, max_size=8))
        elif kind == "flip" and data:
            i = draw(st.integers(0, len(data) - 1))
            data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
        elif kind == "field":  # at the valid file's offsets
            i = draw(st.sampled_from(offsets))
            value = draw(st.one_of(extreme, st.integers(0, 2**32 - 1)))
            data = data[:i] + struct.pack("<I", value) + data[i + 4:]
        elif kind == "shape":
            i = draw(st.sampled_from(ndims))
            old_ndim = struct.unpack_from("<I", data, i)[0] if i + 4 <= len(data) else 0
            shape = draw(st.lists(extreme, max_size=4))
            data = (data[:i] + struct.pack(f"<{len(shape) + 1}I", len(shape), *shape)
                    + data[i + 4 * (old_ndim + 1):])
        elif kind == "config":
            try:  # an earlier mutation may have left no config block
                blob_len = struct.unpack_from("<I", data, 8)[0]
                block = json.loads(data[12:12 + blob_len])
            except (ValueError, struct.error):
                continue
            if isinstance(block, dict):
                block[draw(st.sampled_from(sorted(block)))] = draw(st.one_of(
                    st.integers(-2, 2**70), st.lists(st.integers(-1, 2**40), max_size=3),
                    st.sampled_from(["kb", "fb", "zzz", None, 1.5])))
                blob = json.dumps(block).encode()
                data = data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + blob_len:]
    return data


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_load_checkpoint_gives_a_model_or_names_the_file(tmp_path_factory, data):
    """A depth-1 model's checkpoint, mutated, loads as a model of its
    config's shapes or raises a ValueError starting with the path."""
    cfg = ModelConfig(kernel_size=data.draw(st.integers(1, 2)), depth=1,
                      widths=(data.draw(st.integers(1, 3)),))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    model = SynthModel(cfg, {name: rng.normal(size=shape)
                             for name, shape in param_shapes(cfg).items()})
    path = tmp_path_factory.getbasetemp() / "mutated.ackp"
    save_checkpoint(path, model, extra={"epoch": 0})
    path.write_bytes(_mutated(path.read_bytes(), data.draw))
    try:
        back = load_checkpoint(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert {name: p.shape for name, p in back.params.items()} == param_shapes(back.config)
