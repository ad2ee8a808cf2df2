"""End-to-end acceptance suite.

Each test covers one numbered acceptance property; the training-dependent
ones share a single session-scoped training run to keep the suite inside
its runtime budget.
"""

import math
import os
import time

import numpy as np
import pytest

from adacof import gradcheck as gc
from adacof import metrics
from adacof.core import sample_grid
from adacof.datagen import (MotionSpec, generate_triplet, load_triplet,
                            read_manifest, write_dataset)
from adacof.flowstats import mean_flow, variance_flow
from adacof.losses import charbonnier_l1, generator_entropy_loss, discriminator_loss
from adacof.model import ModelConfig
from adacof.optim import AdaMaxState, adamax_step
from adacof.ppm import read_ppm, write_ppm
from adacof.train import TrainConfig, infer, train
from adacof.warp import WarpMode, WarpParams, forward_warp, identity_params, project_mode

from oracles import (flow_only_oracle, kernel_only_oracle, mean_flow_oracle,
                     random_instance, shift_then_kernel_oracle,
                     variance_flow_oracle, warp_oracle)

SIZE = 8


def test_01_operator_matches_brute_force_oracle():
    """100 random instances across kernel sizes and dilations, < 1e-6."""
    rng = np.random.default_rng(2024)
    combos = [(f, d) for f in (1, 3, 5) for d in (0, 1, 2)]
    start = time.perf_counter()
    worst = 0.0
    for n in range(100):
        f, d = combos[n % len(combos)]
        image, weights, alpha, beta = random_instance(rng, SIZE, f, d,
                                                      channels=1)
        got = forward_warp(image, WarpParams(weights, alpha, beta, f, d))
        want = warp_oracle(image, weights, alpha, beta, f, d)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6, f"worst abs error {worst:.3e}"
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_02_gradient_suite_matches_finite_differences():
    start = time.perf_counter()
    err_op = gc.check_adacof(seed=0)
    err_losses = gc.check_losses(seed=0)
    err_net = gc.check_network(seed=0)
    elapsed = time.perf_counter() - start
    assert err_op < 1e-4, f"operator gradient error {err_op:.3e}"
    assert err_losses < 1e-4, f"loss gradient error {err_losses:.3e}"
    assert err_net < 1e-3, f"network gradient error {err_net:.3e}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_03_degenerate_modes_match_their_oracles():
    """Each mode warps through project_mode at its ModelConfig's kernel size
    and dilation, as training and interp run it."""
    rng = np.random.default_rng(3)
    worst = {"kb": 0.0, "fb": 0.0, "sdc": 0.0}

    def warped(mode, image, weights, alpha, beta):
        cfg = ModelConfig(kernel_size=3, dilation=1, warp_mode=mode)
        (w, a, b), _ = project_mode(WarpMode(mode), weights, alpha, beta)
        return forward_warp(image, WarpParams(w, a, b, cfg.kernel_size, cfg.dilation))

    for _ in range(20):
        image, weights, alpha, beta = random_instance(rng, SIZE, 3, 1)
        flow = rng.uniform(-2.0, 2.0, size=(2, SIZE, SIZE))
        tap_mean = np.stack([alpha.mean(axis=0), beta.mean(axis=0)])
        errs = {
            "kb": warped("kb", image, weights, alpha, beta)
            - kernel_only_oracle(image, weights, 3, 1),
            "fb": warped("fb", image, np.ones((1, SIZE, SIZE)), flow[:1], flow[1:])
            - flow_only_oracle(image, flow),
            "sdc": warped("sdc", image, weights, alpha, beta)
            - shift_then_kernel_oracle(image, weights, tap_mean, 3, 1),
        }
        for mode, err in errs.items():
            worst[mode] = max(worst[mode], float(np.abs(err).max()))
    for mode, err in worst.items():
        assert err < 1e-6, f"{mode} deviates from its oracle by {err:.3e}"


def test_04_exact_warps(tmp_path):
    rng = np.random.default_rng(4)
    # identity: byte-identical image file round trip through the warp
    frame = rng.integers(0, 256, size=(3, 12, 12)) / 255.0
    src = tmp_path / "src.ppm"
    write_ppm(src, frame)
    warped = forward_warp(read_ppm(src), identity_params(12, 12))
    dst = tmp_path / "dst.ppm"
    write_ppm(dst, warped)
    assert src.read_bytes()[src.read_bytes().index(b"255"):] == \
        dst.read_bytes()[dst.read_bytes().index(b"255"):]

    # integer translation: exact equality on the interior
    image = rng.random((3, 10, 10))
    params = WarpParams(np.ones((1, 10, 10)), np.full((1, 10, 10), 1.0),
                        np.full((1, 10, 10), 2.0), 1, 0)
    out = forward_warp(image, params)
    np.testing.assert_array_equal(out[:, :9, :8], image[:, 1:, 2:])

    # subpixel translation: matches a direct bilinear resample
    dy, dx = -0.4, 1.6
    params = WarpParams(np.ones((1, 10, 10)), np.full((1, 10, 10), dy),
                        np.full((1, 10, 10), dx), 1, 0)
    gy, gx = np.meshgrid(np.arange(10.0), np.arange(10.0), indexing="ij")
    want = sample_grid(image, gy + dy, gx + dx)
    assert np.abs(forward_warp(image, params) - want).max() < 1e-6


def test_05_flow_statistics_match_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(5):
        image, weights, alpha, beta = random_instance(rng, SIZE, 5, 1)
        p = WarpParams(weights, alpha, beta, 5, 1)
        for include_grid in (False, True):
            got = mean_flow(p, include_grid=include_grid)
            want = mean_flow_oracle(weights, alpha, beta, 5, 1,
                                    include_grid=include_grid)
            assert np.abs(got - want).max() < 1e-6
        var, _ = variance_flow(p)
        want_var = variance_flow_oracle(weights, alpha, beta, 5, 1)
        assert np.abs(var - want_var).max() < 1e-6
        assert var.min() >= 0.0
        # second-moment identity
        mean = mean_flow(p)
        m2 = np.stack([np.einsum("tij,tij->ij", weights, alpha * alpha),
                       np.einsum("tij,tij->ij", weights, beta * beta)])
        assert np.abs(m2 - mean * mean - var).max() < 1e-5


@pytest.fixture(scope="session")
def training_runs(tmp_path_factory):
    """One shared training run per warp mode on the standard dataset."""
    root = tmp_path_factory.mktemp("acceptance")
    data = root / "dataset"
    write_dataset(data, 512, 32, 3.0, seed=7)
    base = dict(dataset_dir=str(data), kernel_size=5, dilation=1, depth=2,
                widths=(8, 16), lr=0.003, batch=4, epochs=21, seed=7)
    results = {"dataset": str(data)}
    for mode in ("adacof", "fb"):
        model, history = train(TrainConfig(warp_mode=mode, **base),
                               str(root / mode))
        results[mode] = (model, history)
    return results


def test_06_training_beats_frame_average_baseline(training_runs):
    data = training_runs["dataset"]
    names = read_manifest(data)
    n_val = round(len(names) * 0.125)
    val = [load_triplet(os.path.join(data, n)) for n in names[-n_val:]]
    baseline = float(np.mean([
        min(metrics.psnr(0.5 * (t.first + t.last), t.middle), 100.0) for t in val]))
    _, hist_ada = training_runs["adacof"]
    _, hist_fb = training_runs["fb"]
    psnr_ada = hist_ada[-1]["val_psnr"]
    psnr_fb = hist_fb[-1]["val_psnr"]
    assert len(hist_ada) <= 30
    assert psnr_ada >= baseline + 3.0, \
        f"adacof {psnr_ada:.2f} dB vs baseline {baseline:.2f} dB"
    assert psnr_ada >= psnr_fb, \
        f"adacof {psnr_ada:.2f} dB < flow-only {psnr_fb:.2f} dB"


def test_07_mean_flow_sign_agreement_on_translations(training_runs):
    model, _ = training_runs["adacof"]
    rng = np.random.default_rng(99)
    agree = total = 0
    for trial in range(10):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        mag = rng.uniform(1.5, 3.0)
        spec = MotionSpec(displacement=(mag * math.sin(ang),
                                        mag * math.cos(ang)),
                          texture_seed=7000 + trial)
        t = generate_triplet(spec, 32, seed=9000 + trial)
        _, pf, _, _ = infer(model, t.first, t.last)
        flow = mean_flow(pf, include_grid=True)
        mask = np.abs(t.flow) > 0.5
        agree += int(((np.sign(flow) == np.sign(t.flow)) & mask).sum())
        total += int(mask.sum())
    assert total > 0
    ratio = agree / total
    assert ratio >= 0.8, f"sign agreement {ratio:.3f}"


def test_08_metric_and_loss_fixtures():
    assert metrics.psnr(np.zeros((3, 16, 16)),
                        np.full((3, 16, 16), 0.1)) == pytest.approx(20.0, abs=1e-6)
    x = np.random.default_rng(8).random((3, 16, 16))
    assert metrics.ssim(x, x.copy()) == pytest.approx(1.0, abs=1e-12)
    c1 = metrics.SSIM_K1 ** 2
    assert metrics.ssim(np.zeros((1, 16, 16)), np.ones((1, 16, 16))) == \
        pytest.approx(c1 / (1.0 + c1), abs=1e-9)
    loss, _ = charbonnier_l1(x, x.copy())
    assert loss == pytest.approx(0.001, abs=1e-9)
    adv, _, _ = generator_entropy_loss(0.5, 0.5)
    assert adv == pytest.approx(-math.log(2.0), abs=1e-9)
    delta = 1e-9
    near_perfect, _, _ = discriminator_loss(1.0 - delta, delta)
    assert near_perfect < 1e-4


def test_09_optimizer_fixtures():
    state = AdaMaxState(lr=0.001)
    params = {"theta": np.array([1.0])}
    adamax_step(state, params, {"theta": np.array([1.0])})
    assert params["theta"][0] == pytest.approx(0.999, abs=1e-9)

    state = AdaMaxState(lr=0.01)
    params = {"theta": np.array([0.0])}
    for _ in range(2000):
        adamax_step(state, params, {"theta": 2.0 * (params["theta"] - 3.0)})
    assert abs(params["theta"][0] - 3.0) < 1e-2


def test_10a_thread_determinism():
    rng = np.random.default_rng(10)
    image, weights, alpha, beta = random_instance(rng, 64, 5, 1)
    params = WarpParams(weights, alpha, beta, 5, 1)
    ref = forward_warp(image, params, threads=1)
    for threads in (2, 4):
        out = forward_warp(image, params, threads=threads)
        assert np.array_equal(out, ref), f"threads={threads} output differs"


def test_10b_thread_scaling():
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"throughput scaling needs >= 4 cores, host has {cores}")
    rng = np.random.default_rng(11)
    image, weights, alpha, beta = random_instance(rng, 256, 5, 1)
    params = WarpParams(weights, alpha, beta, 5, 1)

    def timed(threads):
        forward_warp(image, params, threads=threads)  # warm-up
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            forward_warp(image, params, threads=threads)
            best = min(best, time.perf_counter() - start)
        return best

    speedup = timed(1) / timed(4)
    assert speedup >= 1.5, f"1 -> 4 thread speedup only {speedup:.2f}x"
