"""Loss term tests: closed-form fixtures and gradients."""

import math

import numpy as np
import pytest

from adacof.losses import (Discriminator, charbonnier_l1, discriminator_loss,
                           generator_entropy_loss, gradient_bank_features, perceptual_loss)
from adacof.train import TrainConfig


def test_charbonnier_of_equal_inputs_is_epsilon():
    a = np.random.default_rng(0).random((3, 5, 5))
    loss, grad = charbonnier_l1(a, a.copy())
    assert loss == pytest.approx(0.001, abs=1e-9)
    np.testing.assert_allclose(grad, 0.0)


def test_charbonnier_approaches_l1_for_large_differences():
    a = np.full((1, 4, 4), 0.9)
    b = np.full((1, 4, 4), 0.4)
    loss, _ = charbonnier_l1(a, b)
    assert loss == pytest.approx(0.5, abs=1e-5)


def test_charbonnier_gradient_sign_and_antisymmetry():
    rng = np.random.default_rng(1)
    a = rng.random((1, 4, 4))
    b = rng.random((1, 4, 4))
    _, ga = charbonnier_l1(a, b)
    _, gb = charbonnier_l1(b, a)
    np.testing.assert_allclose(ga, -gb)
    assert np.all(np.sign(ga) == np.sign(a - b))


def test_generator_loss_fixture_and_floor():
    loss, _, _ = generator_entropy_loss(0.5, 0.5)
    assert loss == pytest.approx(-math.log(2.0), abs=1e-9)
    # the literal objective c*ln(c) is minimized at c = 1/e
    at_inv_e, d1, _ = generator_entropy_loss(1.0 / math.e, 1.0 / math.e)
    assert at_inv_e == pytest.approx(-2.0 / math.e, abs=1e-9)
    assert d1 == pytest.approx(0.0, abs=1e-9)
    assert at_inv_e < loss


def test_discriminator_loss_fixture():
    delta = 1e-9
    loss, _, _ = discriminator_loss(1.0 - delta, delta)
    assert loss < 1e-4
    sym, d1, d2 = discriminator_loss(0.5, 0.5)
    assert sym == pytest.approx(2.0 * math.log(2.0), abs=1e-9)
    assert d1 == pytest.approx(-2.0) and d2 == pytest.approx(2.0)


def test_probability_clamping_keeps_losses_finite():
    loss, d1, d2 = discriminator_loss(0.0, 1.0)
    assert math.isfinite(loss) and math.isfinite(d1) and math.isfinite(d2)
    loss, d1, d2 = generator_entropy_loss(0.0, 1.0)
    assert math.isfinite(loss)


def test_gradient_bank_extractor_shapes_and_invariance():
    rng = np.random.default_rng(3)
    img = rng.random((3, 8, 8))
    feats, _ = gradient_bank_features(img)
    assert feats.shape == (24, 4, 4)
    flat, _ = gradient_bank_features(np.full((3, 8, 8), 0.7))
    np.testing.assert_allclose(flat[:, 1:-1, 1:-1], 0.0, atol=1e-12)


def test_perceptual_loss_with_bank_detects_structure_difference():
    rng = np.random.default_rng(4)
    a = rng.random((3, 8, 8))
    loss, grad = perceptual_loss(a, np.roll(a, 2, axis=2))
    assert loss > 0.0
    assert grad.shape == a.shape


def test_loss_config_validation():
    with pytest.raises(ValueError, match="lambda_adv must be a finite number >= 0, got -1.0"):
        TrainConfig(lambda_adv=-1.0)
    with pytest.raises(ValueError, match="mode must be 'distortion' or 'perception'"):
        TrainConfig(mode="other")


def test_discriminator_output_and_gradients():
    disc = Discriminator(seed=0)
    rng = np.random.default_rng(5)
    x = rng.random((6, 8, 8))
    prob, vjp = disc.forward(x)
    assert 0.0 < prob < 1.0
    grads, gx = vjp(1.0)
    assert set(grads) == set(disc.params)
    assert gx.shape == x.shape
    assert any(np.abs(g).max() > 0.0 for g in grads.values())
    # the perception phase calls each vjp twice: each call builds new arrays
    again, gx_again = vjp(1.0)
    assert again is not grads and again["c0.w"] is not grads["c0.w"]
    assert all(np.array_equal(again[n], grads[n]) for n in grads)
    assert np.array_equal(gx_again, gx)
