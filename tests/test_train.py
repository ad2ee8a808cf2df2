"""Training loop tests on tiny datasets (fast smoke coverage)."""

import json
import os
import struct
from dataclasses import fields, replace

import numpy as np
import pytest

from adacof.cli import main
from adacof.datagen import load_triplet, read_manifest, write_dataset
from adacof.model import ModelConfig, SynthModel, load_checkpoint
from adacof.train import TrainConfig, eval_workers, evaluate, infer, mean_metrics, train


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny"
    write_dataset(path, 10, 16, 2.0, seed=0)
    return str(path)


def _tiny_config(dataset_dir, **kw):
    base = dict(dataset_dir=dataset_dir, kernel_size=3, dilation=1, depth=1,
                widths=(6,), lr=0.002, batch=2, epochs=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_train_writes_metrics_and_checkpoints(tiny_dataset, tmp_path):
    out = tmp_path / "run"
    model, history = train(_tiny_config(tiny_dataset), str(out))
    assert len(history) == 2
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,phase,loss,val_psnr,val_ssim"
    assert len(lines) == 3
    assert lines[1].startswith("0,distortion,")
    assert (out / "ckpt_final.ackp").exists()
    assert (out / "ckpt_epoch000.ackp").exists()
    assert all(len(row["quarter_losses"]) == 4 for row in history)
    assert all(np.isfinite(row["quarter_losses"]).all() for row in history)


def test_final_checkpoint_reproduces_model(tiny_dataset, tmp_path):
    out = tmp_path / "run"
    model, _ = train(_tiny_config(tiny_dataset), str(out))
    back = load_checkpoint(out / "ckpt_final.ackp")
    assert back.config == model.config and back.config.warp_mode == "adacof"
    # the config block is the model's: no training field rides along
    data = (out / "ckpt_final.ackp").read_bytes()
    (n,) = struct.unpack_from("<I", data, 8)
    block = json.loads(data[12:12 + n])
    assert sorted(block) == sorted([f.name for f in fields(ModelConfig)] + ["extra"])
    assert block["seed"] == 0 and block["kernel_size"] == 3
    t = load_triplet(os.path.join(tiny_dataset, "0000"))
    a, _, _, _ = infer(model, t.first, t.last)
    b, _, _, _ = infer(back, t.first, t.last)
    # checkpoints store float32 parameters
    assert np.abs(a - b).max() < 1e-5


def test_training_is_seeded_deterministic(tiny_dataset, tmp_path):
    _, h1 = train(_tiny_config(tiny_dataset, epochs=1), str(tmp_path / "a"))
    _, h2 = train(_tiny_config(tiny_dataset, epochs=1), str(tmp_path / "b"))
    assert h1[0]["loss"] == h2[0]["loss"]
    assert h1[0]["val_psnr"] == h2[0]["val_psnr"]


def test_zero_lr_keeps_untrained_baseline(tiny_dataset, tmp_path):
    cfg = _tiny_config(tiny_dataset, lr=0.0, epochs=1)
    model, history = train(cfg, str(tmp_path / "run"))
    # heads are zero-initialized and lr=0 keeps them there: uniform
    # weights, zero offsets, v=0.5 everywhere
    t = load_triplet(os.path.join(tiny_dataset, "0000"))
    out, pf, pb, v = infer(model, t.first, t.last)
    np.testing.assert_allclose(v, 0.5, atol=1e-12)
    np.testing.assert_allclose(pf.alpha, 0.0, atol=1e-12)
    np.testing.assert_allclose(pf.weights, 1.0 / 9.0, atol=1e-12)


def test_flow_only_mode_forces_single_tap(tiny_dataset, tmp_path):
    cfg = _tiny_config(tiny_dataset, warp_mode="fb", epochs=1)
    model_cfg = cfg.model_config()
    assert model_cfg.warp_mode == "fb"
    assert model_cfg.kernel_size == 1 and model_cfg.dilation == 0
    model, _ = train(cfg, str(tmp_path / "run"))
    back = load_checkpoint(tmp_path / "run" / "ckpt_final.ackp")
    assert back.config.warp_mode == "fb"
    assert back.config.kernel_size == 1


@pytest.mark.parametrize("mode", ["kb", "ws", "sdc"])
def test_constrained_modes_train(tiny_dataset, tmp_path, mode):
    cfg = _tiny_config(tiny_dataset, warp_mode=mode, epochs=1)
    _, history = train(cfg, str(tmp_path / mode))
    assert np.isfinite(history[-1]["loss"])


def test_woocc_mode_disables_blending(tiny_dataset):
    model_cfg = _tiny_config(tiny_dataset, warp_mode="woocc").model_config()
    assert model_cfg.warp_mode == "woocc"
    assert model_cfg.kernel_size == 3 and model_cfg.dilation == 1


def test_perception_phase_runs(tiny_dataset, tmp_path):
    cfg = _tiny_config(tiny_dataset, mode="perception", epochs=1, adv_epochs=1)
    _, history = train(cfg, str(tmp_path / "run"))
    assert [row["phase"] for row in history] == ["distortion", "perception"]
    assert np.isfinite(history[-1]["loss"])


def test_lr_at_halves_every_period():
    cfg = TrainConfig(lr=0.001, schedule_period=20)
    assert [cfg.lr_at(e) for e in (0, 19, 20, 39, 40)] == [0.001, 0.001, 0.0005, 0.0005,
                                                            0.00025]
    assert TrainConfig().seed == 7 and ModelConfig().seed == 0
    with pytest.raises(ValueError, match="schedule_period must be >= 1, got 0"):
        TrainConfig(schedule_period=0)


def test_config_json_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset_dir": "x", "F": 5, "d": 2,
                                "widths": [4, 8], "depth": 2, "lr": 0.01}))
    cfg = TrainConfig.from_json(path)
    assert cfg.kernel_size == 5 and cfg.dilation == 2
    assert cfg.widths == (4, 8) and cfg.lr == 0.01


def test_evaluate_reports_sane_metrics(tiny_dataset, tmp_path):
    model, _ = train(_tiny_config(tiny_dataset, epochs=1), str(tmp_path / "run"))
    names = read_manifest(tiny_dataset)
    triplets = [load_triplet(os.path.join(tiny_dataset, n)) for n in names[:3]]
    rows = evaluate(model, triplets)
    assert len(rows) == 3
    p, s, ie = mean_metrics(rows)
    assert 10.0 < p <= 100.0
    assert 0.0 < s <= 1.0
    assert ie > 0.0


@pytest.mark.parametrize("mode", ["kb", "ws"])
def test_eval_of_a_checkpoint_warps_in_its_mode(tiny_dataset, tmp_path, capsys, mode):
    """adacof eval takes the mode from the checkpoint: its rows are evaluate()'s
    on the in-memory model."""
    model, _ = train(_tiny_config(tiny_dataset, warp_mode=mode, epochs=1), str(tmp_path))
    assert main(["eval", "--ckpt", str(tmp_path / "ckpt_final.ackp"),
                 "--data", tiny_dataset]) == 0
    got = [[float(v) for v in line.split(",")[1:]]
           for line in capsys.readouterr().out.splitlines()[1:]]
    triplets = [load_triplet(os.path.join(tiny_dataset, n)) for n in read_manifest(tiny_dataset)]
    rows = evaluate(model, triplets)
    # the report prints 6 significant digits of a float32-stored model
    np.testing.assert_allclose(got, rows + [mean_metrics(rows)], rtol=1e-5)
    if mode == "ws":  # a kb model's offset heads never leave zero: it warps as adacof
        as_adacof = SynthModel(replace(model.config, warp_mode="adacof"), model.params)
        assert not np.allclose(evaluate(as_adacof, triplets), rows, rtol=1e-5)


@pytest.mark.parametrize("threads, triplets, size, workers", [
    (2, 1, 256, 1),    # one triplet
    (2, 8, 32, 1),     # below two shares of pixels
    (2, 96, 32, 2),    # eval-32's shape
    (8, 96, 32, 8),
    (8, 3, 256, 3),    # no more workers than triplets
    (1, 96, 32, 1),
], ids=["one-triplet", "below-the-share", "eval-32", "eval-32-8-threads", "few-large",
        "one-thread"])
def test_eval_worker_count(threads, triplets, size, workers):
    assert eval_workers(threads, triplets, triplets * size * size) == workers
