"""Command-line interface tests (all through main(argv))."""

import json
import multiprocessing
import os
import resource
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from adacof import gradcheck as gc
from adacof import train as train_module
from adacof.cli import build_parser, main
from adacof.datagen import read_manifest
from adacof.model import ModelConfig, SynthModel, save_checkpoint
from adacof.ppm import read_ppm, write_ppm
from adacof.warp import identity_params, save_acof


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data"
    assert main(["gen-data", "--out", str(path), "--count", "8",
                 "--size", "16", "--seed", "1"]) == 0
    return str(path)


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    cfg = tmp_path_factory.mktemp("cli") / "train.json"
    cfg.write_text(json.dumps({
        "dataset_dir": dataset, "F": 3, "d": 1, "depth": 1, "widths": [6],
        "lr": 0.002, "batch": 2, "epochs": 1, "seed": 0}))
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return str(out)


def test_gen_data_writes_manifest(dataset):
    assert len(read_manifest(dataset)) == 8


def test_interp_and_dump_params(dataset, trained, tmp_path, capsys):
    ckpt = os.path.join(trained, "ckpt_final.ackp")
    out = tmp_path / "mid.ppm"
    dump = tmp_path / "p.acof"
    rc = main(["interp", "--ckpt", ckpt,
               "--frame0", os.path.join(dataset, "0000", "frame0.ppm"),
               "--frame1", os.path.join(dataset, "0000", "frame2.ppm"),
               "--out", str(out), "--dump-params", str(dump), "--threads", "1"])
    assert rc == 0
    assert read_ppm(out).shape == (3, 16, 16)
    assert dump.exists() and (tmp_path / "p.bwd.acof").exists()


def test_warp_identity_roundtrip(tmp_path):
    frame = np.random.default_rng(0).integers(0, 256, (3, 8, 8)) / 255.0
    src = tmp_path / "in.ppm"
    write_ppm(src, frame)
    params = tmp_path / "id.acof"
    save_acof(params, identity_params(8, 8))
    out = tmp_path / "out.ppm"
    assert main(["warp", "--params", str(params), "--input", str(src),
                 "--out", str(out), "--threads", "2"]) == 0
    np.testing.assert_array_equal(read_ppm(out), frame)


def test_gradcheck_command(capsys):
    # network seed 4 takes 93 draws to find a kink-free instance; losses
    # seed 5 has an |a - b| close to the Charbonnier epsilon
    for module, seed, threshold in (("adacof", 0, 1e-4), ("losses", 5, 1e-4),
                                    ("network", 4, 1e-3)):
        assert main(["gradcheck", "--module", module, "--seed", str(seed)]) == 0, module
        line = capsys.readouterr().out.strip()
        name, err, verdict = line.split(",")
        assert name == module and verdict == "pass"
        assert float(err) < threshold


def test_gradcheck_without_a_kink_free_instance_fails_cleanly(monkeypatch, capsys):
    monkeypatch.setattr(gc, "KINK_FREE_ATTEMPTS", 1)  # seed 1's first draw has a kink
    assert main(["gradcheck", "--module", "network", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: seed 1: no kink-free network instance in 1 draws" in captured.err


def test_visualize_outputs(tmp_path):
    params = tmp_path / "p.acof"
    save_acof(params, identity_params(12, 12))
    prefix = tmp_path / "vis"
    assert main(["visualize", "--params", str(params),
                 "--out-prefix", str(prefix)]) == 0
    for suffix in ("_meanflow.ppm", "_varflow.ppm", "_occlusion.ppm"):
        assert (tmp_path / f"vis{suffix}").exists()


def test_eval_reports_csv(dataset, trained, capsys):
    ckpt = os.path.join(trained, "ckpt_final.ackp")
    assert main(["eval", "--ckpt", ckpt, "--data", dataset]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,psnr_db,ssim,ie"
    assert lines[-1].startswith("mean,")
    assert len(lines) == 2 + 8


def test_bench_csv(capsys):
    assert main(["bench", "--size", "32x32", "--F", "3", "--threads", "1,2",
                 "--reps", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "threads,seconds,megapixel_taps_per_s"
    assert len(lines) == 3


def test_sweep_over_kernel_size(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset_dir": dataset, "d": 1, "depth": 1, "widths": [4],
        "lr": 0.002, "batch": 2, "epochs": 1, "seed": 0}))
    assert main(["sweep", "--config", str(cfg), "--param", "F=1,3",
                 "--out", str(tmp_path / "sweep")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kernel_size,val_psnr,val_ssim"
    assert len(lines) == 3


def test_ablate_modes(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset_dir": dataset, "F": 3, "d": 1, "depth": 1, "widths": [4],
        "lr": 0.002, "batch": 2, "epochs": 1, "seed": 0}))
    assert main(["ablate", "--config", str(cfg), "--modes", "kb,woocc",
                 "--out", str(tmp_path / "ablate")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "mode,val_psnr,val_ssim"
    assert [l.split(",")[0] for l in lines[1:]] == ["kb", "woocc"]


def test_ablate_rejects_an_unknown_mode_before_training(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--config", str(tmp_path / "cfg.json"), "--modes", "kb,zzz",
              "--out", str(tmp_path / "ablate")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("argument --modes: each mode must be one of adacof, fb, kb, ws, sdc, woocc, "
            "got 'zzz'") in captured.err
    assert not (tmp_path / "ablate").exists()


@pytest.mark.parametrize("size", [100, None], ids=["truncated", "trailing"])
def test_warp_rejects_a_dump_of_the_wrong_length(tmp_path, capsys, size):
    src = tmp_path / "in.ppm"
    write_ppm(src, np.zeros((3, 8, 8)))
    params = tmp_path / "id.acof"
    save_acof(params, identity_params(8, 8))
    data = params.read_bytes()
    assert len(data) == 24 + 4 * 4 * 64
    params.write_bytes(data[:size] if size else data + b"\0\0")
    actual = size or len(data) + 2
    assert main(["warp", "--params", str(params), "--input", str(src),
                 "--out", str(tmp_path / "o.ppm")]) == 1
    err = capsys.readouterr().err
    assert str(params) in err and f"{len(data)} bytes in all" in err
    assert f"the file has {actual} bytes" in err


def test_warp_names_an_image_and_a_dump_of_different_sizes(tmp_path, capsys):
    src = tmp_path / "in.ppm"
    write_ppm(src, np.zeros((3, 8, 12)))
    params = tmp_path / "id.acof"
    save_acof(params, identity_params(8, 8))
    assert main(["warp", "--params", str(params), "--input", str(src),
                 "--out", str(tmp_path / "o.ppm")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: image and parameter maps differ in size: {src} is 8x12, "
            f"{params} is 8x8") in captured.err
    assert not (tmp_path / "o.ppm").exists()


def test_warp_rejects_an_occlusion_map_outside_unit_range(tmp_path, capsys):
    src = tmp_path / "in.ppm"
    write_ppm(src, np.zeros((3, 8, 8)))
    params = tmp_path / "occ.acof"
    save_acof(params, identity_params(8, 8), np.full((8, 8), 7.0))
    assert main(["warp", "--params", str(params), "--input", str(src),
                 "--out", str(tmp_path / "o.ppm")]) == 1
    err = capsys.readouterr().err
    assert str(params) in err and "occlusion map spans [7, 7], outside [0, 1]" in err


def test_missing_file_is_reported_as_failure(tmp_path):
    assert main(["warp", "--params", str(tmp_path / "nope.acof"),
                 "--input", str(tmp_path / "nope.ppm"),
                 "--out", str(tmp_path / "o.ppm")]) == 1


@pytest.fixture(scope="module")
def forked_set(tmp_path_factory):
    """6 triplets of 64x64: three WORKER_PIXELS shares, so eval forks."""
    path = tmp_path_factory.mktemp("cli") / "forked"
    assert main(["gen-data", "--out", str(path), "--count", "6",
                 "--size", "64", "--seed", "3"]) == 0
    return str(path)


def test_eval_report_does_not_depend_on_the_worker_count(forked_set, trained, tmp_path,
                                                        monkeypatch, capsys):
    score = train_module.score

    def score_noting_the_process(model, triplet):
        (tmp_path / f"pid{os.getpid()}").touch()
        return score(model, triplet)

    monkeypatch.setattr(train_module, "score", score_noting_the_process)
    ckpt = os.path.join(trained, "ckpt_final.ackp")
    reports = {}
    for threads, workers in ((1, 1), (2, 2), (8, 3)):  # 8 threads: more than triplets
        for pid in tmp_path.glob("pid*"):
            pid.unlink()
        assert main(["eval", "--ckpt", ckpt, "--data", forked_set,
                     "--threads", str(threads)]) == 0
        reports[threads] = capsys.readouterr()
        assert multiprocessing.active_children() == []
        pids = {p.name for p in tmp_path.glob("pid*")}
        assert len(pids) == workers
        assert (f"pid{os.getpid()}" in pids) == (workers == 1)
    assert reports[1].err == ""
    assert len(reports[1].out.splitlines()) == 2 + 6
    assert reports[2] == reports[1] and reports[8] == reports[1]


def test_eval_worker_that_dies_is_an_error(forked_set, trained):
    """A worker that exits inside a task ends the call with exit 1 and an
    error line naming the dataset, not a traceback or a hang."""
    code = (
        "import multiprocessing, os, sys\n"
        "from adacof import train\n"
        "from adacof.cli import main\n"
        "parent = os.getpid()\n"
        "train.score = lambda model, t: os._exit(3) if os.getpid() != parent else None\n"
        f"rc = main(['eval', '--ckpt', {os.path.join(trained, 'ckpt_final.ackp')!r}, "
        f"'--data', {forked_set!r}, '--threads', '2'])\n"
        "sys.exit(99 if multiprocessing.active_children() else rc)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == f"error: {forked_set}: a worker process ended without a result\n"


@pytest.mark.parametrize("threads", [1, 2])
def test_eval_names_a_corrupt_frame_at_any_worker_count(forked_set, trained, tmp_path,
                                                        capsys, threads):
    data = tmp_path / "data"
    shutil.copytree(forked_set, data)
    bad = data / "0003" / "frame1.ppm"
    bad.write_bytes(bad.read_bytes()[:-5])
    assert main(["eval", "--ckpt", os.path.join(trained, "ckpt_final.ackp"),
                 "--data", str(data), "--threads", str(threads)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {bad}: header declares 64x64 pixels (12288 bytes) "
                            "but only 12283 bytes follow it\n")
    assert multiprocessing.active_children() == []


def test_default_thread_count_is_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("ADACOF_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    parser = build_parser()
    assert parser.parse_args(["eval", "--ckpt", "c", "--data", "d"]).threads == 1
    assert parser.parse_args(["bench"]).threads == [1]


def test_bad_thread_env_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("ADACOF_THREADS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--module", "adacof"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "ADACOF_THREADS" in err and "'abc'" in err


def test_eval_rejects_empty_index(trained, tmp_path, capsys):
    (tmp_path / "index.txt").write_text("")
    ckpt = os.path.join(trained, "ckpt_final.ackp")
    assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(tmp_path / "index.txt") in captured.err


def test_train_rejects_fewer_triplets_than_batch(tmp_path, capsys):
    data = tmp_path / "three"
    assert main(["gen-data", "--out", str(data), "--count", "3",
                 "--size", "16", "--seed", "1"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset_dir": str(data), "F": 3, "depth": 1,
                               "widths": [4], "batch": 4, "epochs": 1}))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--out",
                 str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert str(data) in err and "2 train triplets" in err and "batch 4" in err
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def mixed_dataset(dataset, tmp_path_factory):
    """The dataset's manifest with its last four triplets at 32x32."""
    path = tmp_path_factory.mktemp("cli") / "mixed"
    big = tmp_path_factory.mktemp("cli") / "big"
    assert main(["gen-data", "--out", str(big), "--count", "4", "--size", "32"]) == 0
    names = read_manifest(dataset)
    for name in names[:4]:
        shutil.copytree(os.path.join(dataset, name), path / name)
    for src, name in zip(read_manifest(big), names[4:]):
        shutil.copytree(big / src, path / name)
    (path / "index.txt").write_text("\n".join(names) + "\n")
    return str(path)


@pytest.mark.parametrize("data, change, named, message", [
    ("dataset", {"crop": 64}, 0, "frames are 16x16, smaller than crop 64"),
    ("dataset", {"depth": 5, "widths": [1] * 5}, 0,
     "frames are 16x16, not divisible by 2^depth = 32 (depth 5)"),
    ("mixed_dataset", {}, 4, "frames are 32x32, but {first}'s are 16x16; "
     "with crop 0 every triplet must have one frame size"),
], ids=["crop-larger-than-frame", "frame-not-divisible", "mixed-sizes-without-crop"])
def test_train_checks_the_frame_size_before_the_run_directory(request, tmp_path, capsys,
                                                               data, change, named, message):
    dataset = request.getfixturevalue(data)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset_dir": dataset, "F": 3, "depth": 1, "widths": [4],
                               "batch": 2, "epochs": 1, **change}))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    first, where = (os.path.join(dataset, read_manifest(dataset)[i]) for i in (0, named))
    assert err == f"error: {where}: {message.format(first=first)}\n"
    assert not (tmp_path / "run").exists()


def test_mixed_frame_sizes_train_with_a_crop(mixed_dataset, tmp_path):
    """With a crop every batch is one size, and validation runs per triplet."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset_dir": mixed_dataset, "F": 3, "depth": 1, "widths": [4],
                               "batch": 2, "epochs": 1, "crop": 16}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0


def _rewrite_config_block(src, dst, edit):
    """Copy a checkpoint with its config block's text replaced by edit(text)."""
    with open(src, "rb") as f:
        data = f.read()
    (n,) = struct.unpack("<I", data[8:12])
    blob = edit(data[12:12 + n].decode()).encode()
    dst.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + n:])


@pytest.mark.parametrize("edit, message", [
    (lambda text: json.dumps({**json.loads(text), "colour": 1}),
     "unknown config key 'colour'"),
    (lambda text: json.dumps({**json.loads(text), "depth": "2"}),
     "config key 'depth' must be int, got '2'"),
    (lambda text: "[1]", "expected a JSON object, got list"),
    (lambda text: text[:-1], "config block is not valid JSON"),
    (lambda text: "[" * 100000, "config block is not valid JSON: maximum recursion depth"),
    (lambda text: json.dumps({**json.loads(text), "warp_mode": "zzz"}),
     "warp_mode must be one of adacof, fb, kb, ws, sdc, woocc, got 'zzz'"),
    (lambda text: json.dumps({**json.loads(text), "warp_mode": 1}),
     "config key 'warp_mode' must be str, got 1"),
    (lambda text: json.dumps({**json.loads(text), "dilation": -1}),
     "dilation must be >= 0, got -1"),
    # the shapes are compared before any tensor of the config's size is made
    (lambda text: json.dumps({**json.loads(text), "kernel_size": 100000}),
     "tensor head.b is (55,) in the file but (60000000001,) in its model config"),
    (lambda text: json.dumps({**json.loads(text), "depth": 2, "widths": [100000000, 16]}),
     "tensor bottleneck.b is (6,) in the file but (16,) in its model config"),
], ids=["unknown-key", "wrong-type", "not-an-object", "not-json", "deeply-nested",
        "unknown-warp-mode", "warp-mode-not-a-string", "negative-dilation", "huge-kernel-size",
        "huge-widths"])
def test_checkpoint_config_block_names_the_bad_key(dataset, trained, tmp_path, capsys,
                                                   edit, message):
    ckpt = tmp_path / "bad.ackp"
    _rewrite_config_block(os.path.join(trained, "ckpt_final.ackp"), ckpt, edit)
    assert main(["eval", "--ckpt", str(ckpt), "--data", dataset]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {ckpt}: {message}" in captured.err


@pytest.mark.parametrize("change, cut, message", [
    ({"colour": 1}, False, "unknown config key 'colour'"),
    ({"mode": "perceptoin", "adv_epochs": 1}, False,
     "mode must be 'distortion' or 'perception', got 'perceptoin'"),
    ({"warp_mode": "zzz"}, False,
     "warp_mode must be one of adacof, fb, kb, ws, sdc, woocc, got 'zzz'"),
    ({}, True, "not valid JSON: Expecting ',' delimiter"),
    ({"lr": -1}, False, "lr must be a finite number >= 0, got -1"),
    ({"crop": 3}, False, "crop must be 0 or a positive multiple of 2^depth = 2, got 3"),
    ({"batch": 0}, False, "batch must be >= 1, got 0"),
    ({"epochs": 0}, False, "epochs must be >= 1, got 0"),
    ({"F": 0}, False, "kernel_size must be >= 1, got 0"),
    ({"d": -1}, False, "dilation must be >= 0, got -1"),
    ({"widths": [4, 8]}, False,
     "widths must be one positive width per encoder level (depth 1), got [4, 8]"),
    ({"val_fraction": 1.5}, False, "val_fraction must be between 0 and 1, got 1.5"),
    ({"schedule_period": 0}, False, "schedule_period must be >= 1, got 0"),
    ({"lambda_adv": -1}, False, "lambda_adv must be a finite number >= 0, got -1"),
    ({"seed": -1}, False, "seed must be >= 0, got -1"),
    ({"adv_epochs": -3}, False, "adv_epochs must be >= 0, got -3"),
    ({"lambda_1": 1e400, "mode": "perception", "adv_epochs": 1}, False,
     "lambda_1 must be a finite number >= 0, got inf"),
], ids=["unknown-key", "misspelt-mode", "unknown-warp-mode", "not-json", "negative-lr",
        "crop-not-a-multiple", "zero-batch", "zero-epochs", "zero-kernel-size",
        "negative-dilation", "widths-not-depth", "val-fraction-above-1", "zero-schedule-period",
        "negative-lambda", "negative-seed", "negative-adv-epochs", "infinite-lambda"])
def test_training_config_names_the_bad_key(dataset, tmp_path, capsys, change, cut, message):
    cfg = tmp_path / "cfg.json"
    text = json.dumps({"dataset_dir": dataset, "F": 3, "depth": 1,
                       "widths": [4], "batch": 2, "epochs": 1, **change})
    cfg.write_text(text[:-1] if cut else text)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert f"error: {cfg}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_deeply_nested_training_config_names_the_file(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100000)  # deeper than the decoder's recursion limit
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    captured = capsys.readouterr()
    assert f"error: {cfg}: not valid JSON: maximum recursion depth" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "run").exists()


def _limit_address_space():
    """Cap the child at 2 GiB, so that no host tries a huge allocation."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("change, message", [
    ({"widths": [100000000]},
     "out of memory for widths [100000000] and kernel_size 3: 270,000,059,700,000,055 parameters"),
    ({"F": 100000},
     "out of memory for widths [4] and kernel_size 100000: 2,220,000,000,877 parameters"),
], ids=["huge-widths", "huge-kernel-size"])
def test_training_config_too_large_for_memory_names_the_file(dataset, tmp_path, change,
                                                             message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset_dir": dataset, "F": 3, "depth": 1, "widths": [4],
                               "batch": 2, "epochs": 1, **change}))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "adacof.cli", "train", "--config", str(cfg),
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, preexec_fn=_limit_address_space)
    assert proc.returncode == 1
    assert proc.stdout == "" and proc.stderr == f"error: {cfg}: {message}\n"
    assert not (tmp_path / "run").exists()


def test_sweep_checks_a_crop_against_the_configs_depth(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset_dir": dataset, "F": 3, "depth": 1, "widths": [4],
        "lr": 0.002, "batch": 2, "epochs": 1, "seed": 0}))
    # 12 is a multiple of 2^1 but not of the default depth's 2^3
    assert main(["sweep", "--config", str(cfg), "--param", "crop=12",
                 "--out", str(tmp_path / "ok")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "crop,val_psnr,val_ssim"
    assert main(["sweep", "--config", str(cfg), "--param", "crop=12,3",
                 "--out", str(tmp_path / "bad")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: {cfg}: crop must be 0 or a positive multiple of 2^depth = 2, got 3"
            in captured.err)
    assert not (tmp_path / "bad").exists()


def test_sweep_param_names_the_bad_key(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(tmp_path / "cfg.json"), "--param", "nosuch=1"])
    assert exc.value.code == 2
    assert "argument --param: nosuch=1: unknown config key 'nosuch'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, value", [
    (["interp", "--ckpt", "c", "--frame0", "a", "--frame1", "b", "--out", "o",
      "--threads", "0"], "0"),
    (["warp", "--params", "p", "--input", "i", "--out", "o", "--threads", "-3"], "-3"),
    (["bench", "--threads", "0"], "0"),
    (["bench", "--threads", "1,-3"], "-3"),
    (["eval", "--ckpt", "c", "--data", "d", "--threads", "0"], "0"),
], ids=["interp", "warp", "bench", "bench-list", "eval"])
def test_bad_thread_count_is_a_usage_error(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --threads: must be a positive integer, got {value!r}" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["--size", "12"], "argument --size: must be HxW with positive integers, got '12'"),
    (["--F", "0"], "argument --F: must be a positive integer, got '0'"),
    (["--d", "-1"], "argument --d: must be an integer >= 0, got '-1'"),
    (["--reps", "0"], "argument --reps: must be a positive integer, got '0'"),
], ids=["size", "F", "d", "reps"])
def test_bad_bench_argument_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["bench", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["--max-disp", "-1"], "argument --max-disp: must be a finite number >= 0, got '-1'"),
    (["--max-disp", "inf"], "argument --max-disp: must be a finite number >= 0, got 'inf'"),
    (["--count", "0"], "argument --count: must be a positive integer, got '0'"),
    (["--size", "8"], "argument --size: must be an integer >= 16, got '8'"),
], ids=["max-disp", "max-disp-inf", "count", "size"])
def test_bad_gen_data_argument_is_a_usage_error(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--out", str(tmp_path / "data"), *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("argv", [
    ["gen-data", "--out", "data", "--count", "1", "--size", "16"],
    ["gradcheck", "--module", "adacof"],
    ["bench", "--size", "16x16", "--reps", "1"],
], ids=["gen-data", "gradcheck", "bench"])
def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: must be an integer >= 0, got '-1'" in captured.err
    assert not (tmp_path / "data").exists()


def test_interp_names_frames_of_different_sizes(dataset, trained, tmp_path, capsys):
    frame0 = os.path.join(dataset, "0000", "frame0.ppm")
    frame1 = tmp_path / "wide.ppm"
    write_ppm(frame1, np.zeros((3, 16, 20)))
    assert main(["interp", "--ckpt", os.path.join(trained, "ckpt_final.ackp"),
                 "--frame0", frame0, "--frame1", str(frame1),
                 "--out", str(tmp_path / "mid.ppm")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: frames differ in size: {frame0} is 16x16, {frame1} is 16x20" in captured.err
    assert not (tmp_path / "mid.ppm").exists()


def test_interp_rejects_sides_not_divisible_by_the_depth(tmp_path, capsys):
    """An 18x18 pair at depth 2 fails at the input check, before any band is
    made: exit 1, the check's text, no output file."""
    ckpt = tmp_path / "depth2.ackp"
    save_checkpoint(ckpt, SynthModel(ModelConfig(kernel_size=3, depth=2, widths=(4, 4))))
    frames = np.random.default_rng(5).integers(0, 256, (2, 3, 18, 18)) / 255.0
    for i, frame in enumerate(frames):
        write_ppm(tmp_path / f"f{i}.ppm", frame)
    capsys.readouterr()
    assert main(["interp", "--ckpt", str(ckpt), "--frame0", str(tmp_path / "f0.ppm"),
                 "--frame1", str(tmp_path / "f1.ppm"), "--out", str(tmp_path / "mid.ppm"),
                 "--threads", "1"]) == 1
    assert capsys.readouterr().err == "error: input 18x18 not divisible by 2^depth = 4\n"
    assert not (tmp_path / "mid.ppm").exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
