"""Tests of the benchmark's own parts: the reference against closed forms,
each output check against a deliberately corrupted output, and the tracer.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

import contextlib
import io
import os
import shutil
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from adacof import cli  # noqa: E402


def params(f, d, weights, alpha, beta, occ=None):
    return {"F": f, "d": d, "weights": weights, "alpha": alpha, "beta": beta, "occ": occ}


def all_pixels(h, w):
    return tuple(a.ravel() for a in np.mgrid[0:h, 0:w])


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# -- the reference against closed forms --------------------------------------

def test_reference_identity_parameters():
    rng = np.random.default_rng(0)
    img = rng.random((3, 9, 11))
    rows, cols = all_pixels(9, 11)
    one = np.ones((1, 9, 11))
    zero = np.zeros((1, 9, 11))
    out = reference.warp_pixels(img, params(1, 0, one, zero, zero), rows, cols)
    np.testing.assert_array_equal(out, img[:, rows, cols])
    # F=3 with all weight on the centre tap and zero offsets is the identity too
    w3 = np.zeros((9, 9, 11))
    w3[4] = 1.0
    z3 = np.zeros((9, 9, 11))
    out = reference.warp_pixels(img, params(3, 2, w3, z3, z3), rows, cols)
    np.testing.assert_array_equal(out, img[:, rows, cols])


def test_reference_integer_shift_on_interior():
    rng = np.random.default_rng(1)
    img = rng.random((3, 12, 10))
    h, w = 12, 10
    rows, cols = all_pixels(h, w)
    p = params(1, 0, np.ones((1, h, w)), np.full((1, h, w), 2.0), np.full((1, h, w), -1.0))
    out = reference.warp_pixels(img, p, rows, cols).reshape(3, h, w)
    np.testing.assert_array_equal(out[:, :h - 2, 1:], img[:, 2:, :w - 1])
    # past the border the replicate boundary repeats the last row and column
    np.testing.assert_array_equal(out[:, h - 2:, 1:], img[:, h - 1:, :w - 1].repeat(2, axis=1))
    np.testing.assert_array_equal(out[:, :h - 2, 0], img[:, 2:, 0])


def test_reference_half_pixel_shift_is_the_mean_of_neighbours():
    img = np.arange(2 * 5 * 6, dtype=float).reshape(2, 5, 6) / 60.0
    rows, cols = np.array([2]), np.array([3])
    p = params(1, 0, np.ones((1, 5, 6)), np.zeros((1, 5, 6)), np.full((1, 5, 6), 0.5))
    out = reference.warp_pixels(img, p, rows, cols)
    np.testing.assert_allclose(out[:, 0], 0.5 * (img[:, 2, 3] + img[:, 2, 4]))


def test_reference_reader_rejects_a_truncated_file(tmp_path):
    path = tmp_path / "t.ppm"
    reference.write_ppm(str(path), np.zeros((3, 4, 5)))
    data = path.read_bytes()
    for cut in (len(data) - 1, 6):  # short pixel data, then a cut inside the header
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError):
            reference.read_ppm(str(path))


# -- each check fails on a corrupted output ----------------------------------

@pytest.fixture
def interp_case(tmp_path):
    """A small seeded pair, a checkpoint with non-zero heads, and the interp output."""
    assert run_cli(["gen-data", "--out", str(tmp_path / "data"), "--count", "2", "--size", "32",
                    "--seed", "3"])[0] == 0
    ckpt = str(tmp_path / "model.ackp")
    workloads.make_checkpoint(ckpt, 3)
    d = tmp_path / "data" / "0000"
    out = str(tmp_path / "out.ppm")
    dump = str(tmp_path / "params.acof")
    code, _, err = run_cli(workloads.interp_argv(ckpt, str(d), out, "--dump-params", dump))
    assert code == 0, err
    rows, cols = checks.sample_pixels(32, 32, 200, np.random.default_rng(0))
    return {"dir": d, "ckpt": ckpt, "out": out, "dump": dump, "rows": rows, "cols": cols,
            "frame0": str(d / "frame0.ppm"), "frame1": str(d / "frame2.ppm"), "tmp": tmp_path}


def run_interp_check(case, out=None):
    checks.check_interp_output(case["frame0"], case["frame1"], out or case["out"],
                               case["dump"], case["rows"], case["cols"])


def test_interp_check_passes_on_program_output(interp_case):
    run_interp_check(interp_case)


def test_interp_check_fails_on_a_changed_pixel(interp_case):
    px = reference.read_ppm(interp_case["out"])
    r, c = interp_case["rows"][5], interp_case["cols"][5]
    px[1, r, c] = px[1, r, c] + 2 / 255 if px[1, r, c] < 0.5 else px[1, r, c] - 2 / 255
    bad = str(interp_case["tmp"] / "bad.ppm")
    reference.write_ppm(bad, px)
    with pytest.raises(checks.CheckFailed, match="pixel"):
        run_interp_check(interp_case, bad)


def test_interp_check_fails_on_a_wrong_size(interp_case):
    bad = str(interp_case["tmp"] / "small.ppm")
    reference.write_ppm(bad, reference.read_ppm(interp_case["out"])[:, :28, :])
    with pytest.raises(checks.CheckFailed, match="28x32"):
        run_interp_check(interp_case, bad)


def test_byte_identity_check_fails_on_a_changed_byte(interp_case):
    copy = str(interp_case["tmp"] / "copy.ppm")
    shutil.copy(interp_case["out"], copy)
    checks.check_same_bytes(interp_case["out"], copy, "copy")
    with open(copy, "r+b") as f:
        f.seek(-1, os.SEEK_END)
        last = f.read(1)
        f.seek(-1, os.SEEK_END)
        f.write(bytes([last[0] ^ 1]))
    with pytest.raises(checks.CheckFailed, match="differ"):
        checks.check_same_bytes(interp_case["out"], copy, "copy")


def test_triplet_psnr_check_fails_on_a_wrong_report(interp_case):
    d = str(interp_case["dir"])
    code, out, _ = run_cli(["eval", "--ckpt", interp_case["ckpt"],
                            "--data", str(interp_case["tmp"] / "data")])
    assert code == 0
    rows, _ = checks.check_eval_report(out, ["0000", "0001"])
    checks.check_triplet_psnr(rows["0000"], d, interp_case["dump"])
    with pytest.raises(checks.CheckFailed, match="reference gives"):
        checks.check_triplet_psnr(rows["0000"] + 0.05, d, interp_case["dump"])


def test_eval_report_check_fails_on_a_wrong_mean_or_order():
    good = "name,psnr_db,ssim,ie\na,30,0.9,5\nb,32,0.9,4\nmean,31,0.9,4.5\n"
    rows, mean = checks.check_eval_report(good, ["a", "b"])
    assert rows == {"a": 30.0, "b": 32.0} and mean == 31.0
    with pytest.raises(checks.CheckFailed, match="not the mean"):
        checks.check_eval_report(good.replace("mean,31", "mean,31.5"), ["a", "b"])
    with pytest.raises(checks.CheckFailed, match="manifest"):
        checks.check_eval_report(good, ["b", "a"])


def write_metrics(path, losses):
    with open(path, "w") as f:
        f.write("epoch,phase,loss,val_psnr,val_ssim\n")
        for i, loss in enumerate(losses):
            f.write(f"{i},distortion,{loss},30,0.9\n")


def test_training_check_fails_below_frame_average_or_on_rising_loss(tmp_path):
    csv = str(tmp_path / "metrics.csv")
    write_metrics(csv, [0.04, 0.03, 0.02])
    assert checks.check_training("final,0.02,33.5,0.95", csv, 31.0) == 33.5
    with pytest.raises(checks.CheckFailed, match="does not beat"):
        checks.check_training("final,0.02,30.9,0.95", csv, 31.0)
    with pytest.raises(checks.CheckFailed, match="expected final"):
        checks.check_training("epoch 3 loss 0.02", csv, 31.0)
    write_metrics(csv, [0.03, 0.02, 0.035])
    with pytest.raises(checks.CheckFailed, match="loss went"):
        checks.check_training("final,0.035,33.5,0.95", csv, 31.0)


def test_frame_average_psnr_matches_closed_form(tmp_path):
    d = tmp_path / "t"
    d.mkdir()
    first = np.full((3, 16, 16), 0.2)
    last = np.full((3, 16, 16), 0.6)
    middle = np.full((3, 16, 16), 0.4 + 10 / 255)
    for i, px in enumerate((first, middle, last)):
        reference.write_ppm(str(d / f"frame{i}.ppm"), px)
    q = [np.floor(v * 255 + 0.5) / 255 for v in (0.2, 0.4 + 10 / 255, 0.6)]
    expected = 10 * np.log10(1 / ((0.5 * (q[0] + q[2]) - q[1]) ** 2))
    assert checks.frame_average_psnr([str(d)]) == pytest.approx(expected)


class SmallInterp(workloads.Interp256):
    SIZE = 32
    ODD_SIZE = (30, 26)
    PIXELS_PER_CHECK = 100


def test_interp_workload_check_fails_on_a_changed_timed_output(tmp_path):
    wl = SmallInterp(run_cli, str(tmp_path), 5)
    wl.prepare()
    codes = [run_cli(op.argv)[0] for op in wl.round()]
    assert codes == [0, 0, 0, 1]  # the odd-sized pair is the known fault
    assert 10 < wl.check() < 60
    out = os.path.join(wl.pair_dirs[1], "out.ppm")
    px = reference.read_ppm(out)
    reference.write_ppm(out, 1.0 - px)
    with pytest.raises(checks.CheckFailed, match="timed output vs checked output"):
        wl.check()


def test_repeated_operations_must_agree(tmp_path):
    train = workloads.TrainAcc(run_cli, str(tmp_path), 1)
    train.finals = ["final,0.02,33.5,0.95", "final,0.02,33.4,0.95"]
    with pytest.raises(checks.CheckFailed, match="disagree"):
        train.check()
    ev = workloads.Eval32(run_cli, str(tmp_path), 1)
    ev.reports = ["name,psnr_db,ssim,ie\n", "name,psnr_db,ssim,ie\nx,1,1,1\n"]
    with pytest.raises(checks.CheckFailed, match="different reports"):
        ev.check()


# -- the known fault and the tracer ------------------------------------------

def test_odd_sized_pair_is_the_known_fault(interp_case):
    tmp = interp_case["tmp"]
    for name in ("frame0", "frame1"):
        px = reference.read_ppm(interp_case[name])
        reference.write_ppm(str(tmp / f"odd_{name}.ppm"), px[:, :30, :26])
    code, _, err = run_cli(["interp", "--ckpt", interp_case["ckpt"],
                            "--frame0", str(tmp / "odd_frame0.ppm"),
                            "--frame1", str(tmp / "odd_frame1.ppm"),
                            "--out", str(tmp / "odd.ppm"), "--threads", "1"])
    assert code == 1 and "not divisible by 2^depth" in err


def test_tracer_sees_imported_bindings_and_vjps(tmp_path, monkeypatch):
    import adacof.train
    import adacof.warp

    original = adacof.warp.forward_warp
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [("warp", "no_such_fn", None, None)])
    tr = tracer.Tracer()
    tr.install()
    try:
        assert adacof.train.forward_warp is not original  # bound by `from .warp import`
        assert run_cli(["gen-data", "--out", str(tmp_path / "d"), "--count", "1",
                        "--size", "16", "--seed", "1"])[0] == 0
        from adacof import nn
        x = np.random.default_rng(0).random((1, 2, 4, 4))
        y, vjp = nn.conv3x3(x, np.ones((3, 2, 3, 3)), np.zeros(3))
        vjp(np.ones_like(y))
    finally:
        tr.uninstall()
    assert adacof.train.forward_warp is original and adacof.warp.forward_warp is original
    times = tr.self_times()
    assert tr.metric("cli.main.calls") == 1
    assert tr.metric("core.sample_grid.self_s", times) > 0
    assert tr.metric("nn.conv3x3.vjp_s", times) > 0
    assert tr.metric("nn.conv3x3.gmac") == pytest.approx(3 * 16 * 3 * 2 * 9 / 1e9)
    assert tr.metric("warp.no_such_fn.self_s", times) == 0.0
    assert tr.absent == ["warp.no_such_fn"] and not tr.uncounted
    # self time excludes child spans: the parent's self time is below its span
    main_span = next(s for s in tr.spans if s[0] == "cli.main")
    assert times["cli.main"] < main_span[2] - main_span[1]
