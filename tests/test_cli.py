import json
import os
import subprocess
import sys

import numpy as np
import pytest

import momrank
from momrank.cli import REPRODUCE_CELLS, main
from momrank.config import SCHEMA
from momrank.data import gen_synthetic, trading_days
from momrank.model import Architecture, init_params, save_checkpoint

FAST = ["data.n_dates=40", "data.n_tickers=8", "data.n_features=3",
        "data.signal_strength=0.9", "train.epochs=2", "train.window=2",
        "train.hidden=6,6", "momentum.gap=1", "momentum.length=1",
        "eval.precision_ns=2,4", "backtest.top_n=3", "train.lr=1e-3"]


def run(args, tmp_path, name, extra=None):
    out = tmp_path / name
    argv = list(args) + ["--out-dir", str(out)]
    for kv in FAST + (extra or []):
        argv += ["--set", kv]
    code = main(argv)
    return code, out


def read_csv_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    return lines[:header_idx], lines[header_idx], lines[header_idx + 1:]


def test_label_emits_csv(tmp_path):
    code, out = run(["label"], tmp_path, "lab")
    assert code == 0
    comments, header, rows = read_csv_lines(out / "labels.csv")
    assert header == "date,ticker,level"
    assert any(line.startswith("# seed") for line in comments)
    assert rows, "some cells should be labeled"
    levels = {int(r.split(",")[2]) for r in rows}
    assert levels <= {0, 1, 2, 3, 4}


def test_train_then_evaluate_then_backtest(tmp_path):
    code, train_out = run(["train"], tmp_path, "tr")
    assert code == 0
    ckpt = train_out / "checkpoint.json"
    assert ckpt.exists()
    comments, header, rows = read_csv_lines(train_out / "epochs.csv")
    assert header == "epoch,split,task,loss,V,beta,decay,ic,rank_ic"
    assert len(rows) == 2 * 2 * 2  # epochs x splits x tasks
    _, khead, krows = read_csv_lines(train_out / "k_hist.csv")
    assert khead == "k,count"
    assert sum(int(r.split(",")[1]) for r in krows) > 0

    code, eval_out = run(["evaluate", "--checkpoint", str(ckpt), "--split", "test"],
                         tmp_path, "ev")
    assert code == 0
    report = json.loads((eval_out / "report.json").read_text(encoding="utf-8"))
    assert "config" in report and report["split"] == "test"
    assert -1.0 <= report["report"]["ic"] <= 1.0
    assert report["config"]["backtest.top_n"] == "3"

    code, bt_out = run(["backtest", "--checkpoint", str(ckpt)], tmp_path, "bt")
    assert code == 0
    comments, header, rows = read_csv_lines(bt_out / "ledger.csv")
    assert header == "date,balance,daily_return"
    assert rows
    balances = [float(r.split(",")[1]) for r in rows]
    rets = [float(r.split(",")[2]) for r in rows]
    recomputed = np.cumprod([1.0 + r for r in rets])
    np.testing.assert_allclose(balances, recomputed, rtol=1e-12)


def test_evaluate_into_the_train_dir_keeps_the_training_k_histogram(tmp_path):
    code, out = run(["train"], tmp_path, "shared")
    assert code == 0
    k_hist = (out / "k_hist.csv").read_bytes()
    extra = json.loads((out / "checkpoint.json").read_text(encoding="utf-8"))["extra"]
    _, _, rows = read_csv_lines(out / "k_hist.csv")
    assert {k: int(c) for k, c in (r.split(",") for r in rows)} == extra["k_counts"]
    code, _ = run(["evaluate", "--checkpoint", str(out / "checkpoint.json")], tmp_path, "shared")
    assert code == 0
    assert (out / "k_hist.csv").read_bytes() == k_hist
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["report"]["k_histogram"]


def test_train_determinism_byte_identical(tmp_path):
    code_a, out_a = run(["train"], tmp_path, "d1")
    code_b, out_b = run(["train"], tmp_path, "d2")
    assert code_a == code_b == 0
    assert (out_a / "epochs.csv").read_bytes() == (out_b / "epochs.csv").read_bytes()
    assert (out_a / "checkpoint.json").read_bytes() == (out_b / "checkpoint.json").read_bytes()


def test_malformed_config_key_exits_1_no_artifacts(tmp_path):
    out = tmp_path / "bad"
    code = main(["train", "--set", "train.lrr=1", "--out-dir", str(out)])
    assert code == 1
    assert not out.exists()


def test_bad_config_file_exits_1(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("train.epochs = soon\n", encoding="utf-8")
    code = main(["train", "--config", str(cfgfile), "--out-dir", str(tmp_path / "x")])
    assert code == 1


def test_hidden_with_three_sizes_exits_1_naming_the_key(tmp_path, capsys):
    out = tmp_path / "hid"
    code = main(["train", "--set", "train.hidden=8,4,2", "--out-dir", str(out)])
    assert code == 1
    assert "train.hidden" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("hidden", ["0,4", "8,-2"])
def test_non_positive_hidden_size_is_a_config_error(tmp_path, capsys, hidden):
    out = tmp_path / "hid"
    code = main(["train", "--set", f"train.hidden={hidden}", "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "train.hidden" in err
    assert not out.exists()


@pytest.mark.parametrize("setting,named", [("data.n_features=0", "n_features"),
                                           ("data.n_dates=5", "n_dates"),
                                           ("data.n_tickers=4", "n_tickers"),
                                           ("data.signal_strength=2", "signal_strength"),
                                           ("data.signal_strength=-0.1", "signal_strength"),
                                           ("data.shifted_signal_strength=3",
                                            "shifted_signal_strength"),
                                           ("split.train_frac=0.9", "train_frac"),
                                           ("split.train_frac=0.8", "train_frac")])
def test_bad_synthetic_data_or_split_is_a_config_error(tmp_path, capsys, setting, named):
    out = tmp_path / "bad"
    code = main(["train", "--set", setting, "--set", "train.epochs=1", "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("end", ["2018-3-1", "garbage", "2018-02-30"])
def test_split_endpoint_not_written_yyyy_mm_dd_is_a_config_error(tmp_path, capsys, end):
    # compared as strings, 2018-3-1 would select dates through 2018-03-26
    out = tmp_path / "dates"
    argv = ["train", "--set", "data.n_dates=60", "--set", "split.train=2018-01-02:2018-01-31",
            "--set", "split.valid=2018-02-01:2018-02-20",
            "--set", f"split.test=2018-02-21:{end}", "--out-dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"config error: bad value for split.test: range must look like "
        f"YYYY-MM-DD:YYYY-MM-DD, got '2018-02-21:{end}'\n")
    assert not out.exists()


MOMENTUM_LABEL = ("the momentum label (a line of momentum.gap + momentum.length = 4 + 6 = 10 "
                  "days ending momentum.anchor_offset = 2 days ahead)")
SPLITS = ("train", "valid", "test")


def short_split(name, dates, others):
    """``--set`` pairs cutting a synthetic panel into date-range splits: the
    named one of ``dates`` dates, the other two of ``others`` dates each."""
    sizes = [dates if split_name == name else others for split_name in SPLITS]
    days = trading_days(sum(sizes))
    argv, lo = ["--set", f"data.n_dates={sum(sizes)}"], 0
    for split_name, size in zip(SPLITS, sizes):
        argv += ["--set", f"split.{split_name}={days[lo]}:{days[lo + size - 1]}"]
        lo += size
    return argv


def no_usable_day(name, dates, window, by_window, by_return, by_label=None):
    """The stderr of a run refused for a split with no usable day; ``by_label``
    is None where the split is scored without labels."""
    label = "" if by_label is None else f", {MOMENTUM_LABEL} leaves {by_label}"
    return (f"error: no usable day in the {name} split: of its {dates} dates, "
            f"train.window = {window} leaves {by_window}{label} and the next-day return "
            f"leaves {by_return}; no day has 2 names that pass "
            f"{'both' if by_label is None else 'all three'}\n")


@pytest.mark.parametrize("settings,dates,window,by_window,by_label,by_return", [
    ([], 12, 20, 0, 2, 11),                           # split shorter than the window
    ([], 2, 20, 0, 0, 1),                             # a 2-date split
    (["train.window=200"], 150, 200, 0, 140, 149),    # window longer than the split
])
def test_no_training_day_names_each_constraint(tmp_path, capsys, settings, dates, window,
                                               by_window, by_label, by_return):
    # the other splits are long enough to have usable days; train never reads the test split
    for name in ("train", "valid"):
        out = tmp_path / name
        argv = ["train", "--set", "train.epochs=1", "--out-dir", str(out)]
        for kv in settings:
            argv += ["--set", kv]
        assert main(argv + short_split(name, dates, window + 20)) == 2
        assert capsys.readouterr().err == no_usable_day(name, dates, window, by_window,
                                                        by_return, by_label)
        assert not out.exists()


FOUND_VALID = ["data.n_dates=60", "data.n_tickers=12", "train.epochs=40", "train.patience=5",
               "train.window=10", "split.train_frac=0.7", "split.valid_frac=0.1"]


@pytest.mark.parametrize("command", ["train", "reproduce"])
def test_a_valid_split_with_no_usable_day_exits_2_before_writing(tmp_path, capsys, command):
    # 60 dates split 42/6/12: no valid date has a 10-day window, so V and the best
    # epoch would have nothing to follow
    out = tmp_path / "out"
    argv = [command, "--out-dir", str(out)]
    for kv in FOUND_VALID:
        argv += ["--set", kv]
    assert main(argv) == 2
    assert capsys.readouterr().err == no_usable_day("valid", 6, 10, 0, 5, by_label=0)
    assert not out.exists()


def test_a_one_date_valid_split_is_refused_by_name(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["train", "--out-dir", str(out)]
    for kv in ("data.n_dates=40", "data.n_tickers=8", "train.window=5",
               "split.train_frac=0.9", "split.valid_frac=0.03"):
        argv += ["--set", kv]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: no usable day in the valid split: of its 1 date, train.window = 5 leaves 0, "
        f"{MOMENTUM_LABEL} leaves 0 and the next-day return leaves 0; no day has 2 names "
        f"that pass all three\n")
    assert not out.exists()


def test_missing_checkpoint_exits_2(tmp_path):
    code, _ = run(["evaluate", "--checkpoint", str(tmp_path / "nope.json")], tmp_path, "e2")
    assert code == 2


def test_malformed_checkpoint_exits_2_naming_file(tmp_path, capsys):
    ckpt = tmp_path / "bad.json"
    ckpt.write_text("{not json", encoding="utf-8")
    for command in ("evaluate", "backtest"):
        code, _ = run([command, "--checkpoint", str(ckpt)], tmp_path, command)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {ckpt}: ")


@pytest.mark.parametrize("override,named", [
    ("train.task=rise_fall", "arch.n_classes = 5 does not match train.task=rise_fall (2)"),
    ("train.window=3", "arch.window = 2 does not match train.window (3)"),
    ("data.n_features=4", "arch.n_features = 3 does not match the panel's n_features (4)"),
    ("train.hidden=7,3", "arch.hidden = 6,6 does not match train.hidden (7,3)")])
def test_checkpoint_not_matching_the_run_exits_2_naming_both_values(tmp_path, capsys,
                                                                    override, named):
    code, train_out = run(["train"], tmp_path, "tr", extra=["train.epochs=1"])
    assert code == 0
    ckpt = train_out / "checkpoint.json"
    for command in ("evaluate", "backtest"):
        capsys.readouterr()
        code, out = run([command, "--checkpoint", str(ckpt)], tmp_path, command,
                        extra=[override])
        assert code == 2
        assert capsys.readouterr().err == f"error: {ckpt}: checkpoint {named}\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def default_checkpoint(tmp_path_factory):
    """A 1-epoch checkpoint of the default config on a 150-date panel (a 30-date
    valid split, 11 of whose dates have a full 20-day window)."""
    out = tmp_path_factory.mktemp("default_train")
    assert main(["train", "--set", "data.n_dates=150", "--set", "train.epochs=1",
                 "--out-dir", str(out)]) == 0
    return out / "checkpoint.json"


def run_on_short_split(command, checkpoint, out, name):
    # the named split has 8 dates, shorter than train.window = 20
    return main([command, "--checkpoint", str(checkpoint), "--split", name, "--out-dir", str(out)]
                + short_split(name, 8, 30))


def test_evaluate_on_a_split_with_no_scoreable_day_exits_2(tmp_path, capsys, default_checkpoint):
    for name in SPLITS:
        out = tmp_path / name
        assert run_on_short_split("evaluate", default_checkpoint, out, name) == 2
        assert capsys.readouterr().err == no_usable_day(name, 8, 20, 0, 7)
        assert not out.exists()


def test_backtest_on_a_split_with_no_scoreable_day_exits_2(tmp_path, capsys, default_checkpoint):
    for name in SPLITS:
        out = tmp_path / name
        assert run_on_short_split("backtest", default_checkpoint, out, name) == 2
        assert capsys.readouterr().err == no_usable_day(name, 8, 20, 0, 7)
        assert not out.exists()


def test_csv_source_roundtrip(tmp_path):
    # label on synthetic, dump a tiny csv panel, then label from csv
    csv_path = tmp_path / "panel.csv"
    lines = ["date,ticker,close,f0"]
    import momrank.data as data
    panel = data.gen_synthetic(25, 5, 0.0, seed=1, n_features=1)
    for t, d in enumerate(panel.dates):
        for i, tick in enumerate(panel.tickers):
            lines.append(f"{d},{tick},{float(panel.close[t, i])!r},{float(panel.features[t, i, 0])!r}")
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "fromcsv"
    code = main(["label", "--set", "data.source=csv", "--set", f"data.csv_path={csv_path}",
                 "--set", "momentum.gap=1", "--set", "momentum.length=1",
                 "--out-dir", str(out)])
    assert code == 0
    assert (out / "labels.csv").exists()


def test_a_zero_close_in_a_csv_fails_label_and_train_alike(tmp_path, capsys):
    panel = gen_synthetic(40, 6, 0.6, seed=3, n_features=1)
    panel.close[17, 4] = 0.0
    csv_path = tmp_path / "panel.csv"
    csv_path.write_text("date,ticker,close,f0\n" + "".join(
        f"{d},{tick},{float(panel.close[t, i])!r},{float(panel.features[t, i, 0])!r}\n"
        for t, d in enumerate(panel.dates) for i, tick in enumerate(panel.tickers)),
        encoding="utf-8")
    for command, artifact in (("label", "labels.csv"), ("train", "checkpoint.json")):
        out = tmp_path / command
        code = main([command, "--set", "data.source=csv", "--set", f"data.csv_path={csv_path}",
                     "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: non-positive close at date {panel.dates[17]} ticker S004\n")
        assert not (out / artifact).exists()


def test_a_csv_with_no_feature_column_fails_label_and_train_alike(tmp_path, capsys):
    csv_path = tmp_path / "panel.csv"
    csv_path.write_text("date,ticker,close\n" + "".join(
        f"{d},S{i},{10 + i}\n" for d in trading_days(30) for i in range(6)), encoding="utf-8")
    for command in ("label", "train"):
        code = main([command, "--set", "data.source=csv", "--set", f"data.csv_path={csv_path}",
                     "--out-dir", str(tmp_path / command)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {csv_path}: header has no feature column after 'date,ticker,close'\n")


def test_negative_seed_is_a_config_error_before_the_panel_is_read(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["train", "--set", "seed=-1", "--set", "data.source=csv",
                 "--set", f"data.csv_path={tmp_path / 'absent.csv'}", "--out-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_a_decay_step_that_flips_the_weights_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["train", "--set", "train.lr=1e300", "--out-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: train.lr * train.decay must be <= 1, got 1e+300 * 0.001\n")
    assert not out.exists()


def cli_subprocess_env():
    """The environment for running the CLI in a child process from this source tree."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(momrank.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli_process(argv):
    """The CLI in a child process, so that stderr holds whatever numpy would warn."""
    return subprocess.run(
        [sys.executable, "-c", "import sys; from momrank.cli import main; sys.exit(main())"]
        + argv, env=cli_subprocess_env(), capture_output=True, text=True)


def test_a_diverging_run_prints_only_the_divergence_error(tmp_path):
    out = tmp_path / "out"
    argv = ["train", "--set", "data.n_dates=150", "--set", "data.n_tickers=12",
            "--set", "train.epochs=2", "--set", "train.lr=1e300", "--set", "train.decay=0",
            "--out-dir", str(out)]
    proc = run_cli_process(argv)
    assert proc.returncode == 2
    assert proc.stderr == "error: training diverged at epoch 1, day index 20\n"
    assert not out.exists()


def test_a_last_step_that_diverges_is_reported_at_its_day(tmp_path):
    # the train split has one usable day, so no later day's loss can reveal its step
    out = tmp_path / "out"
    argv = ["train", "--set", "data.n_dates=20", "--set", "split.train_frac=0.2",
            "--set", "split.valid_frac=0.3", "--set", "train.window=2",
            "--set", "momentum.gap=1", "--set", "momentum.length=1", "--set", "train.epochs=1",
            "--set", "train.lr=1e300", "--set", "train.decay=0", "--out-dir", str(out)]
    proc = run_cli_process(argv)
    assert proc.returncode == 2
    assert proc.stderr == "error: training diverged at epoch 1, day index 1\n"
    assert not out.exists()


def test_evaluate_rejects_a_checkpoint_holding_nan(tmp_path, capsys):
    code, train_out = run(["train"], tmp_path, "tr")
    assert code == 0
    path = train_out / "checkpoint.json"
    blob = json.loads(path.read_text(encoding="utf-8"))
    blob["params"]["trunk.b1"]["data"][2] = float("nan")
    path.write_text(json.dumps(blob), encoding="utf-8")
    capsys.readouterr()
    code, out = run(["evaluate", "--checkpoint", str(path)], tmp_path, "ev")
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {path}: parameter trunk.b1 holds a non-finite value\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["label", "train", "evaluate", "backtest"])
def test_a_csv_date_whose_feature_sums_overflow_exits_2_naming_it(tmp_path, command):
    # every value is finite, but the date's cross-section of f1 sums past the float range
    panel = gen_synthetic(40, 6, 0.6, seed=3, n_features=2)
    panel.features[17, :, 1] = 1.5e308
    csv_path = tmp_path / "panel.csv"
    csv_path.write_text("date,ticker,close,f0,f1\n" + "".join(
        f"{d},{tick}," + ",".join(repr(float(v)) for v in (panel.close[t, i],
                                                         *panel.features[t, i])) + "\n"
        for t, d in enumerate(panel.dates) for i, tick in enumerate(panel.tickers)),
        encoding="utf-8")
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, init_params(Architecture(20, 2, (64, 64), 5), seed=0), extra={})
    out = tmp_path / "out"
    argv = [command, "--set", "data.source=csv", "--set", f"data.csv_path={csv_path}",
            "--out-dir", str(out)]
    proc = run_cli_process(argv + (["--checkpoint", str(ckpt)]
                                   if command in ("evaluate", "backtest") else []))
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: non-finite close or feature at date {panel.dates[17]} ticker S000\n")
    assert not out.exists()


def test_a_checkpoint_with_a_boolean_window_exits_2_naming_the_file(tmp_path, capsys):
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, init_params(Architecture(2, 3, (6, 6), 5), seed=0), extra={})
    blob = json.loads(ckpt.read_text(encoding="utf-8"))
    blob["arch"]["window"] = True
    ckpt.write_text(json.dumps(blob), encoding="utf-8")
    code, out = run(["evaluate", "--checkpoint", str(ckpt)], tmp_path, "ev")
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {ckpt}: bad arch: architecture sizes must be integers, "
        f"got (True, 3, 6, 6, 5)\n")
    assert not out.exists()


def test_backtest_at_a_full_day_charge_floors_the_account_at_zero(tmp_path):
    code, train_out = run(["train"], tmp_path, "tr")
    assert code == 0
    code, bt_out = run(["backtest", "--checkpoint", str(train_out / "checkpoint.json")],
                       tmp_path, "bt", extra=["backtest.cost_bps=5000"])
    assert code == 0
    comments, _, rows = read_csv_lines(bt_out / "ledger.csv")
    assert "# cumulative_return_pct = -100.0" in comments
    balances = [float(r.split(",")[1]) for r in rows]
    assert min(balances) == 0.0 and balances[-1] == 0.0


def test_reproduce_cells_override_only_train_and_loss_keys():
    # cmd_reproduce prepares and splits the panel once for every cell
    keys = {key for _, delta in REPRODUCE_CELLS for key in delta} | {"loss.fixed_k"}
    assert keys <= set(SCHEMA)
    assert {key.split(".")[0] for key in keys} <= {"train", "loss"}


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    """``reproduce`` on the FAST panel."""
    code, out = run(["reproduce"], tmp_path_factory.mktemp("reproduce"), "rep")
    assert code == 0
    return out


def test_reproduce_emits_comparison_table(reproduced):
    comments, header, rows = read_csv_lines(reproduced / "comparison.csv")
    cols = header.split(",")
    assert cols[:3] == ["variant", "ic", "rank_ic"]
    variants = [r.split(",")[0] for r in rows]
    assert variants == ["full", "equal_weight", "single_task", "rise_fall",
                        "pairwise", "fixed_k", "fixed_beta", "fixed_decay"]
    for name in ("full", "fixed_k"):
        assert (reproduced / name / "checkpoint.json").exists()


CELL_ARTIFACTS = ["checkpoint.json", "epochs.csv", "k_hist.csv", "ledger.csv", "report.json"]


@pytest.mark.parametrize("cell,override", [("fixed_beta", "train.mode=fixed_beta"),
                                           ("fixed_k", "loss.fixed_k=3")])  # FAST's top_n
def test_a_reproduce_cell_holds_the_commands_artifacts_byte_for_byte(tmp_path, reproduced,
                                                                     cell, override):
    code, out = run(["train"], tmp_path, "commands", extra=[override])
    assert code == 0
    for command in ("evaluate", "backtest"):
        code, _ = run([command, "--checkpoint", str(out / "checkpoint.json")], tmp_path,
                      "commands", extra=[override])
        assert code == 0
    assert sorted(p.name for p in (reproduced / cell).iterdir()) == CELL_ARTIFACTS
    for name in CELL_ARTIFACTS:
        assert (reproduced / cell / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("top_n", [8, 9])
def test_reproduce_with_a_top_n_holding_every_ticker_exits_2_before_writing(tmp_path, capsys,
                                                                            top_n):
    code, out = run(["reproduce"], tmp_path, "rep", extra=[f"backtest.top_n={top_n}"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: backtest.top_n = {top_n} must be below the panel's 8 tickers\n")
    assert not out.exists()


def test_reproduce_with_no_scoreable_test_day_exits_2_before_training(tmp_path, capsys):
    # each split in turn has 9 dates, shorter than train.window = 10; the test split is
    # checked before the first cell, the train and valid splits before it trains
    for name in SPLITS:
        out = tmp_path / name
        argv = ["reproduce", "--out-dir", str(out)]
        for kv in ("data.n_tickers=12", "train.epochs=1", "backtest.top_n=5",
                   "train.window=10"):
            argv += ["--set", kv]
        assert main(argv + short_split(name, 9, 30)) == 2
        assert capsys.readouterr().err == no_usable_day(
            name, 9, 10, 0, 8, by_label=None if name == "test" else 0)
        assert not out.exists()


def test_reproduce_reports_each_cell_on_stderr(tmp_path, capsys):
    code, out = run(["reproduce"], tmp_path, "rep", extra=["train.epochs=1"])
    assert code == 0
    lines = capsys.readouterr().err.splitlines()
    _, _, rows = read_csv_lines(out / "comparison.csv")
    assert len(lines) == len(rows) == 8
    for i, (line, row) in enumerate(zip(lines, rows), 1):
        name, ic = row.split(",")[:2]
        prefix = f"reproduce [{i}/8] {name}: "
        assert line.startswith(prefix) and line.endswith(f" s, test IC {float(ic):.4f}")
        assert float(line[len(prefix):].split(" s,")[0]) >= 0.0


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Records the BLAS variables at the moment numpy is first imported, then
# imports the CLI module as the console script does.
SPY_NUMPY_IMPORT = f"""
import json, os, sys
seen = {{}}
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((v, os.environ.get(v)) for v in {BLAS_VARS!r})
sys.meta_path.insert(0, Spy())
import momrank.cli
print(json.dumps(seen))
"""


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("2", "2")])
def test_cli_sets_one_blas_thread_before_numpy_unless_set(preset, expected):
    env = {k: v for k, v in cli_subprocess_env().items() if k not in BLAS_VARS}
    env.update({v: preset for v in BLAS_VARS if preset is not None})
    out = subprocess.run([sys.executable, "-c", SPY_NUMPY_IMPORT], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == {v: expected for v in BLAS_VARS}
