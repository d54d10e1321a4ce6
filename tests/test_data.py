import numpy as np
import pytest

from momrank.data import (SplitSpec, StockPanel, compute_return, fraction_split_spec,
                          gen_synthetic, load_csv, normalize_features, split, trading_days)
from momrank.errors import ContractError, DataError


def panel_from_close(close, n_features=2):
    close = np.asarray(close, dtype=np.float64)
    t, n = close.shape
    return StockPanel(trading_days(t), [f"S{i:03d}" for i in range(n)], close,
                      np.zeros((t, n, n_features)), np.ones((t, n), dtype=bool))


# ---- compute_return ----

def test_return_up_10pct():
    p = panel_from_close([[100.0], [110.0]])
    assert compute_return(p).y[0, 0] == pytest.approx(0.10)


def test_return_constant_prices():
    p = panel_from_close(np.full((5, 3), 42.0))
    y = compute_return(p).y
    assert np.all(y[:-1] == 0.0) and np.all(np.isnan(y[-1]))


def test_return_down_10pct():
    p = panel_from_close([[100.0], [90.0]])
    assert compute_return(p).y[0, 0] == pytest.approx(-0.10)


def test_return_nonpositive_close_names_cell():
    p = panel_from_close([[100.0, 100.0], [110.0, -1.0]])
    with pytest.raises(DataError) as exc:
        compute_return(p)
    assert "S001" in str(exc.value)


def test_return_roundtrip_recovers_prices():
    p = gen_synthetic(30, 6, 0.5, seed=9)
    y = compute_return(p).y
    rebuilt = p.close[:-1] * (1.0 + y[:-1])
    np.testing.assert_allclose(rebuilt, p.close[1:], rtol=1e-12)


def test_return_masks_invalid_neighbors():
    p = panel_from_close(np.full((3, 2), 10.0))
    p.valid[1, 0] = False
    y = compute_return(p).y
    assert np.isnan(y[0, 0]) and np.isnan(y[1, 0]) and y[0, 1] == 0.0


# ---- load_csv ----

def write_csv(tmp_path, text):
    f = tmp_path / "panel.csv"
    f.write_text(text, encoding="utf-8")
    return f


def test_load_csv_full_grid(tmp_path):
    f = write_csv(tmp_path, "date,ticker,close,f0\n"
                            "2020-01-02,B,11,0.2\n"
                            "2020-01-01,A,10,0.1\n"
                            "2020-01-01,B,11,0.2\n"
                            "2020-01-02,A,10,0.1\n")
    p = load_csv(f)
    assert p.dates == ["2020-01-01", "2020-01-02"]
    assert p.tickers == ["A", "B"]
    assert p.valid.all()


def test_load_csv_missing_row_masked(tmp_path):
    f = write_csv(tmp_path, "date,ticker,close,f0\n"
                            "2020-01-01,A,10,0.1\n"
                            "2020-01-01,B,11,0.2\n"
                            "2020-01-02,A,10,0.1\n")
    p = load_csv(f)
    assert p.valid[0].all() and p.valid[1, 0] and not p.valid[1, 1]
    assert np.isnan(p.close[1, 1])


def test_load_csv_duplicate_key_reports_line(tmp_path):
    f = write_csv(tmp_path, "date,ticker,close,f0\n"
                            "2020-01-01,A,10,0.1\n"
                            "2020-01-01,A,10,0.1\n")
    with pytest.raises(DataError) as exc:
        load_csv(f)
    assert ":3:" in str(exc.value)


def test_load_csv_unparseable_reports_line(tmp_path):
    f = write_csv(tmp_path, "date,ticker,close,f0\n"
                            "2020-01-01,A,ten,0.1\n")
    with pytest.raises(DataError) as exc:
        load_csv(f)
    assert ":2:" in str(exc.value)


@pytest.mark.parametrize("bad_row", ["2020-01-02,A,nan,0.1", "2020-01-02,A,inf,0.1",
                                     "2020-01-02,A,10,NaN", "2020-01-02,A,10,-Infinity"])
def test_load_csv_non_finite_value_reports_line(tmp_path, bad_row):
    f = write_csv(tmp_path, "date,ticker,close,f0\n"
                            "2020-01-01,A,10,0.1\n"
                            "2020-01-01,B,11,0.2\n"
                            f"{bad_row}\n"
                            "2020-01-02,B,11,inf\n")
    with pytest.raises(DataError) as exc:
        load_csv(f)
    assert str(exc.value).startswith(f"{f}:4: ")


# ---- normalize_features ----

def test_normalize_three_values():
    p = panel_from_close(np.full((1, 3), 10.0), n_features=1)
    p.features[0, :, 0] = [1.0, 2.0, 3.0]
    z = normalize_features(p).features[0, :, 0]
    np.testing.assert_allclose(z, [-1.224744871, 0.0, 1.224744871], atol=1e-9)


def test_normalize_constant_channel_zeroed():
    p = panel_from_close(np.full((2, 4), 10.0), n_features=2)
    p.features[:, :, 0] = 7.0
    p.features[0, :, 1] = [1.0, 2.0, 3.0, 4.0]
    z = normalize_features(p).features
    assert np.all(z[:, :, 0] == 0.0)
    assert abs(z[0, :, 1].mean()) < 1e-12


def test_normalize_idempotent():
    p = gen_synthetic(25, 8, 0.3, seed=1)
    once = normalize_features(p)
    twice = normalize_features(once)
    np.testing.assert_allclose(once.features, twice.features, atol=1e-12)


def test_normalize_skips_invalid_cells():
    p = panel_from_close(np.full((1, 3), 10.0), n_features=1)
    p.valid[0, 2] = False
    p.features[0, :, 0] = [1.0, 3.0, np.nan]
    z = normalize_features(p).features[0, :, 0]
    np.testing.assert_allclose(z[:2], [-1.0, 1.0])
    assert np.isnan(z[2])


# ---- gen_synthetic ----

def test_synthetic_deterministic():
    a = gen_synthetic(30, 6, 0.4, seed=123)
    b = gen_synthetic(30, 6, 0.4, seed=123)
    np.testing.assert_array_equal(a.close, b.close)
    np.testing.assert_array_equal(a.features, b.features)
    assert a.dates == b.dates


def test_synthetic_zero_signal_uncorrelated():
    p = gen_synthetic(250, 50, 0.0, seed=5)
    y = compute_return(p).y
    cors = [np.corrcoef(p.features[t, :, 0], y[t])[0, 1] for t in range(249)]
    assert abs(float(np.mean(cors))) < 0.05


def test_synthetic_full_signal_correlated():
    p = gen_synthetic(60, 20, 1.0, seed=6)
    y = compute_return(p).y
    for t in range(0, 59, 7):
        assert np.corrcoef(p.features[t, :, 0], y[t])[0, 1] > 0.99


def test_synthetic_signal_shift_changes_late_dates():
    p = gen_synthetic(40, 10, 1.0, seed=2, shift_after=20, shifted_signal_strength=0.0)
    y = compute_return(p).y
    early = np.corrcoef(p.features[5, :, 0], y[5])[0, 1]
    late = np.corrcoef(p.features[30, :, 0], y[30])[0, 1]
    assert early > 0.99 and abs(late) < 0.9


def test_synthetic_contract():
    with pytest.raises(ContractError):
        gen_synthetic(10, 50, 0.5, seed=0)
    with pytest.raises(ContractError):
        gen_synthetic(30, 3, 0.5, seed=0)


# ---- split ----

def test_split_6_2_2():
    p = gen_synthetic(20, 5, 0.0, seed=0).subpanel(0, 10)
    d = p.dates
    spec = SplitSpec((d[0], d[5]), (d[6], d[7]), (d[8], d[9]))
    tr, va, te = split(p, spec)
    assert (tr.n_dates, va.n_dates, te.n_dates) == (6, 2, 2)
    assert tr.dates[-1] < va.dates[0] < te.dates[0]


def test_split_empty_range_errors():
    p = gen_synthetic(20, 5, 0.0, seed=0)
    d = p.dates
    spec = SplitSpec((d[0], d[5]), ("1990-01-01", "1990-01-02"), (d[8], d[9]))
    with pytest.raises(ContractError):
        split(p, spec)


def test_split_overlap_errors():
    p = gen_synthetic(20, 5, 0.0, seed=0)
    d = p.dates
    spec = SplitSpec((d[0], d[6]), (d[6], d[7]), (d[8], d[9]))
    with pytest.raises(ContractError):
        split(p, spec)


def test_split_boundary_date_in_one_split_only():
    p = gen_synthetic(20, 5, 0.0, seed=0)
    spec = fraction_split_spec(p, 0.5, 0.25)
    tr, va, te = split(p, spec)
    seen = tr.dates + va.dates + te.dates
    assert seen == p.dates  # partition, no date twice


def test_fraction_split_rejects_degenerate():
    p = gen_synthetic(20, 5, 0.0, seed=0)
    with pytest.raises(ContractError):
        fraction_split_spec(p, 0.99, 0.005)
