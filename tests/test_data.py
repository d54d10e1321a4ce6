import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momrank.data import (_CHUNK, SplitSpec, StockPanel, compute_return, fraction_split_spec,
                          gen_synthetic, load_csv, normalize_features, split, trading_days)
from momrank import data
from momrank.errors import ContractError, DataError
from oracles import load_csv_chunked


def panel_from_close(close, n_features=2):
    close = np.asarray(close, dtype=np.float64)
    t, n = close.shape
    return StockPanel(trading_days(t), [f"S{i:03d}" for i in range(n)], close,
                      np.zeros((t, n, n_features)), np.ones((t, n), dtype=bool))


# ---- compute_return ----

def test_return_up_10pct():
    p = panel_from_close([[100.0], [110.0]])
    assert compute_return(p)[0, 0] == pytest.approx(0.10)


def test_return_constant_prices():
    p = panel_from_close(np.full((5, 3), 42.0))
    y = compute_return(p)
    assert np.all(y[:-1] == 0.0) and np.all(np.isnan(y[-1]))


def test_return_down_10pct():
    p = panel_from_close([[100.0], [90.0]])
    assert compute_return(p)[0, 0] == pytest.approx(-0.10)


def test_return_nonpositive_close_names_cell():
    for bad in (-1.0, 0.0):  # the panel rejects it when built, before any return
        with pytest.raises(DataError) as exc:
            panel_from_close([[100.0, 100.0], [110.0, bad]])
        assert str(exc.value) == "non-positive close at date 2018-01-03 ticker S001"


def test_panel_checks_finiteness_before_positive_closes():
    close = np.array([[100.0, -1.0], [np.inf, 100.0]])
    with pytest.raises(DataError, match="^non-finite close or feature at date 2018-01-03 "):
        panel_from_close(close)
    masked = StockPanel(trading_days(2), ["S000", "S001"], close, np.zeros((2, 2, 1)),
                        np.array([[True, False], [False, True]]))  # invalid cells may be <= 0
    assert masked.valid.sum() == 2


@pytest.mark.parametrize("channel,where,date,ticker", [
    ("features", (60, 3, 1), "2018-03-27", "S003"),
    ("close", (30, 2), "2018-02-13", "S002"),
    ("features", (5, 0, 0), "2018-01-09", "S000"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_panel_rejects_non_finite_valid_cell_naming_date_and_ticker(channel, where, date,
                                                                    ticker, bad):
    p = gen_synthetic(80, 10, 0.6, seed=1)
    arrays = {"close": p.close.copy(), "features": p.features.copy()}
    arrays[channel][where] = bad
    with pytest.raises(DataError) as exc:
        StockPanel(p.dates, p.tickers, arrays["close"], arrays["features"], p.valid.copy())
    assert str(exc.value) == f"non-finite close or feature at date {date} ticker {ticker}"


def test_panel_accepts_non_finite_invalid_cell_and_names_the_first_valid_one():
    p = gen_synthetic(40, 6, 0.6, seed=2)
    close, features, valid = p.close.copy(), p.features.copy(), p.valid.copy()
    close[3, 1] = features[3, 4, 2] = np.nan
    valid[3, 1] = valid[3, 4] = False
    StockPanel(p.dates, p.tickers, close, features, valid)  # masked cells may carry NaN
    features[7, 5, 0] = close[9, 0] = np.nan  # first in date order: 7, then 9
    with pytest.raises(DataError, match=f"date {p.dates[7]} ticker S005"):
        StockPanel(p.dates, p.tickers, close, features, valid)


def test_panels_cut_or_normalized_from_a_panel_are_scanned(monkeypatch):
    p = gen_synthetic(40, 6, 0.6, seed=2)
    valid = np.random.default_rng(3).random(p.valid.shape) >= 0.1
    masked = StockPanel(p.dates, p.tickers, np.where(valid, p.close, np.nan),
                        np.where(valid[..., None], p.features, np.nan), valid)
    scans = []

    def counting_check(panel):
        scans.append(panel)
        return check_cells(panel)

    check_cells = data._check_cells
    monkeypatch.setattr(data, "_check_cells", counting_check)
    normalized = normalize_features(masked)
    parts = split(normalized, fraction_split_spec(masked, 0.6, 0.2))
    assert [part.n_dates for part in parts] == [24, 8, 8]
    assert scans == [normalized, *parts]


def test_normalizing_a_date_whose_sums_overflow_names_it_without_warnings():
    p = gen_synthetic(40, 6, 0.6, seed=2, n_features=2)
    p.features[17, :, 1] = 1.5e308  # finite, but six of them sum past the float range
    with warnings.catch_warnings(), pytest.raises(DataError) as exc:
        warnings.simplefilter("error")
        normalize_features(p)
    assert str(exc.value) == f"non-finite close or feature at date {p.dates[17]} ticker S000"


def test_return_roundtrip_recovers_prices():
    p = gen_synthetic(30, 6, 0.5, seed=9)
    y = compute_return(p)
    rebuilt = p.close[:-1] * (1.0 + y[:-1])
    np.testing.assert_allclose(rebuilt, p.close[1:], rtol=1e-12)


def test_return_masks_invalid_neighbors():
    p = panel_from_close(np.full((3, 2), 10.0))
    p.valid[1, 0] = False
    y = compute_return(p)
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


def test_load_csv_date_not_written_yyyy_mm_dd_reports_line(tmp_path):
    # 20180103 parses as an ISO basic date, but would sort after 2018-01-04
    f = write_csv(tmp_path, "date,ticker,close,f0\n"
                            "2018-01-02,A,10,0.1\n"
                            "20180103,A,11,0.2\n"
                            "2018-01-04,A,12,0.3\n")
    with pytest.raises(DataError) as exc:
        load_csv(f)
    assert str(exc.value) == f"{f}:3: unparseable row (date '20180103' is not written YYYY-MM-DD)"


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


def load_csv_rowwise(path) -> StockPanel:
    """The row-by-row loader ``load_csv`` replaced; the oracle for its outputs and errors."""
    rows: dict[tuple[str, str], tuple[float, list[float]]] = {}
    n_feat = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if header[:3] != ["date", "ticker", "close"]:
            raise DataError(f"{path}: header must start 'date,ticker,close', got {header[:3]}")
        n_feat = len(header) - 3
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3 + n_feat:
                raise DataError(f"{path}:{lineno}: expected {3 + n_feat} fields, got {len(row)}")
            date, ticker = row[0].strip(), row[1].strip()
            try:
                data.iso_date(date)
                close = float(row[2])
                feats = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparseable row ({exc})") from None
            if not np.isfinite([close, *feats]).all():
                raise DataError(f"{path}:{lineno}: non-finite close or feature value")
            key = (date, ticker)
            if key in rows:
                raise DataError(f"{path}:{lineno}: duplicate (date,ticker) {key}")
            rows[key] = (close, feats)
    if not rows:
        raise DataError(f"{path}: no data rows")
    dates = sorted({d for d, _ in rows})
    tickers = sorted({t for _, t in rows})
    t_idx = {d: i for i, d in enumerate(dates)}
    n_idx = {t: i for i, t in enumerate(tickers)}
    close = np.full((len(dates), len(tickers)), np.nan)
    features = np.full((len(dates), len(tickers), n_feat), np.nan)
    valid = np.zeros((len(dates), len(tickers)), dtype=bool)
    for (d, t), (c, f) in rows.items():
        close[t_idx[d], n_idx[t]] = c
        features[t_idx[d], n_idx[t]] = f
        valid[t_idx[d], n_idx[t]] = True
    return StockPanel(dates, tickers, close, features, valid)


def panel_records(n_dates, n_tickers, seed=0, n_features=2):
    """The records of a full synthetic panel as lists of CSV fields, date-major."""
    p = gen_synthetic(n_dates, n_tickers, 0.5, seed=seed, n_features=n_features)
    return [[date, ticker] + [repr(float(v)) for v in (p.close[t, i], *p.features[t, i])]
            for t, date in enumerate(p.dates) for i, ticker in enumerate(p.tickers)]


@pytest.fixture(scope="module")
def two_chunks():
    """Records filling the first chunk and part of a second one."""
    records = panel_records(90, 200, seed=4)
    assert _CHUNK + 500 < len(records) < 2 * _CHUNK
    return records


def write_records(tmp_path, records, n_features=2, end="\n"):
    header = ["date", "ticker", "close"] + [f"f{j}" for j in range(n_features)]
    f = tmp_path / "records.csv"
    lines = [",".join(header)] + [r if isinstance(r, str) else ",".join(r) for r in records]
    f.write_bytes((end.join(lines) + end).encode("utf-8"))
    return f


def assert_same_panel(a, b):
    assert a.dates == b.dates and a.tickers == b.tickers
    for name in ("close", "features", "valid"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), name


def assert_same_error(f):
    with pytest.raises(DataError) as expected:
        load_csv_rowwise(f)
    with pytest.raises(DataError) as got:
        load_csv(f)
    assert str(got.value) == str(expected.value)
    return str(got.value)


def test_load_csv_matches_rowwise_on_shuffled_rows_with_missing_rows(tmp_path):
    rng = np.random.default_rng(0)
    records = panel_records(30, 12, seed=1)
    kept = [records[i] for i in rng.permutation(len(records)) if rng.random() > 0.1]
    f = write_records(tmp_path, kept)
    p = load_csv(f)
    assert not p.valid.all()
    assert_same_panel(p, load_csv_rowwise(f))


def test_load_csv_matches_rowwise_on_blank_lines_crlf_padding_and_quotes(tmp_path):
    records = [list(r) for r in panel_records(25, 6, seed=2)]
    for r in records[::7]:
        r[0], r[1] = f"  {r[0]} ", f" {r[1]}\t"
    for r in records[1::5]:
        r[1] = f'"{r[1]}"'
    records[3][1] = '"S,003"'
    records[4][2] = f'" {records[4][2]} "'
    for pos, blank in ((0, ""), (10, "   "), (11, ""), (40, "\t"), (len(records), " ")):
        records.insert(pos, blank)
    for end in ("\n", "\r\n"):
        f = write_records(tmp_path, records, end=end)
        p = load_csv(f)
        assert "S,003" in p.tickers and p.valid.sum() == 25 * 6 and not p.valid.all()
        assert_same_panel(p, load_csv_rowwise(f))


def test_load_csv_matches_rowwise_across_chunks(tmp_path):
    records = panel_records(200, 200, seed=3)
    assert len(records) > 2 * _CHUNK
    del records[len(records) // 2]
    f = write_records(tmp_path, records)
    p = load_csv(f)
    assert p.valid.sum() == 200 * 200 - 1
    assert_same_panel(p, load_csv_rowwise(f))
    assert_same_panel(p, load_csv_chunked(f))


DEFECTS = {
    "field_count": lambda rows, i: rows.__setitem__(i, rows[i][:-1]),
    "number": lambda rows, i: rows.__setitem__(i, rows[i][:3] + ["1.2.3"] + rows[i][4:]),
    "date": lambda rows, i: rows.__setitem__(i, ["2018-02-30"] + rows[i][1:]),
    "basic_date": lambda rows, i: rows.__setitem__(i, ["20180305"] + rows[i][1:]),
    "duplicate": lambda rows, i: rows.insert(i, list(rows[i - 300])),
    "non_finite": lambda rows, i: rows.__setitem__(i, rows[i][:2] + ["inf"] + rows[i][3:]),
}


@pytest.mark.parametrize("kind", sorted(DEFECTS))
@pytest.mark.parametrize("where", ["first_chunk", "after_boundary"])
def test_load_csv_error_matches_rowwise(tmp_path, two_chunks, kind, where):
    rows = list(two_chunks)
    i = 400 if where == "first_chunk" else _CHUNK + 200
    DEFECTS[kind](rows, i)
    message = assert_same_error(write_records(tmp_path, rows))
    assert message.startswith(f"{tmp_path / 'records.csv'}:{i + 2}: ")


@pytest.mark.parametrize("early,late", [("duplicate", "field_count"), ("non_finite", "number"),
                                        ("date", "duplicate"), ("number", "date"),
                                        ("field_count", "non_finite")])
def test_load_csv_first_defect_wins_as_in_rowwise(tmp_path, two_chunks, early, late):
    rows = list(two_chunks)
    DEFECTS[late](rows, _CHUNK + 200)
    DEFECTS[early](rows, 500)
    assert_same_error(write_records(tmp_path, rows))


@pytest.mark.parametrize("late", ["number", "duplicate"])
def test_load_csv_non_finite_value_wins_over_a_later_defect(tmp_path, late):
    rows = [list(r) for r in panel_records(20, 5)[:20]]
    rows[2][2] = "nan"
    if late == "number":
        rows[19][2] = "abc"
    else:
        rows[19][:2] = rows[0][:2]
    f = write_records(tmp_path, rows)
    assert assert_same_error(f) == f"{f}:4: non-finite close or feature value"


def test_load_csv_bad_date_and_number_on_one_row_reports_the_date(tmp_path):
    rows = [list(r) for r in panel_records(20, 5)]
    rows[7][0], rows[7][3] = "2018-13-01", "x"
    rows[3][4] = "y"
    assert ":5: unparseable row (could not convert" in assert_same_error(write_records(tmp_path, rows))
    rows[3][4] = rows[4][4]
    assert ":9: unparseable row (month must be in 1..12)" in assert_same_error(
        write_records(tmp_path, rows))


def test_load_csv_earliest_duplicate_wins_and_follows_a_bad_number(tmp_path):
    rows = [list(r) for r in panel_records(20, 5)]
    rows.insert(30, list(rows[25]))  # sorts after the key repeated below
    rows.insert(60, list(rows[0]))
    key = (rows[25][0], rows[25][1])
    assert f":32: duplicate (date,ticker) {key}" in assert_same_error(write_records(tmp_path, rows))
    rows[30][3] = "1e"  # the key repeats on a row that does not parse
    assert ":32: unparseable row" in assert_same_error(write_records(tmp_path, rows))


def test_load_csv_reader_error_comes_after_earlier_bad_rows(tmp_path):
    rows = [list(r) for r in panel_records(20, 5)]
    rows[50][1] = "x" * (csv.field_size_limit() + 1)
    rows[60][2] = "ten"
    f = write_records(tmp_path, rows)
    with pytest.raises(csv.Error):
        load_csv_rowwise(f)
    with pytest.raises(DataError) as exc:
        load_csv(f)
    limit = f"field larger than field limit ({csv.field_size_limit()})"
    assert str(exc.value) == f"{f}:52: {limit}"
    rows[50][1] = '"' + "x" * 140_000 + '"'
    with pytest.raises(DataError) as exc:
        load_csv(write_records(tmp_path, rows))
    assert str(exc.value) == f"{f}:52: {limit}"
    rows[20][2] = "ten"
    assert_same_error(write_records(tmp_path, rows))


@pytest.mark.parametrize("index", [0, 12])  # the header, a data row
def test_load_csv_byte_not_utf8_names_its_line(tmp_path, index):
    # the bad byte lies in the first block a text reader decodes ahead, with the header
    f = write_records(tmp_path, panel_records(20, 5))
    lines = f.read_bytes().split(b"\n")
    lines[index] = lines[index].replace(b",", b",\xff", 1)
    f.write_bytes(b"\n".join(lines))
    with pytest.raises(DataError) as exc:
        load_csv(f)
    assert str(exc.value) == f"{f}:{index + 1}: byte 0xff is not UTF-8"


def test_load_csv_earlier_bad_row_wins_over_a_byte_decoded_ahead(tmp_path):
    rows = [list(r) for r in panel_records(20, 5)]
    rows[5][2] = "ten"
    f = write_records(tmp_path, rows)
    lines = f.read_bytes().split(b"\n")
    lines[40] += b"\xff"
    f.write_bytes(b"\n".join(lines))
    with pytest.raises(DataError) as exc:
        load_csv(f)
    assert str(exc.value).startswith(f"{f}:7: unparseable row")


def test_load_csv_peak_memory_below_rowwise_loader(tmp_path):
    # A 50k-row panel peaked at 27.1 MiB under the row-wise loader (dict of float
    # lists) and 13.0 MiB chunked.
    f = write_records(tmp_path, panel_records(250, 200, seed=3, n_features=4), n_features=4)
    tracemalloc.start()
    try:
        load_csv(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_load_csv_header_without_a_feature_column(tmp_path):
    f = write_csv(tmp_path, "date,ticker,close\n2020-01-01,A,10\n2020-01-02,A,11\n")
    with pytest.raises(DataError) as exc:
        load_csv(f)
    assert str(exc.value) == f"{f}: header has no feature column after 'date,ticker,close'"


def test_load_csv_reads_a_clean_file_once(tmp_path, monkeypatch, two_chunks):
    def second_read(path):
        raise AssertionError("a clean file was read twice")

    monkeypatch.setattr(data, "_read_records", second_read)
    rows = list(two_chunks)
    del rows[_CHUNK + 100]
    for i in (0, 500, _CHUNK, len(rows)):
        rows.insert(i, " ")
    p = load_csv(write_records(tmp_path, rows))
    assert p.valid.sum() == len(two_chunks) - 1


@pytest.mark.parametrize("field,text", [(2, "1_0"), (3, "\u0661\u0662"), (1, '"S\n \n9"')])
def test_load_csv_loads_a_valid_file_the_fast_pass_refuses(tmp_path, monkeypatch, two_chunks,
                                                           field, text):
    # float() reads "1_0" and Arabic-Indic digits, numpy's parser does not; a blank line
    # inside quotes is part of the ticker, not a line the fast pass may skip
    reads, read_records = [], data._read_records
    monkeypatch.setattr(data, "_read_records",
                        lambda path: reads.append(path) or read_records(path))
    rows = list(two_chunks)
    i = _CHUNK + 200
    rows[i] = rows[i][:field] + [text] + rows[i][field + 1:]
    f = write_records(tmp_path, rows)
    assert_same_panel(load_csv(f), load_csv_rowwise(f))
    assert reads == [f]
    DEFECTS["number"](rows, i + 100)
    assert assert_same_error(write_records(tmp_path, rows)).startswith(f"{f}:{i + 102}: ")


@pytest.mark.parametrize("text,loads", [('2020-01-01,A,1,"2\n"\n2020-01-02,B,3,4\n', True),
                                        ('2020-01-01,A,1,"2\n2020-01-02,B,3,"4"\n', False)],
                         ids=["closed_on_the_next_line", "one_bad_record"])
def test_load_csv_quote_left_open_at_a_chunk_end(tmp_path, monkeypatch, text, loads):
    # numpy's parser closes a quote at the end of its input, so the next chunk would
    # start inside the quoted field; the second text is one bad record, not two rows
    monkeypatch.setattr(data, "_CHUNK", 1)
    f = write_csv(tmp_path, "date,ticker,close,f0\n" + text)
    if loads:
        assert_same_panel(load_csv(f), load_csv_rowwise(f))
    else:
        assert assert_same_error(f).startswith(f"{f}:2: unparseable row")


@pytest.mark.parametrize("number,line", [
    ("0" * csv.field_size_limit() + "1", 52),
    # over three lines, each under the limit, the middle one blank; the physical line is named
    ('"1\n' + " " * 70_000 + "\n" + " " * 70_000 + '"', 54),
], ids=["leading_zeros", "quoted_over_three_lines"])
def test_load_csv_finite_number_over_the_field_limit_names_its_line(tmp_path, number, line):
    rows = [list(r) for r in panel_records(20, 5)]
    rows[50][3] = number
    f = write_records(tmp_path, rows)
    assert float(number.strip('"')) == 1.0
    with pytest.raises(DataError) as exc:
        load_csv(f)
    limit = f"field larger than field limit ({csv.field_size_limit()})"
    assert str(exc.value) == f"{f}:{line}: {limit}"


TICKERS = ["A", " B", "S,003", 'Q"T', "Z\t", "L\nF", "W\r\n \nX"]
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")
# DEFECTS["duplicate"] copies the row 300 records back, which a small panel lacks
SMALL_DEFECTS = {**DEFECTS, "duplicate": lambda rows, i: rows.insert(i, list(rows[i // 2]))}


def csv_field(text: str, quote: bool) -> str:
    if quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def number_text(value: int, style: int) -> str:
    """``value`` written as a float, an integer, with a digit separator, padded, ended
    by a line end, by a line end and a blank line, or in Arabic-Indic digits."""
    return [repr(value / 4), str(value), "_".join(str(value)), f" {value / 8} ",
            f"{value}\r\n", f"{value / 2}\n \n", str(value).translate(ARABIC_INDIC)][style]


@st.composite
def csv_panels(draw):
    """The text of a small shuffled panel with missing rows, quoted and padded
    fields, quoted line ends and blank lines in tickers and numbers, blank lines,
    either line end and at most one defect from ``DEFECTS``."""
    n_dates, n_tickers, n_features = (draw(st.integers(1, 4)), draw(st.integers(1, 5)),
                                      draw(st.integers(1, 2)))
    tickers = draw(st.permutations(TICKERS))
    cells = draw(st.permutations([(t, i) for t in range(n_dates) for i in range(n_tickers)]))
    cells = cells[:draw(st.integers(1, len(cells)))]
    rows = []
    for t, i in cells:
        numbers = [number_text(draw(st.integers(10, 999)), draw(st.integers(0, 6)))
                   for _ in range(1 + n_features)]
        pad = draw(st.sampled_from(["", " ", "\t"]))
        rows.append([pad + trading_days(n_dates)[t], tickers[i] + pad] + numbers)
    kind = draw(st.none() | st.sampled_from(sorted(SMALL_DEFECTS)))
    if kind is not None:
        SMALL_DEFECTS[kind](rows, draw(st.integers(0, len(rows) - 1)))
    lines = [",".join(csv_field(f, draw(st.booleans())) for f in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t "])))
    header = ",".join(["date", "ticker", "close"] + [f"f{j}" for j in range(n_features)])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([header] + lines) + end


def check_random_panel(tmp_path_factory, text):
    f = tmp_path_factory.getbasetemp() / "random_panel.csv"
    f.write_bytes(text.encode("utf-8"))
    try:
        expected = load_csv_rowwise(f)
    except DataError:
        assert_same_error(f)
    else:
        assert_same_panel(load_csv(f), expected)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=csv_panels())
def test_load_csv_matches_rowwise_on_random_panels(tmp_path_factory, text):
    check_random_panel(tmp_path_factory, text)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=csv_panels())
def test_load_csv_matches_rowwise_on_random_panels_in_chunks_of_two(tmp_path_factory, text):
    with pytest.MonkeyPatch.context() as patch:  # chunk ends fall inside the panel
        patch.setattr(data, "_CHUNK", 2)
        check_random_panel(tmp_path_factory, text)


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


def normalize_features_loop(panel):
    """The per-date loop ``normalize_features`` replaced; the oracle for its values."""
    feats = panel.features.copy()
    for t in range(panel.n_dates):
        ok = panel.valid[t]
        if not ok.any():
            continue
        block = feats[t, ok, :]
        mu = block.mean(axis=0)
        sd = block.std(axis=0)
        degenerate = sd < 1e-12
        z = (block - mu) / np.where(degenerate, 1.0, sd)
        z[:, degenerate] = 0.0
        feats[t, ok, :] = z
    return feats


def masked_panel(n_dates, n_tickers, n_features, drop, seed):
    """A synthetic panel with dropped cells, one empty date and one constant channel."""
    p = gen_synthetic(n_dates, n_tickers, 0.3, seed=seed, n_features=n_features)
    valid = np.random.default_rng(seed).random(p.valid.shape) >= drop
    valid[3] = False
    features = np.where(valid[..., None], p.features, np.nan)
    features[5, :, 0] = 7.0
    features[6, :, -1] = 7.0 + 1e-14 * np.arange(n_tickers)  # std below 1e-12 but not 0
    return StockPanel(p.dates, p.tickers, p.close, features, valid)


@pytest.mark.parametrize("shape,drop", [((250, 500, 4), 0.0), ((250, 50, 4), 0.1),
                                        ((60, 37, 3), 0.3), ((30, 9, 2), 0.8)])
def test_normalize_matches_per_date_loop(shape, drop):
    p = masked_panel(*shape, drop=drop, seed=shape[1])
    assert normalize_features(p).features.tobytes() == normalize_features_loop(p).tobytes()


def test_normalize_single_channel_matches_loop_to_rounding():
    # numpy sums one contiguous channel pairwise, so the per-date loop and the
    # masked reduction may round a masked single-channel panel differently.
    p = masked_panel(250, 50, 1, drop=0.1, seed=7)
    got, want = normalize_features(p).features, normalize_features_loop(p)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


# ---- gen_synthetic ----

def test_synthetic_deterministic():
    a = gen_synthetic(30, 6, 0.4, seed=123)
    b = gen_synthetic(30, 6, 0.4, seed=123)
    np.testing.assert_array_equal(a.close, b.close)
    np.testing.assert_array_equal(a.features, b.features)
    assert a.dates == b.dates


def test_synthetic_zero_signal_uncorrelated():
    p = gen_synthetic(250, 50, 0.0, seed=5)
    y = compute_return(p)
    cors = [np.corrcoef(p.features[t, :, 0], y[t])[0, 1] for t in range(249)]
    assert abs(float(np.mean(cors))) < 0.05


def test_synthetic_full_signal_correlated():
    p = gen_synthetic(60, 20, 1.0, seed=6)
    y = compute_return(p)
    for t in range(0, 59, 7):
        assert np.corrcoef(p.features[t, :, 0], y[t])[0, 1] > 0.99


def test_synthetic_signal_shift_changes_late_dates():
    p = gen_synthetic(40, 10, 1.0, seed=2, shift_after=20, shifted_signal_strength=0.0)
    y = compute_return(p)
    early = np.corrcoef(p.features[5, :, 0], y[5])[0, 1]
    late = np.corrcoef(p.features[30, :, 0], y[30])[0, 1]
    assert early > 0.99 and abs(late) < 0.9


def test_synthetic_contract():
    with pytest.raises(ContractError):
        gen_synthetic(10, 50, 0.5, seed=0)
    with pytest.raises(ContractError):
        gen_synthetic(30, 3, 0.5, seed=0)


@pytest.mark.parametrize("kwargs,named", [({"n_features": 0}, "n_features"),
                                          ({"signal_strength": 1.5}, "signal_strength"),
                                          ({"signal_strength": -0.5}, "signal_strength"),
                                          ({"shifted_signal_strength": 3.0},
                                           "shifted_signal_strength"),
                                          ({"shifted_signal_strength": -1.0},
                                           "shifted_signal_strength")])
def test_synthetic_rejects_no_features_and_strengths_outside_unit_range(kwargs, named):
    args = {"n_dates": 30, "n_tickers": 6, "signal_strength": 0.5, "seed": 0, "shift_after": 10}
    with pytest.raises(ContractError, match=named):
        gen_synthetic(**{**args, **kwargs})


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


def test_split_endpoints_off_the_panel_select_the_dates_between():
    p = gen_synthetic(20, 5, 0.0, seed=0)  # weekdays from 2018-01-02 to 2018-01-29
    ranges = [("2017-12-30", "2018-01-07"), ("2018-01-13", "2018-01-21"),
              ("2018-01-27", "2030-01-01")]  # the endpoints in January are weekends
    for part, (lo, hi) in zip(split(p, SplitSpec(*ranges)), ranges):
        assert part.dates == [d for d in p.dates if lo <= d <= hi]


def test_fraction_split_rejects_degenerate():
    p = gen_synthetic(20, 5, 0.0, seed=0)
    with pytest.raises(ContractError):
        fraction_split_spec(p, 0.99, 0.005)
