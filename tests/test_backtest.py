import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from momrank.backtest import BacktestLedger, cumulative_return, run_topn
from momrank.data import StockPanel, compute_return, gen_synthetic, trading_days
from momrank.errors import ContractError
import oracles


def panel_from_close(close):
    close = np.asarray(close, dtype=np.float64)
    t, n = close.shape
    return StockPanel(trading_days(t), [f"S{i:03d}" for i in range(n)], close,
                      np.zeros((t, n, 1)), np.ones((t, n), dtype=bool))


def test_constant_prices_zero_return():
    p = panel_from_close(np.full((10, 4), 25.0))
    scores = np.random.default_rng(0).normal(size=(10, 4))
    ledger = run_topn(p, scores, top_n=2)
    assert cumulative_return(ledger) == 0.0
    np.testing.assert_array_equal(ledger.daily_return, np.zeros(9))


def test_single_stock_compounding():
    p = panel_from_close(np.array([[100.0], [101.0], [102.01]]))
    ledger = run_topn(p, np.ones((3, 1)), top_n=1)
    assert ledger.balance[-1] == pytest.approx(1.01 ** 2, rel=1e-12)
    assert cumulative_return(ledger) == pytest.approx(2.01, rel=1e-10)


def test_balance_recursion_invariant():
    p = gen_synthetic(30, 8, 0.0, seed=1)
    scores = np.random.default_rng(1).normal(size=(30, 8))
    ledger = run_topn(p, scores, top_n=3)
    recomputed = np.cumprod(1.0 + ledger.daily_return)
    np.testing.assert_allclose(ledger.balance, recomputed, rtol=1e-12)
    assert all(len(h) <= 3 for h in ledger.holdings)


@st.composite
def masked_panels(draw):
    """2-12 dates x 1-10 tickers with a random validity mask, NaN-scored cells, and top_n."""
    t, n = draw(st.integers(2, 12)), draw(st.integers(1, 10))
    valid = draw(hnp.arrays(bool, (t, n)))
    close = draw(hnp.arrays(np.float64, (t, n), elements=st.floats(1.0, 100.0)))
    close[~valid] = np.nan
    scores = draw(hnp.arrays(np.float64, (t, n),
                             elements=st.one_of(st.floats(-3.0, 3.0), st.just(np.nan))))
    panel = StockPanel(trading_days(t), [f"S{i:03d}" for i in range(n)], close,
                       np.zeros((t, n, 1)), valid)
    return panel, scores, draw(st.integers(1, n + 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(masked_panels())
def test_ledger_identities_under_random_validity_masks(case):
    panel, scores, top_n = case
    ledger = run_topn(panel, scores, top_n=top_n)
    np.testing.assert_array_equal(ledger.balance, np.cumprod(1.0 + ledger.daily_return))
    candidate = panel.valid[:-1] & panel.valid[1:] & np.isfinite(scores[:-1])
    index = {name: i for i, name in enumerate(panel.tickers)}
    for day, names in enumerate(ledger.holdings):
        held = [index[name] for name in names]
        assert len(set(held)) == len(held) == min(top_n, int(candidate[day].sum()))
        assert all(candidate[day, i] for i in held)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(masked_panels(), st.booleans(), st.sampled_from([0.0, 10.0]))
def test_split_wide_pass_equals_the_per_date_loop_bitwise(case, tied, cost_bps):
    panel, scores, top_n = case
    if tied:  # integer scores: many ties, broken by ticker order
        scores = np.round(scores)
    ledger = run_topn(panel, scores, top_n=top_n, cost_bps=cost_bps)
    want = oracles.run_topn_by_day(panel, scores, top_n=top_n, cost_bps=cost_bps)
    assert ledger.dates == want.dates and ledger.holdings == want.holdings
    # the loop lets a day lose more than the account; the ledger floors it at -1
    ruined = np.flatnonzero(want.daily_return < -1.0)
    cut = ruined[0] if ruined.size else want.balance.size
    np.testing.assert_array_equal(ledger.daily_return, np.maximum(want.daily_return, -1.0))
    np.testing.assert_array_equal(ledger.balance[:cut], want.balance[:cut])
    np.testing.assert_array_equal(ledger.balance[cut:], 0.0)


def test_a_ruined_account_stays_at_zero():
    # at 5000 bps the day's charge is 100%, so any falling day loses more than the account
    p = gen_synthetic(150, 12, 0.6, seed=1)
    scores = np.random.default_rng(0).normal(size=p.close.shape)
    assert oracles.run_topn_by_day(p, scores, top_n=5, cost_bps=5000.0).daily_return[0] < -1.0
    ledger = run_topn(p, scores, top_n=5, cost_bps=5000.0)
    assert ledger.daily_return[0] == -1.0 and ledger.daily_return.min() == -1.0
    np.testing.assert_array_equal(ledger.balance, np.zeros(149))
    np.testing.assert_array_equal(ledger.balance, np.cumprod(1.0 + ledger.daily_return))
    assert cumulative_return(ledger) == -100.0


def test_full_pool_reproduces_equal_weight_index():
    p = gen_synthetic(25, 6, 0.0, seed=2)
    y = compute_return(p)
    scores = np.random.default_rng(2).normal(size=p.close.shape)
    ledger = run_topn(p, scores, top_n=6)
    index_daily = np.nanmean(y[:-1], axis=1)
    np.testing.assert_allclose(ledger.daily_return, index_daily, atol=1e-12)


def test_rank_invariance_of_scores():
    p = gen_synthetic(25, 6, 0.0, seed=3)
    scores = np.random.default_rng(3).normal(size=p.close.shape)
    a = run_topn(p, scores, top_n=2)
    b = run_topn(p, np.exp(scores) * 5.0, top_n=2)  # strictly increasing transform
    np.testing.assert_array_equal(a.balance, b.balance)
    assert a.holdings == b.holdings


def test_fewer_than_n_holds_all_valid():
    p = panel_from_close(np.array([[100.0, 50.0], [110.0, 55.0]]))
    p.valid[1, 1] = False  # next-day return undefined for ticker 1
    ledger = run_topn(p, np.ones((2, 2)), top_n=5)
    assert ledger.holdings[0] == ["S000"]
    assert ledger.daily_return[0] == pytest.approx(0.10)


def test_cost_reduces_returns():
    p = panel_from_close(np.array([[100.0], [101.0]]))
    free = run_topn(p, np.ones((2, 1)), top_n=1, cost_bps=0.0)
    paid = run_topn(p, np.ones((2, 1)), top_n=1, cost_bps=10.0)
    assert paid.daily_return[0] == pytest.approx(free.daily_return[0] - 2 * 10.0 / 1e4)


def test_perfect_foresight_beats_random():
    wins = 0
    for seed in range(20):
        p = gen_synthetic(60, 20, 0.0, seed=seed)
        y = compute_return(p)
        foresight = np.where(np.isfinite(y), y, np.nan)
        random_scores = np.random.default_rng(1000 + seed).normal(size=y.shape)
        a = cumulative_return(run_topn(p, foresight, top_n=4))
        b = cumulative_return(run_topn(p, random_scores, top_n=4))
        wins += a > b
    assert wins >= 18


def test_tie_break_by_ticker_order():
    p = panel_from_close(np.array([[10.0, 10.0, 10.0], [11.0, 12.0, 13.0]]))
    ledger = run_topn(p, np.zeros((2, 3)), top_n=2)
    assert ledger.holdings[0] == ["S000", "S001"]


def test_contract_errors():
    p = panel_from_close(np.full((5, 2), 10.0))
    with pytest.raises(ContractError):
        run_topn(p, np.zeros((5, 2)), top_n=0)
    with pytest.raises(ContractError):
        run_topn(p, np.zeros((4, 2)), top_n=1)
    with pytest.raises(ContractError):
        cumulative_return(BacktestLedger([], np.empty(0), np.empty(0), []))
