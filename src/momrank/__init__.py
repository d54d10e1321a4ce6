"""momrank: momentum-labeled multi-task stock ranking toolkit.

Trains a two-head network on joint return regression and 5-level momentum
classification with a list-wise approximate-NDCG ranking loss, balances the
two objectives with a convergence-aware gradient pipeline, and evaluates the
result with cross-sectional IC/RankIC/Precision@N metrics and a daily Top-N
backtest. Works on CSV price/feature panels or seeded synthetic markets.
"""

__version__ = "0.1.0"
