"""The verdicts tools/bench_trajectory.py writes into each trajectory row."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_trajectory.py"
SPEC = importlib.util.spec_from_file_location("bench_trajectory", PATH)
bench_trajectory = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_trajectory)

METRICS = [{"name": "items_per_s", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def pairs(base: dict, change: dict) -> list[dict]:
    """Pairs of runs, metric name -> per-pair values on each side."""
    count = len(next(iter(base.values())))
    return [{"base": {"metrics": {name: values[k] for name, values in base.items()}},
             "change": {"metrics": {name: values[k] for name, values in change.items()}}}
            for k in range(count)]


def test_a_clear_gain_is_shown_and_within_bounds():
    summary = bench_trajectory._summary(pairs(
        {"items_per_s": [4500, 5056, 4496, 4495, 4510, 4530, 4480, 4520, 4505, 4490],
         "peak_rss_mb": [40.0] * 10},
        {"items_per_s": [5192, 5233, 5128, 5369, 5200, 5210, 5180, 5190, 4400, 5220],
         "peak_rss_mb": [40.0] * 9 + [41.0]}), METRICS)
    items = summary["items_per_s"]
    assert (items["change_better_pairs"], items["change_worse_pairs"]) == (9, 1)
    assert items["gain_shown"] and not items["worse_than_bound"]
    rss = summary["peak_rss_mb"]
    assert not rss["gain_shown"] and not rss["worse_than_bound"]


def test_a_regression_past_its_bound_is_flagged():
    summary = bench_trajectory._summary(pairs(
        {"items_per_s": [100, 101, 99, 100, 102], "peak_rss_mb": [50, 51, 50, 49, 50]},
        {"items_per_s": [80, 81, 79, 80, 82], "peak_rss_mb": [56, 56, 57, 55, 56]}),
        METRICS)
    # items_per_s fell 20 %, inside its 0.25 bound; peak_rss_mb rose 12 %, past 0.1
    assert not summary["items_per_s"]["worse_than_bound"]
    assert summary["peak_rss_mb"]["worse_than_bound"]
    assert not any(summary[name]["gain_shown"] for name in summary)


def test_a_gain_inside_the_base_spread_is_not_shown():
    summary = bench_trajectory._summary(pairs(
        {"items_per_s": [100, 80, 120, 90, 110], "peak_rss_mb": [50] * 5},
        {"items_per_s": [101, 81, 121, 91, 111], "peak_rss_mb": [50] * 5}), METRICS)
    items = summary["items_per_s"]
    assert items["change_better_pairs"] == 5 and not items["gain_shown"]
