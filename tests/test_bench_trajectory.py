"""The verdicts and summaries tools/bench_trajectory.py writes into each
trajectory row."""

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


def acceptance_side(seed, epochs, reached, f1, rate):
    return {"seed": seed, "epochs": epochs, "reached": reached,
            "f1": {"labels": f1, "edges": f1 - 0.1}, "parse_sentences_per_s": rate}


def test_acceptance_summary_per_side():
    # seeds 1-5: the base reaches on 1, 2 and 3, the change on 1, 2 and 4, so
    # the epoch medians are taken over seeds 1 and 2 only
    runs = [{"seed": seed, "first": "base" if seed % 2 else "change",
             "base": acceptance_side(seed, *base), "change": acceptance_side(seed, *change)}
            for seed, base, change in [
                (1, (19, True, 0.96, 3000.0), (17, True, 0.95, 3500.0)),
                (2, (16, True, 0.97, 3100.0), (20, True, 0.96, 3600.0)),
                (3, (21, True, 0.95, 2900.0), (30, False, 0.90, 3400.0)),
                (4, (30, False, 0.91, 3050.0), (25, True, 0.95, 3550.0)),
                (5, (30, False, 0.80, 2950.0), (30, False, 0.85, 3450.0))]]
    summary = bench_trajectory._acceptance_summary(runs)
    assert summary["base"] == {
        "reached": 3, "median_epochs_both_reached": 17.5,
        "median_f1": {"labels": 0.95, "edges": 0.95 - 0.1},
        "median_parse_sentences_per_s": 3000.0}
    assert summary["change"] == {
        "reached": 3, "median_epochs_both_reached": 18.5,
        "median_f1": {"labels": 0.95, "edges": 0.95 - 0.1},
        "median_parse_sentences_per_s": 3500.0}


def test_acceptance_summary_without_a_seed_both_sides_reach():
    runs = [{"seed": 1, "first": "base", "base": acceptance_side(1, 19, True, 0.96, 3000.0),
             "change": acceptance_side(1, 30, False, 0.90, 3100.0)}]
    summary = bench_trajectory._acceptance_summary(runs)
    assert summary["base"]["median_epochs_both_reached"] is None
    assert (summary["base"]["reached"], summary["change"]["reached"]) == (1, 0)
