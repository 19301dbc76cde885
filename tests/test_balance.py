from mrparse.balance import update_loss_weights


def test_identical_tasks_stay_uniform():
    weights = {"a": 1.0, "b": 1.0, "c": 1.0}
    new, warnings = update_loss_weights(
        grad_norms={"a": 2.0, "b": 2.0, "c": 2.0},
        losses={"a": 0.5, "b": 0.5, "c": 0.5},
        initial_losses={"a": 1.0, "b": 1.0, "c": 1.0},
        weights=weights, alpha=1.5, lr=0.025)
    assert new == weights
    assert warnings == []


def test_fast_task_weight_decreases():
    # task "fast" improved much more than "slow": its weight must drop
    weights = {"fast": 1.0, "slow": 1.0}
    new, _ = update_loss_weights(
        grad_norms={"fast": 1.0, "slow": 1.0},
        losses={"fast": 0.1, "slow": 0.9},
        initial_losses={"fast": 1.0, "slow": 1.0},
        weights=weights, alpha=1.5, lr=0.025)
    assert new["fast"] < 1.0
    assert new["slow"] > 1.0


def test_weights_renormalize_to_task_count():
    weights = {"a": 0.5, "b": 2.0, "c": 1.2}
    new, _ = update_loss_weights(
        grad_norms={"a": 3.0, "b": 0.2, "c": 1.0},
        losses={"a": 0.7, "b": 0.1, "c": 0.5},
        initial_losses={"a": 1.0, "b": 1.0, "c": 1.0},
        weights=weights, alpha=1.5, lr=0.1)
    assert abs(sum(new.values()) - 3.0) < 1e-12
    assert all(w > 0 for w in new.values())


def test_zero_initial_loss_excluded_with_warning():
    weights = {"a": 1.0, "b": 1.0}
    new, warnings = update_loss_weights(
        grad_norms={"a": 1.0, "b": 1.0},
        losses={"a": 0.5, "b": 0.5},
        initial_losses={"a": 0.0, "b": 1.0},
        weights=weights, alpha=1.5, lr=0.025)
    assert len(warnings) == 1 and "'a'" in warnings[0]
    assert abs(sum(new.values()) - 2.0) < 1e-12


def test_clamp_keeps_weights_positive():
    weights = {"a": 0.001, "b": 1.999}
    new, _ = update_loss_weights(
        grad_norms={"a": 100.0, "b": 0.001},
        losses={"a": 0.0001, "b": 1.0},
        initial_losses={"a": 1.0, "b": 1.0},
        weights=weights, alpha=1.5, lr=1.0)
    assert all(w > 0 for w in new.values())
    assert abs(sum(new.values()) - 2.0) < 1e-12

