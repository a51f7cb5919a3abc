import math
import statistics

import pytest

from panchain.configs import contest_scaling_config
from panchain.costmodel import (
    GasCost,
    GasTable,
    PriceModel,
    min_viable_price,
    simulated_cost_report,
    transfer_cost,
)
from panchain.ecosystem import run


def test_usd_conversion_matches_published_table():
    price = PriceModel()
    gas = GasTable()
    # per-transaction USD means from the measured-cost table
    assert price.usd(gas.claim.mean_kgas) == pytest.approx(0.0668, abs=0.0001)
    assert price.usd(gas.contest.mean_kgas) == pytest.approx(0.0943, abs=0.0001)
    assert price.usd(gas.finalize.mean_kgas) == pytest.approx(0.0527, abs=0.0001)
    assert price.usd(gas.veto.mean_kgas) == pytest.approx(0.1520, abs=0.0001)
    assert price.usd(gas.finalize_veto.mean_kgas) == pytest.approx(0.0563, abs=0.0001)


def test_transfer_cost_ten_chains():
    cost = transfer_cost(m=10, n=10)
    assert cost.receiver_kgas == pytest.approx(512.7)
    assert cost.receiver_usd == pytest.approx(0.59, abs=0.005)
    assert cost.observer_kgas == pytest.approx(815.0)
    assert cost.observer_usd == pytest.approx(0.94, abs=0.005)
    assert cost.sender_usd == 0.0
    assert cost.expected_posting_observers == pytest.approx(math.log2(10))


def test_transfer_cost_zero_gas_price():
    cost = transfer_cost(m=1, n=4, price=PriceModel(gas_price_gwei=0))
    assert cost.receiver_usd == 0.0 and cost.observer_usd == 0.0


def test_transfer_cost_linear_in_chains():
    c1 = transfer_cost(m=1, n=10)
    c2 = transfer_cost(m=2, n=10)
    c3 = transfer_cost(m=3, n=10)
    finalize = GasTable().finalize.mean_kgas
    contest = GasTable().contest.mean_kgas
    assert c2.receiver_kgas - c1.receiver_kgas == pytest.approx(finalize)
    assert c3.receiver_kgas - c2.receiver_kgas == pytest.approx(finalize)
    assert c2.observer_kgas - c1.observer_kgas == pytest.approx(contest)


def test_transfer_cost_validation():
    with pytest.raises(ValueError):
        transfer_cost(m=0, n=10)
    with pytest.raises(ValueError):
        transfer_cost(m=1, n=0)


def test_incentive_thresholds_published_values():
    assert min_viable_price(10) == pytest.approx(2.83, abs=0.01)
    assert min_viable_price(100) == pytest.approx(14.15, abs=0.01)
    assert min_viable_price(1000) == pytest.approx(94.32, abs=0.01)


def test_incentive_requires_two_observers():
    with pytest.raises(ValueError):
        min_viable_price(1)


def test_incentive_requires_a_positive_reward():
    with pytest.raises(ValueError, match="reward must be positive"):
        min_viable_price(10, reward=0)


def test_incentive_linear_in_reward():
    assert min_viable_price(10, reward=2) == pytest.approx(min_viable_price(10, reward=1) / 2)


def test_incentive_algebraic_inverse():
    for n in (2, 10, 64, 500):
        p_star = min_viable_price(n)
        observer_usd = round(transfer_cost(m=10, n=n).observer_usd, 2)
        assert p_star * math.log2(n) / n * 1 == pytest.approx(observer_usd)


def test_ether_price_zero_thresholds():
    assert min_viable_price(10, price=PriceModel(ether_usd=0.0)) == 0.0


def test_gas_cost_validation():
    with pytest.raises(ValueError):
        GasCost(0.0, 1.0)
    with pytest.raises(ValueError):
        PriceModel(gas_price_gwei=-1)


def test_simulated_cost_report_zero_runs():
    report = simulated_cost_report({}, 0)
    assert report["usd_by_role"] == {"receiver": 0.0, "observer": 0.0, "watchdog": 0.0, "sender": 0.0}
    assert "per_transfer_usd" not in report


def test_simulated_cost_report_worked_example():
    # one transfer over three chains with three contests per chain:
    # receiver pays one claim plus three finalizes
    from panchain.configs import worked_example

    run_report = run(worked_example(seed=0))
    report = simulated_cost_report(run_report.tx_counts, run_report.stats["transfers_executed"])
    gas = GasTable()
    expected_receiver = gas.claim.mean_kgas + 3 * gas.finalize.mean_kgas
    assert report["kgas_by_role"]["receiver"] == pytest.approx(expected_receiver)
    assert report["tx_counts"]["contest"] == 9
    assert report["kgas_by_role"]["observer"] == pytest.approx(9 * gas.contest.mean_kgas)


def test_empirical_observer_cost_near_analytical_prediction():
    # over 20 seeded single-transfer runs the observers' empirical spend per
    # transfer stays within 25% of the log2(n) analytical prediction
    n, m = 10, 3
    gas, price = GasTable(), PriceModel()
    per_run = []
    for seed in range(20):
        report = run(contest_scaling_config(n, seed=seed, chains=m))
        sim = simulated_cost_report(report.tx_counts, report.stats["transfers_executed"], gas, price)
        per_run.append(sim["usd_by_role"]["observer"])
    empirical = statistics.mean(per_run)
    analytical = transfer_cost(m=m, n=n, gas=gas, price=price)
    predicted = analytical.observer_usd * analytical.expected_posting_observers
    assert abs(empirical - predicted) / predicted < 0.25
