"""Table 8: accuracy and correlation of the learned performance model.

Paper reference (per-configuration GNN trained on 254K models): average
estimation accuracy 0.968 / 0.979 / 0.964 and Spearman correlation > 0.999 for
V1 / V2 / V3.  The reproduction trains the same encode-process-decode graph
network per configuration on the sampled population's simulated latencies.

The training scale can be tuned with environment variables:
``REPRO_TABLE8_EPOCHS`` (default 45) and ``REPRO_TABLE8_BATCH`` (default 32).
At the default benchmark population (1,200 models, seed 2022; 720 training
models against the paper's 254K) this reads 0.942 / 0.926 / 0.855 average
accuracy and 0.988 / 0.993 / 0.986 Spearman for V1 / V2 / V3
(``benchmarks/results/table8_learned_model.txt``). Growing the population
towards the paper's scale pushes the metrics towards the published values;
DESIGN.md §2 describes the sampling substitution behind the gap.
"""

from __future__ import annotations

import os

from repro.core import LearnedPerformanceModel, TrainingSettings

from _reporting import report

EPOCHS = int(os.environ.get("REPRO_TABLE8_EPOCHS", "45"))
BATCH_SIZE = int(os.environ.get("REPRO_TABLE8_BATCH", "32"))


def test_table8_learned_performance_model(benchmark, bench_dataset, bench_measurements):
    cells = [record.cell for record in bench_dataset.records]
    settings = TrainingSettings(
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        learning_rate=2e-3,
        latent_size=32,
        hidden_size=32,
        num_message_passing_steps=5,
        seed=0,
    )

    def run():
        reports = {}
        for name in bench_measurements.config_names:
            model = LearnedPerformanceModel(name, settings)
            model.fit(cells, bench_measurements.latencies(name))
            reports[name] = model.evaluate("test")
        return reports

    reports = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Table 8 — learned performance model accuracy and correlations",
        f"(training population: {len(cells)} models, epochs={EPOCHS}, batch={BATCH_SIZE})",
        f"{'metric':<24}" + "".join(f"{name:>14}" for name in reports),
    ]
    rows = [
        ("Training Set Size", lambda r: str(r.training_set_size)),
        ("Test Set Size", lambda r: str(r.test_set_size)),
        ("Avg. Accuracy", lambda r: f"{r.average_accuracy:.3f}"),
        ("Spearman Correlation", lambda r: f"{r.spearman:.5f}"),
        ("Pearson Correlation", lambda r: f"{r.pearson:.5f}"),
    ]
    for label, getter in rows:
        lines.append(f"{label:<24}" + "".join(getter(r).rjust(14) for r in reports.values()))
    report("table8_learned_model", lines)

    for name, result in reports.items():
        # The paper reports ~0.96-0.98 accuracy and >0.999 correlations at 254K
        # training samples; at benchmark scale we require the same qualitative
        # outcome: high accuracy and very strong rank correlation.
        assert result.average_accuracy > 0.80, name
        assert result.spearman > 0.93, name
        assert result.pearson > 0.90, name
