#!/usr/bin/env python3
"""Architecture design-space exploration with the parameterized Edge TPU model.

Section 6.1 of the paper concludes that, for the NASBench workloads, I/O
bandwidth is the deciding factor and the accelerator tile size (number of PEs
and compute cores) can be reduced with little performance impact.  This
example uses the fully parameterized :class:`AcceleratorConfig` to check that
claim: starting from the V1 configuration, it sweeps

* the PE array size (16 -> 8 -> 4 -> 2 PEs),
* the I/O bandwidth (8.5 -> 17 -> 34 GB/s),

and reports the average latency over a fixed workload sample for every
combination, highlighting which knob actually moves the needle.

The workload is expanded and flattened into a :class:`LayerTable` exactly
once and shared by all twelve derived configurations — the batch engine's
compile-once, array-of-layers sweep makes the whole exploration run in well
under a second.

After the sweep, the example demonstrates the paper's Section 4/5 workflow of
substituting the simulator with the learned performance model: a GNN is
trained on the baseline configuration's measurements (labelled by the same
batch simulator), and the model's whole-population prediction (one batched
forward pass) is rank-correlated against the simulated ground truth.

Run with:  python examples/design_space_exploration.py [num_models]
"""

import sys

import numpy as np

from repro import (
    EDGE_TPU_V1,
    BatchSimulator,
    LayerTable,
    LearnedPerformanceModel,
    NASBenchDataset,
)
from repro.core import TrainingSettings, spearman_correlation


def main(num_models: int = 150) -> None:
    dataset = NASBenchDataset.generate(num_models=num_models, seed=3)
    table = LayerTable.from_architectures(
        [record.architecture for record in dataset], dataset.network_config
    )
    simulator = BatchSimulator()

    pe_grids = [(4, 4), (4, 2), (2, 2), (2, 1)]
    bandwidths = [8.5, 17.0, 34.0]

    print(f"Average latency (ms) over {num_models} NASBench models, V1-derived " "configurations\n")
    header = "PEs \\ I/O bandwidth" + "".join(f"{bw:>12.1f} GB/s" for bw in bandwidths)
    print(header)
    baseline = None
    for pes_x, pes_y in pe_grids:
        row = [f"{pes_x * pes_y:>3d} PEs ({pes_x}x{pes_y})  "]
        for bandwidth in bandwidths:
            config = EDGE_TPU_V1.with_overrides(
                name=f"V1-{pes_x}x{pes_y}-{bandwidth:g}GBps",
                pes_x=pes_x,
                pes_y=pes_y,
                io_bandwidth_gbps=bandwidth,
            )
            latencies, _ = simulator.evaluate_table(table, config)
            average = float(np.mean(latencies))
            if baseline is None:
                baseline = average
            row.append(f"{average:>16.3f}")
        print("".join(row))

    print(
        "\nReading the table: each extra doubling of I/O bandwidth (moving right"
        "\nalong a row) keeps paying off at every tile size, which is the paper's"
        "\nSection 6.1 insight that bandwidth is the deciding factor.  Shrinking"
        "\nthe PE array (moving down a column) costs more in this reproduction"
        "\nthan the paper suggests, because fewer PEs also shrink the on-chip"
        "\nparameter cache and the sustained-bandwidth efficiency in our model —"
        "\nsee DESIGN.md §3 (the analytical simulator stand-in) for the discussion."
    )

    print("\nTraining the learned performance model as a simulator replacement ...")
    simulated = simulator.evaluate(dataset, configs=[EDGE_TPU_V1]).latencies("V1")
    cells = [record.cell for record in dataset]
    model = LearnedPerformanceModel("V1", TrainingSettings(epochs=20, seed=0))
    model.fit(cells, simulated)
    predicted = model.predict_cells(cells)  # one batched forward pass
    rank_correlation = spearman_correlation(predicted, simulated)
    print(
        f"  learned-model vs simulator rank correlation over "
        f"{len(cells)} models: {rank_correlation:.4f}"
    )
    print(
        "  A high rank correlation is what lets the paper explore the design"
        "\n  space with the learned model instead of the simulator."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 150)
