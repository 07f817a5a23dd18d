"""Seeded input generator: the only files the program under test reads.

Each workload's model is a committed reference config with the benchmark
seed written into `rng_seed`.  The physics stays fixed, so every output
check is meaningful at any seed; the seed changes only the random streams
(the KMC walkers and, through the CLI flag, the diagram sampler).
"""

import json

# workload -> (reference config, grid overrides)
SOURCES = {
    "cli-1d": ("reference_1d", {}),
    # N = 16 (n = 512 states per fiber) keeps a repetition near 5 s on a
    # 2-core box; N = 20 took 15 s, too long for three repetitions per run.
    "spectral-2d": ("reference_2d", {"points_per_axis": 16}),
    "kmc-1d": ("reference_1d", {}),
    "bath": ("reference_1d", {}),
}


def model_document(root, workload, seed):
    """The model config of `workload` at `seed`, as a JSON-ready dict."""
    name, grid = SOURCES[workload]
    with open(root / "configs" / f"{name}.json") as fh:
        doc = json.load(fh)
    doc["rng_seed"] = int(seed)
    doc["grid"].update(grid)
    return doc


def write_inputs(root, workload, seed, out_dir):
    """Write the workload's config under `out_dir` and return its path."""
    path = out_dir / f"{workload}.json"
    with open(path, "w") as fh:
        json.dump(model_document(root, workload, seed), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return path
