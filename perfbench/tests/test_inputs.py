import json
from pathlib import Path

import pytest

from latticediff.model import model_from_json
from perfbench import inputs, run, spans, workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", sorted(inputs.SOURCES))
def test_inputs_are_deterministic_for_a_seed(tmp_path, workload):
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths.append(inputs.write_inputs(ROOT, workload, 11, tmp_path / sub))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    cfg = model_from_json(str(paths[0]))
    assert cfg.rng_seed == 11


def test_seed_changes_only_rng_seed():
    a = inputs.model_document(ROOT, "spectral-2d", 1)
    b = inputs.model_document(ROOT, "spectral-2d", 2)
    assert (a["rng_seed"], b["rng_seed"]) == (1, 2)
    a.pop("rng_seed"), b.pop("rng_seed")
    assert a == b
    assert a["grid"]["points_per_axis"] == 16


def test_negative_seed_is_refused():
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "cli-1d", "--seed", "-1", "--seconds", "1"])
    assert exc.value.code == 2


def test_benchmark_json_matches_the_code():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(inputs.SOURCES)
    assert list(workloads.WORKLOADS) == list(inputs.SOURCES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER_UNITS
