"""Smoke test of ``tools/layer_times.py`` at small n."""

import importlib.util
import json
from pathlib import Path

import pytest

from intervallabel.reps import REP_KINDS

_PATH = Path(__file__).resolve().parents[1] / "tools" / "layer_times.py"
_spec = importlib.util.spec_from_file_location("layer_times", _PATH)
layer_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_times)


def test_layer_times_writes_every_class_shape_and_layer(tmp_path):
    out = tmp_path / "layers.json"
    assert layer_times.main(["--n", "24", "48", "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["conditions"]["n"] == [24, 48]
    rows = {(r["class"], r["shape"]): r for r in data["layers"]}
    assert set(rows) == {(k, s) for k in REP_KINDS for s in ("dense", "sparse")}
    for (kind, _), row in rows.items():
        layers = set(layer_times.LAYERS) - ({"omega"} if kind != "circular_arc" else set())
        assert set(row["growth_per_doubling"]) == layers
        for n in ("24", "48"):
            assert set(row["ms"][n]) == layers
            assert all(t >= 0 for t in row["ms"][n].values())


def test_growth_per_doubling():
    assert layer_times.growth_per_doubling([100, 200, 400], [1.0, 4.0, 16.0]) == 4.0
    assert layer_times.growth_per_doubling([100], [1.0]) is None


def test_layer_times_rejects_a_zero_n():
    with pytest.raises(SystemExit) as exc:
        layer_times.main(["--n", "8", "0"])
    assert exc.value.code == 2
