"""The shipped config files are what scripts/generate_configs.py writes."""

import importlib.util
from pathlib import Path

import pytest

from pisim.netarch import build_preset, serialize

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "generate_configs.py"
_spec = importlib.util.spec_from_file_location("generate_configs", _SCRIPT)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


@pytest.mark.parametrize(
    "filename, make",
    [("measured_costs.tsv", gen.make_costs), ("optimizations.tsv", gen.make_optimizations)],
    ids=["measured_costs", "optimizations"],
)
def test_shipped_table_is_generated(filename, make):
    assert (gen.CONFIG_DIR / filename).read_text() == make()


@pytest.mark.parametrize("model, dataset", gen.ARCHS, ids=[m for m, _ in gen.ARCHS])
def test_shipped_arch_is_generated(model, dataset):
    shipped = (gen.CONFIG_DIR / "archs" / f"{model}.arch").read_text()
    assert shipped == serialize(build_preset(model, dataset))


def test_every_shipped_arch_is_generated():
    shipped = {p.stem for p in (gen.CONFIG_DIR / "archs").glob("*.arch")}
    assert shipped == {m for m, _ in gen.ARCHS}
