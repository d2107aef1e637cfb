"""Every output group of scripts/output_digest.py hashes to its line in
output_digests.txt: the cost, sweep, simulate and verify outputs a refactor
must leave byte-identical.

The `rates` group hashes the shipped model's rates as float.hex and the
repr of its CalibrationReport, read from the shipped fit file
(configs/measured_costs.fit). That file was fitted with `np.linalg.lstsq`
under numpy 2.4.6 with its bundled scipy-openblas 0.3.31 on x86-64, so
the refit in test_calibration.py, which must match it bit for bit,
depends on the BLAS and CPU it runs on: a host whose BLAS rounds
differently fails it.
"""

import importlib.util
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
_SCRIPT = _HERE.parent / "scripts" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _SCRIPT)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def _committed() -> dict[str, str]:
    lines = (_HERE / "output_digests.txt").read_text().splitlines()
    return dict(line.split() for line in lines if line and not line.startswith("#"))


COMMITTED = _committed()


def test_every_group_has_one_committed_digest():
    assert list(COMMITTED) == list(output_digest.GROUPS)


@pytest.mark.parametrize("group", list(output_digest.GROUPS))
def test_group_digest_is_unchanged(group):
    assert output_digest.digest(group) == COMMITTED[group]
