"""Pinned traces: every config under ``tests/golden/`` must reproduce its
stored ``<name>_trace.csv`` and ``<name>_state.txt`` byte for byte.

The configs cover alg, almg, albg and ps; the power, geometric, fixed and
adaptive schedules; uniform and distance failures; and slots that end on
``stop_tol``. A change that alters any seeded trajectory fails here. To
regenerate the pinned files after an intended change of results, run
``python tests/test_golden.py`` from the repository root (with ``src`` on
the path) and record why in CHANGES.md.
"""

import shutil
import sys
from pathlib import Path

import pytest

from algossip import harness

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(GOLDEN.glob("*.cfg"))
OUTPUTS = ("_trace.csv", "_state.txt")


def test_golden_set_is_complete():
    assert len(CONFIGS) >= 5
    for cfg in CONFIGS:
        for suffix in OUTPUTS:
            assert (GOLDEN / (cfg.stem + suffix)).is_file()


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda p: p.stem)
def test_run_reproduces_pinned_bytes(cfg, tmp_path):
    harness.run(str(cfg), out_dir=str(tmp_path))
    for suffix in OUTPUTS:
        name = cfg.stem + suffix
        assert (tmp_path / name).read_bytes() == \
            (GOLDEN / name).read_bytes(), f"{name} differs from its pin"


def regenerate(scratch: Path) -> None:
    """Rerun every golden config into ``scratch`` and copy the pinned
    outputs back next to their configs."""
    for cfg in CONFIGS:
        harness.run(str(cfg), out_dir=str(scratch))
        for suffix in OUTPUTS:
            shutil.copyfile(scratch / (cfg.stem + suffix),
                            GOLDEN / (cfg.stem + suffix))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    sys.exit(0)
