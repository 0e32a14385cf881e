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


def describe_difference(name: str, got: bytes, want: bytes) -> str:
    """Where two outputs differ: the first differing line, and the columns
    that differ on any line. Trace columns are named by the CSV header,
    state columns by position (0 is the node id)."""
    sep = "," if name.endswith(".csv") else None
    got_rows = [r.split(sep) for r in got.decode().splitlines()]
    want_rows = [r.split(sep) for r in want.decode().splitlines()]
    header = want_rows[0] if sep and want_rows else []
    pairs = list(zip(got_rows, want_rows))
    first = next((i for i, (g, w) in enumerate(pairs) if g != w), len(pairs))
    columns = sorted({c for g, w in pairs for c in range(max(len(g), len(w)))
                      if g[c:c + 1] != w[c:c + 1]})
    names = [header[c] if c < len(header) else str(c) for c in columns]
    lines = [f"{name} differs from its pin from line {first + 1}"
             f" ({len(got_rows)} lines, {len(want_rows)} pinned)",
             f"  columns that differ: {', '.join(names) or 'none'}"]
    for label, rows in (("got", got_rows), ("pin", want_rows)):
        if first < len(rows):
            lines.append(f"  {label}: {' '.join(rows[first])}")
    return "\n".join(lines)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda p: p.stem)
def test_run_reproduces_pinned_bytes(cfg, tmp_path):
    harness.run(str(cfg), out_dir=str(tmp_path))
    for suffix in OUTPUTS:
        name = cfg.stem + suffix
        got = (tmp_path / name).read_bytes()
        want = (GOLDEN / name).read_bytes()
        assert got == want, describe_difference(name, got, want)


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
