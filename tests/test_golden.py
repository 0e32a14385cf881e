"""Pinned traces: every config under ``tests/golden/`` must reproduce its
stored ``<name>_trace.csv`` and ``<name>_state.txt`` byte for byte.

The configs cover alg, almg, albg and ps; the power, geometric, fixed and
adaptive schedules; uniform and distance failures; and slots that end on
``stop_tol``. A change that alters any seeded trajectory fails here.
``skipped_blocks.json`` pins, for each gossip config, the node and link
block minimizations its run skipped as clean (the manifest's
``skipped_blocks``), which the trace does not show. To regenerate the
pinned files after an intended change of results, run
``python tests/test_golden.py`` from the repository root and record why in
CHANGES.md.

Each OpenBLAS kernel rounds products differently, so the configs run in a
child process with ``OPENBLAS_CORETYPE`` set to a kernel that every x86-64
CPU runs. The child first reports the kernel it got; ``openblas_core.txt``
records the one the pins were made under. A numpy without its bundled
OpenBLAS fails here with the name of its BLAS, not with a byte diff.
"""

import ctypes
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

if __name__ == "__main__":
    # run as a script: import the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

from algossip import harness
from algossip.metrics import write_atomic

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(GOLDEN.glob("*.cfg"))
OUTPUTS = ("_trace.csv", "_state.txt")
SKIPPED = GOLDEN / "skipped_blocks.json"
CORE = GOLDEN / "openblas_core.txt"
CORETYPE = "Prescott"  # OpenBLAS reports it as the core ``Katmai``


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


def openblas_core() -> str:
    """The name of the kernel that numpy's bundled OpenBLAS runs in this
    process; ``RuntimeError`` naming numpy's BLAS when there is none."""
    here = Path(np.__file__).resolve().parent
    for lib in sorted(here.parent.glob("numpy.libs/*openblas*")) + \
            sorted(here.glob(".dylibs/*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)),
                           "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    blas = getattr(np.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    raise RuntimeError(f"the golden pins need numpy's bundled OpenBLAS; "
                       f"numpy {np.__version__} uses "
                       f"{blas.get('name', 'an unknown BLAS')} "
                       f"{blas.get('version', '')}".rstrip())


def test_a_numpy_without_its_openblas_is_named(tmp_path, monkeypatch):
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "x.py"))
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    with pytest.raises(RuntimeError, match=f"numpy .* uses {blas}"):
        openblas_core()


def run_under_pinned_kernel(out_dir: Path) -> dict:
    """Run every golden config into ``out_dir`` in a child process under
    ``CORETYPE``; returns the child's kernel name and each gossip config's
    ``skipped_blocks``, or ``{"error": ...}`` from a child without the
    bundled OpenBLAS."""
    env = dict(os.environ, OPENBLAS_CORETYPE=CORETYPE,
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--into", str(out_dir)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    return run_under_pinned_kernel(out), out


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda p: p.stem)
def test_run_reproduces_pinned_bytes(cfg, pinned_run):
    report, out = pinned_run
    assert "error" not in report, report.get("error")
    pinned_core = CORE.read_text().strip()
    assert report["core"] == pinned_core, (
        f"OPENBLAS_CORETYPE={CORETYPE} ran the OpenBLAS kernel "
        f"{report['core']}, but the pins were made under {pinned_core}")
    for suffix in OUTPUTS:
        name = cfg.stem + suffix
        got = (out / name).read_bytes()
        want = (GOLDEN / name).read_bytes()
        assert got == want, describe_difference(name, got, want)
    pinned = json.loads(SKIPPED.read_text())
    assert report["skipped"].get(cfg.stem) == pinned.get(cfg.stem)


def regenerate(out_dir: Path) -> None:
    """Rerun every golden config into ``out_dir`` under the pinned kernel,
    copy the pinned outputs back next to their configs and rewrite
    ``skipped_blocks.json`` and ``openblas_core.txt``."""
    report = run_under_pinned_kernel(out_dir)
    if "error" in report:
        sys.exit(report["error"])
    for cfg in CONFIGS:
        for suffix in OUTPUTS:
            shutil.copyfile(out_dir / (cfg.stem + suffix),
                            GOLDEN / (cfg.stem + suffix))
    write_atomic(SKIPPED, lambda fh: fh.write(
        json.dumps(report["skipped"], indent=1, sort_keys=True) + "\n"))
    write_atomic(CORE, lambda fh: fh.write(report["core"] + "\n"))


def child(out_dir: Path) -> None:
    """The child of :func:`run_under_pinned_kernel`: runs the configs and
    prints its report as JSON."""
    try:
        report = {"core": openblas_core(), "skipped": {}}
    except RuntimeError as exc:
        print(json.dumps({"error": str(exc)}))
        return
    for cfg in CONFIGS:
        result = harness.run(str(cfg), out_dir=str(out_dir))
        if "skipped_blocks" in result.manifest:
            report["skipped"][cfg.stem] = result.manifest["skipped_blocks"]
    print(json.dumps(report))


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:2] == ["--into"]:
        child(Path(sys.argv[2]))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            regenerate(Path(tmp))
    sys.exit(0)
