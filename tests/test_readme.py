"""The README's library quickstart runs as written, importing only the
names the package itself exports."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(),
                      re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert float(out.getvalue().split()[-1]) < 1e-10
