"""The README's Python quick start runs as documented."""

import re
import warnings
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_block():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_runs():
    namespace = {"__name__": "readme_quick_start"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(_quick_start_block(), str(README), "exec"), namespace)
    # the values the block's comments state
    np.testing.assert_allclose(namespace["solution"].rho, [0.8, -0.8], atol=1e-12)
    assert 0.0 <= namespace["report"].p_value <= 1.0
