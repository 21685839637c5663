"""The README's Library example runs as documented."""
import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme_library"}
    exec(compile(_library_block(), f"{README}:Library", "exec"), namespace)
    test_set, predicted_kw = namespace["test_set"], namespace["predicted_kw"]
    assert predicted_kw.shape == (len(test_set),)
    assert np.all(np.isfinite(predicted_kw))
