"""The README's library example runs as written."""

import re
import shutil
from pathlib import Path

from conftest import SAMPLE_CACHE

README = Path(__file__).parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    shutil.copy(SAMPLE_CACHE, tmp_path / "cache.jsonl")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(blocks[0], namespace)
    assert namespace["header"]["count"] == len(namespace["records"]) == 200
    assert namespace["scored"]
    assert (tmp_path / "bundle" / "summary.json").is_file()
