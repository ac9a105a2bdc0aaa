"""The README's library example runs as written, and every public name
of the package resolves."""

import re
import shutil
from pathlib import Path

import cverisk

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
    skipped = namespace["skipped"]
    assert skipped
    assert all(type(cve_id) is str and type(reason) is str for cve_id, reason in skipped)
    assert (tmp_path / "bundle" / "summary.json").is_file()


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from cverisk import *", namespace)  # raises if a name in __all__ is gone
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(cverisk.__all__)
