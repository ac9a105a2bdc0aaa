"""Every output byte of the fixture commands, pinned by a committed manifest.

``data/golden.json`` maps each file that the four fixture cases and fixture
``score`` write (as ``case/file``) to its SHA-256. The per-vector densities
``kde_*.csv`` are left out: ``kernel_density`` calls ``np.exp``, whose last
bit depends on the CPU. Nothing else in these outputs depends on the
machine: the fixture's header fixes ``retrieved_at``, and
``dataset_sha256`` hashes the fixture.

A change that moves output bytes on purpose rewrites the manifest with

    CVERISK_UPDATE_GOLDEN=1 PYTHONPATH=src python3 -m pytest -q tests/test_golden.py

and names the moved files in CHANGES.md.
"""

import hashlib
import json
import os

import pytest
from click.testing import CliRunner

from cverisk.cli import main

from conftest import DATA_DIR, SAMPLE_CACHE

GOLDEN = DATA_DIR / "golden.json"
FIXTURE = str(SAMPLE_CACHE)

# Case name -> its command line, given the directory that holds every case's
# output; a case may read what an earlier one wrote.
CASES = {
    "analyze": lambda root: ["analyze", "--cache", FIXTURE],
    "analyze-uniform-lenient": lambda root: [
        "analyze", "--cache", FIXTURE, "--baseline", "uniform", "--lenient",
    ],
    "calibrate": lambda root: ["calibrate", "--cache", FIXTURE, "--n-cal", "100", "--seed", "3"],
    "analyze-calibrated": lambda root: [
        "analyze", "--cache", FIXTURE, "--config", str(root / "calibrate" / "model_config.txt"),
        "--exclude-ids", str(root / "calibrate" / "calibration_ids.txt"),
    ],
    "score": lambda root: ["score", "--cache", FIXTURE],
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("golden")
    for name, args in CASES.items():
        result = CliRunner().invoke(main, [*args(root), "--out", str(root / name)])
        assert result.exit_code == 0, (name, result.output)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and not path.name.startswith("kde_")
    }


def test_every_output_file_matches_the_golden_manifest(digests):
    if os.environ.get("CVERISK_UPDATE_GOLDEN") == "1":
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    differ = sorted(name for name in golden.keys() | digests.keys() if golden.get(name) != digests.get(name))
    assert not differ, f"files that differ from {GOLDEN.name}: {', '.join(differ)}"
