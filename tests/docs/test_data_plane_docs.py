"""Execute every code block of docs/data_plane.md, plus its wiring.

Same contract as the serve and cluster pages: every ``python`` block
runs as written, in order, in one shared namespace — drifting docs
fail here before they mislead a reader.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
import yaml

REPO_ROOT = Path(__file__).resolve().parents[2]
PLANE_MD = REPO_ROOT / "docs" / "data_plane.md"

_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _blocks() -> list[str]:
    return _BLOCK.findall(PLANE_MD.read_text())


def test_data_plane_page_exists_and_has_snippets():
    assert PLANE_MD.exists()
    assert len(_blocks()) >= 4


def test_data_plane_snippets_execute_in_order():
    namespace: dict = {}
    for index, block in enumerate(_blocks()):
        try:
            exec(
                compile(block, f"data_plane.md[block {index}]", "exec"),
                namespace,
            )
        except Exception as exc:  # pragma: no cover - failure path
            pytest.fail(
                f"data_plane.md code block {index} failed: "
                f"{type(exc).__name__}: {exc}\n---\n{block}"
            )


def test_data_plane_page_is_in_nav():
    config = yaml.load(
        (REPO_ROOT / "mkdocs.yml").read_text(), Loader=yaml.BaseLoader
    )
    flat = str(config["nav"])
    assert "data_plane.md" in flat


def test_api_reference_covers_memory_module():
    text = (REPO_ROOT / "docs" / "api" / "runtime.md").read_text()
    assert "::: repro.runtime.memory" in text


def test_design_doc_has_data_plane_section():
    text = (REPO_ROOT / "DESIGN.md").read_text()
    assert "## 12." in text
    for anchor in ("ArrayRef", "promotion", "WorkerQueues",
                   "AccountingShard", "TaskSlab"):
        assert anchor in text


def test_page_mentions_the_moving_parts():
    text = PLANE_MD.read_text()
    for anchor in (
        "process:shm=true",
        "ArrayRef",
        "shared_array_pool",
        "data_plane",
        "payload_bandwidth",
        "BrokenProcessPool",
    ):
        assert anchor in text
