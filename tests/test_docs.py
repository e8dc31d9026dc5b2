"""The README's module table stays in step with the package."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_overview_lists_exactly_the_package_modules():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `catcodes\.(\w+)` \|", section, re.MULTILINE)
    modules = {p.stem for p in (ROOT / "src" / "catcodes").glob("*.py")} - {"__init__"}
    assert sorted(listed) == sorted(modules)
