"""The README's module table and the package's public names stay in step with the package."""

import re
from pathlib import Path
from types import ModuleType

import catcodes

ROOT = Path(__file__).resolve().parents[1]


def test_library_overview_lists_exactly_the_package_modules():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `catcodes\.(\w+)` \|", section, re.MULTILINE)
    modules = {p.stem for p in (ROOT / "src" / "catcodes").glob("*.py")} - {"__init__"}
    assert sorted(listed) == sorted(modules)


def test_all_lists_every_public_name_and_no_module():
    public = {name for name in dir(catcodes) if not name.startswith("_")}
    modules = {name for name in public if isinstance(getattr(catcodes, name), ModuleType)}
    assert {"catcode", "channels", "concat", "degradable", "search"} <= modules
    assert sorted(catcodes.__all__) == sorted(public - modules)
