import importlib
import pkgutil
import re
from pathlib import Path

import mmscatter

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    # the README's Python block is the documented use of the fit API
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], f"{README}:python", "exec"), {"__name__": "readme_example"})
    # it prints the fitted parameters and their FVU: the truth, recovered exactly
    assert capsys.readouterr().out.endswith(" 0.0\n")


DOCS = [README, *sorted((README.parent / "docs").glob("*.md"))]
# a backticked dotted name, or a backticked private name (one underscore, then a letter)
_DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)`")
_PRIVATE = re.compile(r"`(_[A-Za-z]\w*)(?:\.\w+)*`")


def _package_modules() -> dict[str, object]:
    names = [info.name for info in pkgutil.iter_modules(mmscatter.__path__) if info.name != "__main__"]
    return {name: importlib.import_module(f"mmscatter.{name}") for name in names}


def _resolves(owner, attrs) -> bool:
    for attr in attrs:
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def test_documented_names_resolve():
    # a doc that names `module.name` or a private `_name` of the package names code that exists
    modules = _package_modules()
    stale, checked = [], 0
    for doc in DOCS:
        text = doc.read_text(encoding="utf-8")
        for dotted in _DOTTED.findall(text):
            parts = dotted.split(".")
            if parts[0] == "mmscatter":
                owner, parts = mmscatter, parts[1:]
                if parts and parts[0] in modules:
                    owner, parts = modules[parts[0]], parts[1:]
            elif parts[0] in modules:
                owner, parts = modules[parts[0]], parts[1:]
            else:
                continue
            checked += 1
            if not _resolves(owner, parts):
                stale.append(f"{doc.name}: `{dotted}`")
        for private in _PRIVATE.findall(text):
            checked += 1
            if not any(hasattr(module, private) for module in modules.values()):
                stale.append(f"{doc.name}: `{private}`")
    assert checked > 20
    assert stale == []
