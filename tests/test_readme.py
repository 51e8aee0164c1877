import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    # the README's Python block is the documented use of the fit API
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], f"{README}:python", "exec"), {"__name__": "readme_example"})
    # it prints the fitted parameters and their FVU: the truth, recovered exactly
    assert capsys.readouterr().out.endswith(" 0.0\n")
