import re
from pathlib import Path

import ml0

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names_resolve_and_the_readme_example_runs(tmp_path, monkeypatch):
    """A deletion cannot leave a dangling export or a stale example behind."""
    names = ml0.__all__
    assert names == sorted(set(names))
    for name in names:
        getattr(ml0, name)
    (block,) = re.findall(r"## Library use\n\n```python\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md (Library use)", "exec"), {})
    assert (tmp_path / "test.ml0t").is_file()
