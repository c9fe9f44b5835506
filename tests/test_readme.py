import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def library_example():
    """The first Python block under the README's `## Library` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    assert capsys.readouterr().out == "WithdrawnRetro\n"
