"""The README's library example runs as written and prints what it says.

The python block and the example session's c6.grp are both read from
README.md, which is never edited.
"""

import gc
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


# a file the example leaves open warns when it is collected: a failure here
@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_readme_library_example(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    (match,) = re.finditer(r"```python\n(.*?)```", text, re.S)
    # pad with the lines above the block, so tracebacks name README lines
    block = "\n" * text.count("\n", 0, match.start(1)) + match.group(1)
    c6 = re.search(r"cat > c6\.grp <<'EOF'\n(.*?)EOF\n", text, re.S).group(1)
    (tmp_path / "c6.grp").write_text(c6)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    gc.collect()
    assert capsys.readouterr().out == "((0,),)\n3 2\n" * 3
