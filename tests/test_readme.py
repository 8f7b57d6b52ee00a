"""The README's library example, run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs_and_its_comments_hold():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert scope["verify_unitriangular"](scope["mat"]) == {"ok": True, "violations": []}
    assert scope["fock"].wedge_labels == [((), (1, 1))]
