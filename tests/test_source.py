"""The source stays within the round's line budget."""

from pathlib import Path

import torelli

#: ROADMAP item 9's gate on the lines of ``src/torelli``.
LINE_GATE = 2480


def test_source_stays_under_the_line_gate():
    sources = sorted(Path(torelli.__file__).parent.glob("*.py"))
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in sources)
    assert len(sources) >= 9 and lines < LINE_GATE, f"src/torelli holds {lines} lines in {len(sources)} files"
