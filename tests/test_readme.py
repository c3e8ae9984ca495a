"""README's Library example runs as written and gives the results its comments state."""

import re
from pathlib import Path

from sigmak.equations import StabilityVerdict
from sigmak.realroots import Order, compare

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first Python block after the "## Library" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example():
    ns: dict = {}
    exec(compile(library_example(), "README.md", "exec"), ns)
    report, f = ns["report"], ns["f"]
    assert report.verdict is StabilityVerdict.STRICTLY_STABLE
    chain = report.certificate.chain
    assert len(chain) == 5
    assert all(compare(a, b) is not Order.LESS for a, b in zip(chain, chain[1:]))
    assert ns["cone_membership"](f, [ns["F"](12)] * 5).member_level == 0
    assert ns["descent"].all_positive is True
