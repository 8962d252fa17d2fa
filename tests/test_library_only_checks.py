"""The README's list of library-only checks is exactly the public ``check_*``
functions that no ``verify`` or ``restrict`` command runs.

Every public ``sconf.check_*`` is replaced on its module by a spy that
records the call. The CLI then runs every ``verify`` suite once and every
``restrict --check`` once (simplicity at a = 0 and at a = 1), at window 1
and degree 1.
"""

import re
import sys
from pathlib import Path

import sconf
from sconf import cli

README = Path(__file__).resolve().parents[1] / "README.md"

_SMALL = ["--window", "1", "--degree", "1"]
RUNS = [
    ["verify", "algebra", "--window", "1"],
    ["verify", "module", *_SMALL],
    ["verify", "homomorphism", "--window", "1"],
    ["verify", "submodule", *_SMALL],
    ["verify", "quotient", *_SMALL],
    ["verify", "restriction", *_SMALL],
    ["restrict", "--check", "relations", *_SMALL],
    ["restrict", "--check", "rank1", *_SMALL],
    ["restrict", "--check", "simplicity", "--a", "0", *_SMALL],
    ["restrict", "--check", "simplicity", "--a", "1", *_SMALL],
]


def _library_only():
    """The ``check_*`` names listed under the README's library-only heading."""
    section = README.read_text().split("### Library-only checks\n", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^\* `(check_\w+)`", section, re.MULTILINE))


def test_the_readme_lists_exactly_the_checks_no_command_runs(monkeypatch, capsys):
    names = {name for name in dir(sconf) if name.startswith("check_")}
    called = set()
    for name in names:
        check = getattr(sconf, name)

        def spy(*args, _check=check, _name=name, **kwargs):
            called.add(_name)
            return _check(*args, **kwargs)

        monkeypatch.setattr(sys.modules[check.__module__], name, spy)
    codes = [cli.main(argv) for argv in RUNS]
    capsys.readouterr()
    assert all(code in (0, 2) for code in codes), codes
    assert names - called == _library_only()
