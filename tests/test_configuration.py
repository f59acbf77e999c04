"""The knob inventory: README's Configuration table against the code.

Every ``repro-audio-server`` flag and every ``REPRO_*`` environment
variable read under ``src/`` must have a row in the table, and every row
must name a knob that still exists.  The knob count quoted in reviews
and change notes is then a checked fact, not a hand count.
"""

import pathlib
import re

from repro.server.main import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: An environment read: os.environ.get("X"), os.environ["X"] or
#: os.getenv("X").
ENV_READ = re.compile(
    r"""(?:environ\.get\(|environ\[|getenv\()\s*["'](REPRO_\w+)["']""")


def documented_knobs() -> set[str]:
    """The first-column names of README's Configuration table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE))


def server_flags() -> set[str]:
    return {option for action in build_parser()._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"}


def environment_reads() -> set[str]:
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(ENV_READ.findall(path.read_text()))
    return names


def test_table_matches_code_both_ways():
    in_code = server_flags() | environment_reads()
    documented = documented_knobs()
    assert in_code - documented == set(), "knobs missing from README"
    assert documented - in_code == set(), "README rows for removed knobs"


def test_knob_count():
    # The count ROADMAP.md quotes; a new knob updates both.
    assert (len(server_flags()), len(environment_reads())) == (21, 9)
