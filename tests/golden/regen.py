"""Rewrite every golden file that ``tests/test_golden.py`` reads, from that
module's own commands and records, and the fine reference of the hbar^2
routes that ``tests/test_semiclassical.py`` reads, and print each file's
largest relative move of any float.

    PYTHONPATH=src python tests/golden/regen.py

A text file gets its command's output again; a JSON file keeps its records'
inputs and layout and gets their outcomes again.  ``fine_reference.json`` is
not written when its check fails (``test_semiclassical.fine_reference_records``).
A file whose numbers can no longer be paired one to one with the old ones (a
line or a record came or went) is reported as such.  The tests stay the check: read the diff, then
run them.
"""

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import test_golden  # noqa: E402
import test_semiclassical  # noqa: E402

from moyal.semiclassical import route_gap  # noqa: E402

# a float.hex literal, or a decimal number
_NUMBER = re.compile(r"-?0x[0-9a-f]+(?:\.[0-9a-f]*)?p[+-]?\d+|-?(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?", re.I)


def _floats(text: str) -> list[float]:
    return [float.fromhex(x) if "x" in x.lower() else float(x) for x in _NUMBER.findall(text)]


def largest_move(old: str, new: str) -> float | None:
    """The largest relative move (``route_gap``) between the numbers of two
    texts, paired in order; None where their counts differ."""
    before, after = _floats(old), _floats(new)
    if len(before) != len(after):
        return None
    return max(map(route_gap, before, after), default=0.0)


def _dump(old: str, content: dict) -> str:
    """``content`` in the layout of the JSON golden text ``old``: its text up
    to the records, one record a line at the first record's indent."""
    head, _, body = old.partition('"records": [\n')
    indent = re.match(r"\s*", body)[0]
    records = ",\n".join(indent + json.dumps(rec, ensure_ascii=False) for rec in content["records"])
    return f'{head}"records": [\n{records}\n]}}\n'


# each JSON golden file and the function that computes its content again
JSON_FILES = {**test_golden.JSON_FILES, "fine_reference.json": test_semiclassical.fine_reference_records}


def regenerated(name: str) -> tuple[int, str]:
    """The exit code and the content made again of the golden file ``name``:
    a text file's command's, or a JSON file's records' (exit code 0)."""
    if name in test_golden.COMMANDS:
        return test_golden.command_output(name)
    old = (test_golden.GOLDEN / name).read_text()
    return 0, _dump(old, JSON_FILES[name](json.loads(old)))


def main() -> int:
    status = 0
    for name in sorted([*test_golden.COMMANDS, *JSON_FILES]):
        path = test_golden.GOLDEN / name
        old = path.read_text()
        try:
            code, new = regenerated(name)
        except ValueError as err:
            print(f"{name}: {err}, not rewritten")
            status = 1
            continue
        if code != 0:
            print(f"{name}: exit code {code}, not rewritten")
            status = 1
            continue
        path.write_text(new)
        move = largest_move(old, new)
        if new == old:
            print(f"{name}: unchanged")
        elif move is None:
            print(f"{name}: rewritten; its numbers no longer pair with the old ones")
        else:
            print(f"{name}: rewritten, largest relative move {move:.2g}")
    return status


if __name__ == "__main__":
    sys.exit(main())
