"""Text renderings of pipeline stages, in the tier-table layout."""

from __future__ import annotations

from pathlib import Path

from .cts import render_table, window_row
from .decompose import Ctf
from .formula import TabularFormula


def render_formula(formula: TabularFormula) -> str:
    """0/1 table of the formula: one row per clause, marks under the
    variable columns."""
    def row(clause) -> list[str]:
        cells = [""] * formula.n
        for v, mark in clause.entries:
            cells[v - 1] = str(mark)
        return cells
    return render_table(range(1, formula.n + 1), map(row, formula.clauses))


def render_ctf(ctf: Ctf) -> str:
    """Tier table of a CT formula (clause mark patterns per window)."""
    return render_table(ctf.perm.order, (window_row(j, code)
                                         for j, code in ctf.clause_lines()))


class FileTraceSink:
    """Writes each stage to <dir>/<seq>_<name>.txt in emission order.

    A directory that already holds such stage files is refused
    (FileExistsError), so one trace never mixes with an earlier one.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        earlier = sorted(self.directory.glob("[0-9][0-9]_*.txt"))
        if earlier:
            raise FileExistsError(
                "trace directory %s already holds stage files (%s, ...)"
                % (self.directory, earlier[0].name))
        self.directory.mkdir(parents=True, exist_ok=True)
        self._seq = 0

    def write(self, name: str, content: str) -> Path:
        path = self.directory / ("%02d_%s.txt" % (self._seq, name))
        self._seq += 1
        if not content.endswith("\n"):
            content += "\n"
        path.write_text(content)
        return path
