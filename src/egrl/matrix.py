"""Dense exact linear algebra over a finite-field context.

Matrices store row-major integer element codes and are immutable values;
all operations are pure.  Elimination uses first-nonzero pivoting with
lowest-row-index tie-breaking, so echelon forms (and therefore text output)
are reproducible.

Text format: first line ``"rows cols"``, then one line of space-separated
codes per row.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import FieldCtx


class MatrixError(Exception):
    pass


class NotSquare(MatrixError):
    pass


class DimMismatch(MatrixError):
    pass


class FieldMatrix:
    """A rows-by-cols matrix of element codes over a fixed FieldCtx."""

    __slots__ = ("ctx", "rows", "cols", "data")

    def __init__(self, ctx: FieldCtx, rows: Iterable[Iterable[int]], *, cols: int | None = None):
        row_tuples = [tuple(r) for r in rows]
        if row_tuples:
            width = len(row_tuples[0])
            if any(len(r) != width for r in row_tuples):
                raise DimMismatch("ragged rows")
            if cols not in (None, width):
                raise DimMismatch(f"rows of length {width} disagree with cols={cols}")
            cols = width
        elif cols is None or cols < 0:
            raise DimMismatch(f"empty matrix needs a column count >= 0, got {cols}")
        self.ctx = ctx
        self.rows = len(row_tuples)
        self.cols = cols
        self.data = tuple(map(ctx._check, (c for r in row_tuples for c in r)))

    @classmethod
    def from_flat(cls, ctx: FieldCtx, rows: int, cols: int, data: Sequence[int]) -> "FieldMatrix":
        if rows < 0:
            raise DimMismatch(f"row count {rows} is negative")
        if len(data) != rows * cols:
            raise DimMismatch(f"need {rows * cols} entries, got {len(data)}")
        return cls(ctx, [data[i * cols : (i + 1) * cols] for i in range(rows)], cols=cols)

    # -- access ----------------------------------------------------------------

    def at(self, i: int, j: int) -> int:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.ctx == other.ctx
            and (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"FieldMatrix({self.rows}x{self.cols} over GF({self.ctx.q}))"

    # -- elimination ---------------------------------------------------------------

    def _rref_pivots(self) -> tuple[list[list[int]], list[int], int]:
        """(reduced rows, pivot columns, (-1)^swaps * product of the pivots).

        For a square matrix of full rank the last entry is the determinant.
        """
        ctx = self.ctx
        work = self.to_lists()
        pivots: list[int] = []
        det, r = 1, 0
        for c in range(self.cols):
            if r == self.rows:  # every row has its pivot (at once for a 0-row matrix)
                break
            pivot_row = next((i for i in range(r, self.rows) if work[i][c]), None)
            if pivot_row is None:
                continue
            if pivot_row != r:
                work[r], work[pivot_row] = work[pivot_row], work[r]
                det = ctx.neg(det)
            det = ctx.mul(det, work[r][c])
            inv = ctx.inv(work[r][c])
            if inv != 1:
                work[r] = [ctx.mul(inv, x) for x in work[r]]
            for i in range(self.rows):
                if i != r and work[i][c]:
                    f = work[i][c]
                    work[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(work[i], work[r])]
            pivots.append(c)
            r += 1
        return work, pivots, det

    def rank(self) -> int:
        return len(self._rref_pivots()[1])

    def det(self) -> int:
        if self.rows != self.cols:
            raise NotSquare(f"determinant of {self.rows}x{self.cols} matrix")
        _, pivots, det = self._rref_pivots()
        return det if len(pivots) == self.rows else 0

    # -- text format ------------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols}"]
        lines += [" ".join(map(str, self.row(i))) for i in range(self.rows)]
        return "\n".join(lines)

    @classmethod
    def from_text(cls, ctx: FieldCtx, text: str) -> "FieldMatrix":
        lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
        header = lines[0].split() if lines else []
        if len(header) != 2:
            raise DimMismatch("matrix text has no 'rows cols' header line")
        rows, cols = map(int, header)
        if len(lines) != rows + 1:
            raise DimMismatch(f"expected {rows} rows, got {len(lines) - 1}")
        data = [[int(t) for t in ln.split()] for ln in lines[1:]]
        if any(len(r) != cols for r in data):
            raise DimMismatch("row length differs from header")
        return cls(ctx, data, cols=cols)
