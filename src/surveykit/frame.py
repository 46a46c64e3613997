"""Population frame: unit ids, size measures, labels, and auxiliary data."""

import csv
import io
from dataclasses import dataclass, field
from itertools import chain, islice, repeat

import numpy as np

__all__ = ["Frame", "FrameError"]


class FrameError(ValueError):
    pass


@dataclass(frozen=True)
class Frame:
    """A finite-population register.

    ids        unique opaque tokens, one per unit; internal dense indices
               follow frame order
    mos        measure of size, nonnegative (defaults to 1.0)
    stratum    optional stratum label per unit
    cluster    optional cluster label per unit; when both labels are present
               every cluster must sit inside a single stratum
    aux        auxiliary matrix, shape (N, k)
    y          optional study values, shape (N,) or (N, m), used by the
               simulation harness

    mos, aux and y are read-only copies of the arrays given.  Whatever is
    derived from them (index sets, sub-frames, a design's probabilities) is
    built once by `_memo`, read-only, and freed with the frame.
    """

    ids: tuple
    mos: np.ndarray = None
    stratum: tuple = None
    cluster: tuple = None
    aux: np.ndarray = None
    y: np.ndarray = None
    _index: dict = field(default=None, repr=False, compare=False)
    _cache: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        ids = tuple(map(str, self.ids))
        object.__setattr__(self, "ids", ids)
        n = len(ids)
        if n == 0:
            raise FrameError("frame is empty")
        if len(set(ids)) != n:
            raise FrameError("frame ids are not unique")
        mos = self.mos
        if mos is None:
            mos = np.ones(n)
        mos = _read_only(mos)
        if mos.shape != (n,):
            raise FrameError("mos must have one value per unit")
        if np.any(mos < 0) or not np.all(np.isfinite(mos)):
            raise FrameError("mos must be finite and nonnegative")
        object.__setattr__(self, "mos", mos)
        if self.stratum is not None:
            stratum = tuple(map(str, self.stratum))
            if len(stratum) != n:
                raise FrameError("stratum labels must have one value per unit")
            object.__setattr__(self, "stratum", stratum)
        if self.cluster is not None:
            cluster = tuple(map(str, self.cluster))
            if len(cluster) != n:
                raise FrameError("cluster labels must have one value per unit")
            object.__setattr__(self, "cluster", cluster)
        if self.stratum is not None and self.cluster is not None:
            seen = {}
            for s, c in zip(self.stratum, self.cluster):
                if c in seen and seen[c] != s:
                    raise FrameError(f"cluster {c!r} spans strata {seen[c]!r} and {s!r}")
                seen[c] = s
        if self.aux is not None:
            aux = np.atleast_2d(_read_only(self.aux))
            if aux.shape[0] == 1 and n > 1:
                aux = aux.T
            if aux.shape[0] != n:
                raise FrameError("aux must have one row per unit")
            object.__setattr__(self, "aux", aux)
        if self.y is not None:
            y = _read_only(self.y)
            if y.shape[0] != n:
                raise FrameError("y must have one value per unit")
            object.__setattr__(self, "y", y)
        object.__setattr__(self, "_cache", {})

    @property
    def n_units(self):
        return len(self.ids)

    def __len__(self):
        return len(self.ids)

    def index_of(self, unit_id):
        if self._index is None:  # built on first use: reading a frame needs no lookup
            object.__setattr__(self, "_index", dict(zip(self.ids, range(len(self.ids)))))
        return self._index[str(unit_id)]

    def y_column(self, j=0):
        if self.y is None:
            raise FrameError("frame carries no study values")
        y = self.y
        m = 1 if y.ndim == 1 else y.shape[1]
        if not 0 <= j < m:
            raise FrameError(f"frame has {m} study column(s), so no column {j}")
        return y if y.ndim == 1 else y[:, j]

    def clusters(self):
        """Cluster labels in frame order of first appearance, with index sets."""
        return self._groups("cluster")

    def strata(self):
        """Stratum labels in frame order of first appearance, with index sets."""
        return self._groups("stratum")

    def _groups(self, name):
        labels = getattr(self, name)
        if labels is None:
            raise FrameError(f"frame carries no {name} labels")

        def build():
            members = {}  # keeps first-appearance order
            for i, label in enumerate(labels):
                members.setdefault(label, []).append(i)
            return [(label, np.asarray(m, dtype=np.int64)) for label, m in members.items()]

        return self._memo(name, build)

    def restrict(self, idx):
        """Sub-frame of the given dense indices (used for per-stratum and
        per-cluster draws); memoized, since designs restrict to the same
        index sets on every replicate."""
        idx = np.asarray(idx, dtype=np.int64)
        return self._memo(("restrict", idx.tobytes()), lambda: Frame(
            ids=tuple(self.ids[i] for i in idx),
            mos=self.mos[idx],
            stratum=None if self.stratum is None else tuple(self.stratum[i] for i in idx),
            cluster=None if self.cluster is None else tuple(self.cluster[i] for i in idx),
            aux=None if self.aux is None else self.aux[idx],
            y=None if self.y is None else self.y[idx],
        ))

    def _memo(self, key, build):
        """The value build() gives, built once per frame and key and stored
        on the frame, so it is freed with it.  Every array in the value (the
        value itself, or one held in a tuple or list) is set read-only first:
        each caller gets the same arrays."""
        if key not in self._cache:
            self._cache[key] = _frozen(build())
        return self._cache[key]


def _frozen(value):
    """value, every array in it (at any depth of tuples and lists) read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _frozen(item)
    return value


def _read_only(values):
    """A read-only float copy of values: the caches a frame keeps (restricted
    frames, the cluster frame, design bindings, the support table) assume
    its arrays never change, and the caller's array may."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


_CSV_BLOCK = 1 << 12  # lines parsed per block, which bounds the rows held
_LABELS = ("id", "stratum", "cluster")  # columns read as strings


def _read_table(path_or_text, what, required, optional=(), fill=None):
    """(columns, x) of the CSV table at path_or_text, a path or CSV text:
    columns maps the names in required (which must be there) and optional
    to tuples of strings (_LABELS) or float arrays, a blank cell of a column
    in fill reading as its fill; x is x1..xk in numeric order, shape (n, k).
    A cell that reads as NaN or an infinity is refused, unless it is NaN in
    a column whose fill is NaN, where it means what a blank means; in one
    block of rows, a cell that is no number at all is named first.  Errors
    name the table (what) and the row or column at fault."""
    if isinstance(path_or_text, str) and "\n" in path_or_text:
        source = io.StringIO(path_or_text)
    else:
        source = open(path_or_text, newline="", encoding="utf-8")
    with source as handle:
        header = next(csv.reader(handle), None)
        if header is None:
            raise FrameError(f"{what} CSV is empty")
        header = [h.strip() for h in header]
        cols = {name: j for j, name in enumerate(header)}
        if len(cols) != len(header):
            repeated = next(name for j, name in enumerate(header) if cols[name] != j)
            raise FrameError(f"{what} CSV repeats column {repeated!r}")
        for name in required:
            if name not in cols:
                raise FrameError(f"{what} CSV has no {name!r} column")
        xcols = sorted(
            (name for name in cols if name.startswith("x") and name[1:].isdigit()),
            key=lambda name: int(name[1:]),
        )
        named = [name for name in (*required, *optional) if name in cols]
        labels = {name: [] for name in named if name in _LABELS}
        numbers = [name for name in named if name not in labels]
        js = [cols[name] for name in numbers + xcols]
        names = numbers + xcols
        fills = [(fill or {}).get(name) for name in names]
        nan_fill = np.array([f is not None and np.isnan(f) for f in fills], bool)[:, None]
        blocks = []
        for lines, columns in _column_blocks(handle, len(header), cols[required[0]]):
            for name, out in labels.items():
                out.extend(columns[cols[name]])
            try:
                values = np.array([columns[j] for j in js], dtype=float)
            except ValueError:  # parse cell by cell: fills, and errors that name the row
                values = np.array([_floats(lineno, row, js, fills)
                                   for lineno, row in zip(lines, zip(*columns))]).T
            values = values.reshape(len(js), len(lines))
            if not np.isfinite(values).all():
                _check_finite(values, lines, [columns[j] for j in js], names, nan_fill)
            blocks.append(values)
    if not blocks:
        raise FrameError(f"{what} is empty")
    values = np.concatenate(blocks, axis=1)
    columns = {name: tuple(out) for name, out in labels.items()}
    columns.update(zip(numbers, values))
    return columns, np.ascontiguousarray(values[len(numbers):].T)


def _column_blocks(handle, width, key_col):
    """The non-blank rows of the CSV lines in handle as (row numbers,
    columns) blocks of at most _CSV_BLOCK rows.  Plain blocks are split
    in one pass; the first block that is not, and every block after it (a
    quoted field may span lines), goes through csv.reader, so row numbers
    stay csv row numbers."""
    start = 2
    while lines := list(islice(handle, _CSV_BLOCK)):
        columns = _plain_columns(lines, width, key_col)
        if columns is None:
            for rows, block in _row_blocks(csv.reader(chain(lines, handle)), width, start):
                yield rows, list(zip(*block))
            return
        yield range(start, start + len(lines)), columns
        start += len(lines)


def _plain_columns(lines, width, key_col):
    """The columns of a block of CSV lines that csv.reader would read as
    one row a line, split on commas: no quote, no CR and no line longer
    than csv's field limit, width - 1 commas on every line, and text in
    every cell of the required column key_col, so that no row is blank.
    None for any other block."""
    text = "".join(lines)
    if ('"' in text or "\r" in text
            or set(map(str.count, lines, repeat(","))) != {width - 1}
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    cells = text.replace("\n", ",").split(",")
    if text.endswith("\n"):
        cells.pop()
    columns = [cells[j::width] for j in range(width)]
    return columns if all(map(str.strip, columns[key_col])) else None


def _row_blocks(rows, width, start):
    """The CSV's non-blank rows, numbered from start, as (row numbers, rows)
    blocks of at most _CSV_BLOCK rows; a row of another width raises once
    the rows above it are parsed, so that a bad cell above it is reported
    first.

    Each block of _CSV_BLOCK rows is checked whole: one set of the row
    widths, then one pass for a blank or whitespace-only row.  Only a block
    that fails either check goes row by row, which drops its blank rows and
    names the first row of another width."""
    rows = iter(rows)
    while block := list(islice(rows, _CSV_BLOCK)):
        lines = range(start, start + len(block))
        start += len(block)
        if set(map(len, block)) == {width} and all(map(str.strip, map("".join, block))):
            yield lines, block
            continue
        kept_lines, kept = [], []
        for lineno, row in zip(lines, block):
            if not "".join(row).strip():  # blank, or whitespace only
                continue
            if len(row) != width:
                if kept:
                    yield kept_lines, kept
                raise FrameError(f"row {lineno}: expected {width} fields, got {len(row)}")
            kept_lines.append(lineno)
            kept.append(row)
        if kept:
            yield kept_lines, kept


def _floats(lineno, row, js, fills):
    """The cells js of a CSV row as floats, a blank cell as its column's
    fill when it has one; a bad cell names the row."""
    try:
        return [fill if fill is not None and not row[j].strip() else float(row[j])
                for j, fill in zip(js, fills)]
    except ValueError as exc:
        raise FrameError(f"row {lineno}: {exc}") from exc


def _check_finite(values, lines, cells, names, nan_fill):
    """Refuse the first cell, in row order, of the (columns names, rows
    lines) table values that reads as NaN or an infinity, unless it is NaN
    where nan_fill marks its column; cells[k][r] is cell (k, r)'s text."""
    bad = np.isinf(values) | np.isnan(values) & ~nan_fill
    if bad.any():
        r = int(np.argmax(bad.any(axis=0)))
        k = int(np.argmax(bad[:, r]))
        raise FrameError(f"row {lines[r]}: {names[k]} holds {cells[k][r].strip()!r}, "
                         "not a finite number")


def read_frame_csv(path_or_text):
    """Load a frame from CSV: required column ``id``; optional ``mos``,
    ``stratum``, ``cluster``, ``y`` and ``x1..xk``."""
    columns, x = _read_table(path_or_text, "frame", ["id"],
                             ["mos", "stratum", "cluster", "y"])
    return Frame(ids=columns.pop("id"), aux=x if x.shape[1] else None, **columns)
