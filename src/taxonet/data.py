"""Count-table ingestion and the transforms feeding the estimators.

The single ingestion format is a delimited text table (comma or tab) with
one header row and one leading label column.  :class:`CountTable` is the
one validated input; every transform takes it and returns a new samples x
taxa array in the table's taxon order, and nothing mutates a table in place.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import FilterError, LoadError, TransformError


@dataclass(frozen=True)
class CountTable:
    """Samples x taxa nonnegative abundance matrix with labels.

    Parameters
    ----------
    values : ndarray of shape (n_samples, n_taxa)
        Nonnegative finite abundances; no missing entries.
    taxa : list of str
        Unique column labels.
    samples : list of str
        Unique row labels.
    """

    values: np.ndarray
    taxa: list[str]
    samples: list[str]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 2:
            raise LoadError("count table must be 2-dimensional")
        n, p = v.shape
        if len(self.samples) != n or len(self.taxa) != p:
            raise LoadError("label lengths do not match matrix shape")
        if len(set(self.taxa)) != p:
            raise LoadError("duplicate taxon labels")
        if len(set(self.samples)) != n:
            raise LoadError("duplicate sample labels")
        for bad, what in ((~np.isfinite(v), "missing or infinite"), (v < 0, "negative")):
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise LoadError(f"{what} value at sample {self.samples[i]!r}, "
                                f"taxon {self.taxa[j]!r}")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_taxa(self) -> int:
        return self.values.shape[1]


def _sniff_delimiter(header_line: str) -> str:
    # tab wins if the header contains tabs, else comma
    return "\t" if "\t" in header_line else ","


def load_count_table(path, orientation: str = "samples_in_rows") -> CountTable:
    """Load a delimited count table.

    The file has one header row and one leading label column.  With
    ``orientation="samples_in_rows"`` the header holds taxa labels and the
    leading column holds sample labels; ``"taxa_in_rows"`` is the transpose.
    The returned table is always samples-in-rows.  The loader rejects what
    only the text shows (empty and non-numeric cells, ragged rows);
    :class:`CountTable` checks the values and labels, and its error is
    prefixed with ``path``.
    """
    if orientation not in ("samples_in_rows", "taxa_in_rows"):
        raise LoadError(f"unknown orientation {orientation!r}")
    try:
        with open(path, "r", newline="") as fh:
            first = fh.readline()
            if not first.strip():
                raise LoadError(f"{path}: empty file")
            delim = _sniff_delimiter(first)
            fh.seek(0)
            rows = [row for row in csv.reader(fh, delimiter=delim)]
    except OSError as exc:
        raise LoadError(f"cannot read count table {path!r}: {exc}") from exc
    rows = [r for r in rows if any(cell.strip() for cell in r)]
    header = rows[0]
    col_labels = [c.strip() for c in header[1:]]
    ncol = len(header)
    row_labels: list[str] = []
    data = np.empty((len(rows) - 1, ncol - 1), dtype=float)
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != ncol:
            raise LoadError(
                f"{path}: ragged row {i} ({len(row)} cells, expected {ncol})"
            )
        row_labels.append(row[0].strip())
        for j, cell in enumerate(row[1:]):
            text = cell.strip()
            if not text:
                raise LoadError(
                    f"{path}: missing value at row {i}, column {col_labels[j]!r}"
                )
            try:
                data[i - 1, j] = float(text)
            except ValueError:
                raise LoadError(
                    f"{path}: non-numeric cell {text!r} at row {i}, "
                    f"column {col_labels[j]!r}"
                ) from None
    try:
        if orientation == "taxa_in_rows":
            return CountTable(values=data.T.copy(), taxa=row_labels, samples=col_labels)
        return CountTable(values=data, taxa=col_labels, samples=row_labels)
    except LoadError as exc:
        raise LoadError(f"{path}: {exc}") from exc


def write_count_table(table: CountTable, path, delimiter: str = "\t") -> None:
    """Write a table in the format accepted by :func:`load_count_table`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(["sample"] + list(table.taxa))
        for label, row in zip(table.samples, table.values):
            writer.writerow([label] + [format(x, ".17g") for x in row])


def filter_taxa(
    table: CountTable, min_prevalence: float = 0.0, min_total: float = 0.0
) -> CountTable:
    """Keep taxa present in at least ``min_prevalence`` of samples and with
    a column sum of at least ``min_total``.  Survivor order is preserved."""
    v = table.values
    n = table.n_samples
    prevalence_ok = (v > 0).sum(axis=0) >= min_prevalence * n
    total_ok = v.sum(axis=0) >= min_total
    keep = prevalence_ok & total_ok
    if not keep.any():
        raise FilterError(
            f"no taxa pass min_prevalence={min_prevalence}, min_total={min_total}"
        )
    taxa = [t for t, k in zip(table.taxa, keep) if k]
    return CountTable(values=v[:, keep].copy(), taxa=taxa, samples=list(table.samples))


def check_pseudo(pseudo: float) -> None:
    """The pseudo-count rule of :func:`clr_transform`, which parameter records
    also apply when they are built, before any table is read."""
    if not 0 <= pseudo < np.inf:
        raise TransformError("pseudo-count must be finite and >= 0")


def clr_transform(table: CountTable, pseudo: float = 0.5) -> np.ndarray:
    """Centered log-ratio of a table's rows: add ``pseudo`` to every cell,
    close each row to proportions, and take ln x minus the row mean of
    ln x, so every row sums to 0.

    ``pseudo=0`` is only legal when the table has no zeros.
    """
    check_pseudo(pseudo)
    v = table.values
    if pseudo == 0 and (v == 0).any():
        raise TransformError("pseudo=0 requires a table without zeros")
    shifted = v + pseudo
    comp = shifted / shifted.sum(axis=1, keepdims=True)
    # a row sum that overflows to inf closes its cells to 0
    if (comp <= 0).any():
        raise TransformError("composition entries must be strictly positive")
    logs = np.log(comp)
    return logs - logs.mean(axis=1, keepdims=True)


def log_transform(table: CountTable, pseudo: float = 0.5) -> np.ndarray:
    """Plain ln(x + pseudo) without row centering."""
    if pseudo <= 0 and (table.values == 0).any():
        raise TransformError("log transform needs pseudo > 0 when zeros are present")
    return np.log(table.values + pseudo)


def mclr_transform(table: CountTable) -> np.ndarray:
    """Modified CLR for zero-inflated counts.

    Nonzero entries of each row are replaced by ln(value) minus the mean of
    ln over that row's nonzero entries; zeros stay exactly 0.  A single
    global constant is then added to every nonzero entry so the minimum
    transformed nonzero equals 1.
    """
    v = table.values
    nonzero = v > 0
    rows_without = ~nonzero.any(axis=1)
    if rows_without.any():
        bad = table.samples[int(np.argmax(rows_without))]
        raise TransformError(f"sample {bad!r} has no nonzero entries")
    out = np.zeros_like(v, dtype=float)
    with np.errstate(divide="ignore"):
        logs = np.where(nonzero, np.log(np.where(nonzero, v, 1.0)), 0.0)
    counts = nonzero.sum(axis=1)
    row_means = logs.sum(axis=1) / counts
    out[nonzero] = (logs - row_means[:, None])[nonzero]
    out[nonzero] += 1.0 - out[nonzero].min()
    return out


def degenerate_taxa(values: np.ndarray, taxa, tol: float = 1e-12) -> list[str]:
    """Labels of taxa whose transformed column ``values`` has (numerically)
    zero variance."""
    var = values.var(axis=0)
    return [t for t, s in zip(taxa, var) if s <= tol]


def drop_taxa(table: CountTable, labels: list[str]) -> CountTable:
    """Return a table without the named taxa (no-op for an empty list)."""
    if not labels:
        return table
    drop = set(labels)
    keep = [t not in drop for t in table.taxa]
    if not any(keep):
        raise FilterError("dropping the named taxa would empty the table")
    mask = np.asarray(keep)
    return CountTable(
        values=table.values[:, mask].copy(),
        taxa=[t for t in table.taxa if t not in drop],
        samples=list(table.samples),
    )
