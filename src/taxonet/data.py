"""Count-table ingestion and the transforms feeding the estimators.

The single ingestion format is a delimited text table (comma or tab) with
one header row and one leading label column.  All transforms return new
value objects; nothing mutates a table in place.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FilterError, LoadError, TransformError

ROW_SUM_TOL = 1e-10


@dataclass(frozen=True)
class CountTable:
    """Samples x taxa nonnegative abundance matrix with labels.

    Parameters
    ----------
    values : ndarray of shape (n_samples, n_taxa)
        Nonnegative real abundances; no missing entries.
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
        if np.isnan(v).any():
            raise LoadError("missing values in count table")
        if (v < 0).any():
            i, j = np.argwhere(v < 0)[0]
            raise LoadError(
                f"negative value at row {i + 1}, column {self.taxa[j]!r}"
            )

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_taxa(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CompositionTable:
    """Strictly positive relative abundances; each row sums to 1."""

    values: np.ndarray
    taxa: list[str]
    samples: list[str]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if (v <= 0).any():
            raise TransformError("composition entries must be strictly positive")
        if not np.allclose(v.sum(axis=1), 1.0, atol=ROW_SUM_TOL, rtol=0):
            raise TransformError("composition rows must sum to 1")


@dataclass(frozen=True)
class TransformedTable:
    """Real-valued matrix after a log-family transform.

    ``transform`` is one of ``clr``, ``mclr``, ``log``.
    """

    values: np.ndarray
    transform: str
    taxa: list[str]
    samples: list[str]
    shift: float = field(default=0.0)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.transform not in ("clr", "mclr", "log"):
            raise TransformError(f"unknown transform {self.transform!r}")


def _sniff_delimiter(header_line: str) -> str:
    # tab wins if the header contains tabs, else comma
    return "\t" if "\t" in header_line else ","


def load_count_table(path, orientation: str = "samples_in_rows") -> CountTable:
    """Load a delimited count table.

    The file has one header row and one leading label column.  With
    ``orientation="samples_in_rows"`` the header holds taxa labels and the
    leading column holds sample labels; ``"taxa_in_rows"`` is the transpose.
    The returned table is always samples-in-rows.
    """
    if orientation not in ("samples_in_rows", "taxa_in_rows"):
        raise LoadError(f"unknown orientation {orientation!r}")
    with open(path, "r", newline="") as fh:
        first = fh.readline()
        if not first.strip():
            raise LoadError(f"{path}: empty file")
        delim = _sniff_delimiter(first)
        fh.seek(0)
        rows = [row for row in csv.reader(fh, delimiter=delim)]
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
                value = float(text)
            except ValueError:
                raise LoadError(
                    f"{path}: non-numeric cell {text!r} at row {i}, "
                    f"column {col_labels[j]!r}"
                ) from None
            if math.isnan(value):
                raise LoadError(
                    f"{path}: missing value at row {i}, column {col_labels[j]!r}"
                )
            if value < 0:
                raise LoadError(
                    f"{path}: negative value at row {i}, column {col_labels[j]!r}"
                )
            data[i - 1, j] = value
    if len(set(col_labels)) != len(col_labels):
        raise LoadError(f"{path}: duplicate labels in header")
    if len(set(row_labels)) != len(row_labels):
        raise LoadError(f"{path}: duplicate labels in leading column")
    if orientation == "taxa_in_rows":
        return CountTable(values=data.T.copy(), taxa=row_labels, samples=col_labels)
    return CountTable(values=data, taxa=col_labels, samples=row_labels)


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


def to_composition(table: CountTable, pseudo: float = 0.5) -> CompositionTable:
    """Close each row to proportions after adding ``pseudo`` to every cell.

    ``pseudo=0`` is only legal when the table has no zeros.
    """
    if pseudo < 0:
        raise TransformError("pseudo-count must be >= 0")
    v = table.values
    if pseudo == 0 and (v == 0).any():
        raise TransformError("pseudo=0 requires a table without zeros")
    shifted = v + pseudo
    comp = shifted / shifted.sum(axis=1, keepdims=True)
    return CompositionTable(values=comp, taxa=list(table.taxa), samples=list(table.samples))


def clr_transform(comp: CompositionTable) -> TransformedTable:
    """Centered log-ratio: ln x minus the row mean of ln x; rows sum to 0."""
    v = comp.values
    if (v <= 0).any():
        raise TransformError("clr requires strictly positive entries")
    logs = np.log(v)
    out = logs - logs.mean(axis=1, keepdims=True)
    return TransformedTable(
        values=out, transform="clr", taxa=list(comp.taxa), samples=list(comp.samples)
    )


def log_transform(table: CountTable, pseudo: float = 0.5) -> TransformedTable:
    """Plain ln(x + pseudo) without row centering."""
    if pseudo <= 0 and (table.values == 0).any():
        raise TransformError("log transform needs pseudo > 0 when zeros are present")
    out = np.log(table.values + pseudo)
    return TransformedTable(
        values=out, transform="log", taxa=list(table.taxa), samples=list(table.samples)
    )


def mclr_transform(table: CountTable, shift="auto") -> TransformedTable:
    """Modified CLR for zero-inflated counts.

    Nonzero entries of each row are replaced by ln(value) minus the mean of
    ln over that row's nonzero entries; zeros stay exactly 0.  Under
    ``shift="auto"`` a single global constant is then added to every nonzero
    entry so the minimum transformed nonzero equals 1; a numeric ``shift``
    is applied verbatim.
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
    if shift == "auto":
        offset = 1.0 - out[nonzero].min()
    else:
        offset = float(shift)
    out[nonzero] += offset
    return TransformedTable(
        values=out,
        transform="mclr",
        taxa=list(table.taxa),
        samples=list(table.samples),
        shift=offset,
    )


def degenerate_taxa(transformed: TransformedTable, tol: float = 1e-12) -> list[str]:
    """Labels of taxa with (numerically) zero variance after the transform."""
    var = transformed.values.var(axis=0)
    return [t for t, s in zip(transformed.taxa, var) if s <= tol]


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
