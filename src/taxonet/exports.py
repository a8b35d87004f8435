"""Graph serialization: GraphML, DOT, and a delimited edge list.

All writers emit nodes for the full roster (including isolated taxa) so a
reader recovers the exact vertex set; the edge list re-import reproduces
the adjacency bit for bit.
"""

from __future__ import annotations

import csv
from html import escape

import numpy as np

from .consensus import WeightedConsensus, edge_records
from .errors import ExportError
from .network import BinaryNetwork

EXPORT_FORMATS = ("graphml", "dot", "edgelist_tsv")


def _as_weighted_edges(obj):
    """Common view: (taxa, list of (i, j, weight, supporting)) sorted by
    weight descending then labels."""
    if isinstance(obj, WeightedConsensus):
        recs = edge_records(obj)
        index = {t: k for k, t in enumerate(obj.taxa)}
        edges = [
            (index[r.taxon_a], index[r.taxon_b], r.weight, ",".join(r.supporting_methods))
            for r in recs
        ]
        return list(obj.taxa), edges, True
    if isinstance(obj, BinaryNetwork):
        taxa = list(obj.taxa)
        pairs = sorted(
            obj.edge_set(), key=lambda ij: (min(taxa[ij[0]], taxa[ij[1]]), max(taxa[ij[0]], taxa[ij[1]]))
        )
        edges = [(i, j, 1, "") for i, j in pairs]
        return taxa, edges, False
    raise ExportError(f"cannot export object of type {type(obj).__name__}")


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8; the one writer of every run file.
    A failed write is an ``ExportError`` naming the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc


def _quoteattr(text: str) -> str:
    """``text`` escaped and quoted as an XML attribute value, the bytes that
    ``xml.sax.saxutils.quoteattr`` gives without importing it."""
    text = escape(text, quote=False)
    text = text.replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _graphml(taxa, edges, weighted: bool) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns"',
        '         xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"',
        '         xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns'
        ' http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">',
        '  <key id="w" for="edge" attr.name="weight" attr.type="int"/>',
        '  <key id="m" for="edge" attr.name="methods" attr.type="string"/>',
        '  <graph id="G" edgedefault="undirected">',
    ]
    for t in taxa:
        lines.append(f"    <node id={_quoteattr(t)}/>")
    for i, j, w, methods in edges:
        lines.append(f"    <edge source={_quoteattr(taxa[i])} target={_quoteattr(taxa[j])}>")
        if weighted:
            lines.append(f'      <data key="w">{w}</data>')
        if methods:
            lines.append(f'      <data key="m">{escape(methods, quote=False)}</data>')
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(taxa, edges, weighted: bool) -> str:
    lines = ["graph consensus {", "  node [shape=ellipse];"]
    for t in taxa:
        lines.append(f"  {_dot_quote(t)};")
    for i, j, w, _methods in edges:
        attr = f" [penwidth={float(w):.1f}]" if weighted else ""
        lines.append(f"  {_dot_quote(taxa[i])} -- {_dot_quote(taxa[j])}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _edgelist(taxa, edges) -> str:
    rows = ["taxon_a\ttaxon_b\tweight\tsupporting_methods"]
    for i, j, w, methods in edges:
        a, b = sorted((taxa[i], taxa[j]))
        rows.append(f"{a}\t{b}\t{w}\t{methods}")
    return "\n".join(rows) + "\n"


def export_graph(obj, fmt: str, path) -> None:
    """Write a network or consensus to ``path`` in the requested format."""
    if fmt not in EXPORT_FORMATS:
        raise ExportError(f"unknown export format {fmt!r}; choose from {EXPORT_FORMATS}")
    taxa, edges, weighted = _as_weighted_edges(obj)
    if fmt == "graphml":
        write_text(path, _graphml(taxa, edges, weighted))
    elif fmt == "dot":
        write_text(path, _dot(taxa, edges, weighted))
    else:
        write_text(path, _edgelist(taxa, edges))


def import_edgelist_tsv(path, taxa: list[str]) -> BinaryNetwork:
    """Rebuild a binary network from an exported edge list.

    ``taxa`` supplies the roster (the file only names connected taxa).
    """
    index = {t: k for k, t in enumerate(taxa)}
    adj = np.zeros((len(taxa), len(taxa)), dtype=np.int8)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh, delimiter="\t")
            if reader.fieldnames is None or "taxon_a" not in reader.fieldnames:
                raise ExportError(f"{path}: not an edge-list file")
            for lineno, row in enumerate(reader, start=2):
                a, b = row["taxon_a"], row["taxon_b"]
                if a not in index or b not in index:
                    missing = a if a not in index else b
                    raise ExportError(f"{path}:{lineno}: taxon {missing!r} not in roster")
                adj[index[a], index[b]] = 1
                adj[index[b], index[a]] = 1
    except OSError as exc:
        raise ExportError(f"cannot read {path}: {exc}") from exc
    return BinaryNetwork(adj=adj, taxa=list(taxa))
