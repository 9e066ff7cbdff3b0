"""Shared helpers of the pinned files (``figures.py``, ``drills.py``):
a results table on stdout, and the cells a recomputation moved."""

from __future__ import annotations


def print_table(title: str, header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(str(row[i])) for row in [header] + rows)
              for i in range(len(header))]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))


def moved_cells(now: dict, pinned: dict) -> list[str]:
    """``path: pinned …, now …`` for every leaf that differs between
    two JSON trees (a list is one leaf)."""
    def leaves(tree, path=""):
        for key, value in tree.items():
            yield from (leaves(value, f"{path}{key}/")
                        if isinstance(value, dict) else [(path + key, value)])

    now, pinned = dict(leaves(now)), dict(leaves(pinned))
    return [f"{cell}: pinned {pinned.get(cell)!r}, now {now.get(cell)!r}"
            for cell in sorted(now.keys() | pinned.keys())
            if now.get(cell) != pinned.get(cell)]
