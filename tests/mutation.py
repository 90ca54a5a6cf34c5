"""Line mutations of a text file, shared by the reader fuzz tests."""

from __future__ import annotations

from pathlib import Path

from hypothesis import strategies as st


@st.composite
def mutated_lines(draw, base, fields, sep=" "):
    """Lines drawn from ``base`` after one to three mutations: truncate the
    file, or delete, duplicate or cut a line, or replace one of its
    whitespace-separated fields with one of ``fields`` (the fields are then
    joined with ``sep``)."""
    lines = list(draw(base))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["truncate", "delete", "duplicate", "replace", "cut"]))
        if op == "truncate":
            lines = lines[: draw(st.integers(0, len(lines)))]
            continue
        if not lines:
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "replace":
            parts = lines[i].split() or [""]
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(fields))
            lines[i] = sep.join(parts)
        else:
            lines[i] = lines[i][: draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
    return lines


def write_lines(path: Path, lines) -> None:
    """Each line and a newline, in UTF-8; a lone surrogate such as "\\udcff"
    is written as the one byte it escapes (0xff), which is not UTF-8."""
    path.write_text("".join(f"{line}\n" for line in lines), "utf-8", "surrogateescape")
