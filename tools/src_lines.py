"""Count the lines of each ``src/hstl`` module, with and without prose.

    python3 tools/src_lines.py [CHECKOUT]

For every module of ``CHECKOUT/src/hstl`` (the checkout this tool sits in
by default) it prints two figures, then their totals:

* ``lines``: every line of the file;
* ``code``: the lines that hold a token of code.  Blank lines, comments
  and docstrings (a string that stands alone as a statement) do not
  count; a line that holds code and a trailing comment does.
"""

import argparse
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of lines that hold a token other than layout, a comment or a docstring."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline) if t.type != tokenize.COMMENT]
    lines: set[int] = set()
    prev = tokenize.NEWLINE  # the type of the last token that is not an NL; a statement starts after layout
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            if tok.type != tokenize.NL:
                prev = tok.type
            continue
        if tok.type == tokenize.STRING and prev in _LAYOUT:
            rest = (t.type for t in tokens[i + 1 :] if t.type not in (tokenize.NL, tokenize.STRING))
            if next(rest, tokenize.ENDMARKER) in (tokenize.NEWLINE, tokenize.ENDMARKER):
                continue  # a docstring: the whole statement is strings (implicitly joined)
        prev = tok.type
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parent.parent, type=Path)
    args = parser.parse_args()
    modules = sorted((args.checkout / "src" / "hstl").glob("*.py"))
    if not modules:
        parser.error(f"no modules under {args.checkout / 'src' / 'hstl'}")
    rows = []
    for path in modules:
        text = path.read_text(encoding="utf-8")
        rows.append((path.name, len(text.splitlines()), code_lines(text)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module'.ljust(width)}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name.ljust(width)}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
