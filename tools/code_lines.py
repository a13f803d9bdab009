"""Count the code lines of the gatebounds package, module by module.

A code line is a physical line on which a token starts, leaving out
comments, blank lines and docstrings: a statement that is a string alone
counts no line, and a statement split over several lines counts each line
on which one of its tokens starts.  Run from the repository root:

    python tools/code_lines.py            # src/gatebounds
    python tools/code_lines.py FILE ...   # the given files

It prints one "count  module" line per module, largest first, then the
total.
"""

import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gatebounds"
# tokens that mark no code on their line by themselves
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source):
    """The number of code lines in Python ``source`` text."""
    statements, statement = [], []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            statement.append(token)
        elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            statements.append(statement)
            statement = []
    lines = set()
    for statement in statements:
        if len(statement) == 1 and statement[0].type == tokenize.STRING:
            continue  # a docstring
        lines.update(token.start[0] for token in statement)
    return len(lines)


def main(argv):
    paths = [Path(a) for a in argv] or sorted(PACKAGE.glob("*.py"))
    counts = sorted(((code_lines(p.read_text()), p.stem) for p in paths), reverse=True)
    for count, name in counts:
        print(f"{count:6d}  {name}")
    print(f"{sum(c for c, _ in counts):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
