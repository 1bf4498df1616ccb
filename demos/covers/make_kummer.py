"""Write the cover document for a power-map cover K(a, b) to stdout or a file.

Usage::

    python make_kummer.py A B [OUT.json]

K(a, b) is the degree a*b cover of the quadric given by (u, v) ->
(u^a, v^b), branched along the square of four lines.  The shipped
kummer_2_1.json was produced by ``python make_kummer.py 2 1 kummer_2_1.json``.
"""

import sys

from ramcov.golden import power_map_cover
from ramcov.report import dumps_document


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = int(argv[1]), int(argv[2])
    text = dumps_document(*power_map_cover(a, b))
    if len(argv) == 4:
        with open(argv[3], "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote K({a},{b}) cover of degree {a * b} to {argv[3]}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
