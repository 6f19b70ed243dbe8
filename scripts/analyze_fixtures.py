#!/usr/bin/env python3
"""Print a full analysis report for every builtin fixture.

Handy for eyeballing what the engines and the oracle say about the example
corpus without writing any graph files.  Each report is the text of
`welldom analyze`, then the fringe tables and every check that did not pass:

    python3 scripts/analyze_fixtures.py
    python3 scripts/analyze_fixtures.py --only paw --only cycle7
"""

import argparse

from welldom.analysis import analyze
from welldom.cli import report_lines
from welldom.fixtures import builtin_fixtures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", default=None,
                        help="fixture name, repeatable; default is all of them")
    args = parser.parse_args()

    fixtures = builtin_fixtures()
    if args.only:
        wanted = set(args.only)
        unknown = wanted - {f.name for f in fixtures}
        if unknown:
            parser.error(f"unknown fixtures: {sorted(unknown)}")
        fixtures = [f for f in fixtures if f.name in wanted]

    for fixture in fixtures:
        report = analyze(fixture.graph)
        print(f"== {fixture.name} ".ljust(60, "="))
        print("\n".join(report_lines(report)))
        s = report.structure
        print(f"fringe {sorted(s.fringe)}, anchored {sorted(s.anchored_fringe)}, "
              f"zero-forced {sorted(s.zero_forced_fringe)}")
        for check in report.checks:
            if check.status != "pass":
                print(f"  {check.status.upper()} {check.name}: {check.detail}")
        print()


if __name__ == "__main__":
    main()
