"""The command-line reader against argparse.

``cli.read_args`` reads well-formed lines without argparse; every other
line goes to ``cli.build_parser``'s parser.  Both are built from the
one option table, so the referee here is the argparse parser written
out by hand, one ``add_argument`` call per option and subcommand: a
wrong default or a flag given to the wrong subcommand in the table
shows as a difference from it.
"""

import argparse
import contextlib
import io
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcenter import cli

COMMANDS = ("invariants", "endo-ring", "classes", "oracle", "deformation")


def referee_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspcenter",
        description=(
            "Exact computation of the endomorphism ring of the projective "
            "envelope of a cuspidal mod-l representation of GL_n(F_q), with "
            "its supporting oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("invariants", "invariant subring, minimal polynomial, lemma checks"),
        ("endo-ring", "full center pipeline: delta vectors, gamma, certificates"),
        ("classes", "conjugacy class census by type"),
        ("oracle", "brute-force and character-table cross-checks"),
        ("deformation", "matrix deformation points and presentation checks"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--q", type=int, required=True, help="order of the base field")
        p.add_argument("--ell", type=int, help="coefficient characteristic l")
        p.add_argument("--n", type=int, help="rank; defaults to ord_l(q)")
        p.add_argument("--d", type=int, default=1, help="divisor for the unreduced case")
        p.add_argument("--out", choices=("json", "text"), default="text")
        if name == "classes":
            p.add_argument("--cache-dir", help="census cache directory (or $CUSPCENTER_CACHE)")
        if name == "oracle":
            p.add_argument(
                "--max-group-order",
                type=int,
                default=1000,
                help="ceiling for brute-force group enumeration",
            )
        p.add_argument(
            "--scale-bound",
            type=int,
            default=10**6,
            help="ceiling for field/class enumerations",
        )
    return parser


REFEREE = referee_parser()
BUILT = cli.build_parser()

# a valid value for each flag; every flag is tried on every subcommand
VALUES = {
    "--q": "4",
    "--ell": "5",
    "--n": "2",
    "--d": "3",
    "--out": "json",
    "--cache-dir": "some/dir",
    "--max-group-order": "50",
    "--scale-bound": "999",
}
TAKES = {"--cache-dir": "classes", "--max-group-order": "oracle"}


def outcome(parser: argparse.ArgumentParser, argv: list) -> tuple:
    """(the namespace as a dict, or the exit code; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def check_line(argv: list) -> bool:
    """Assert the table's parser and the reader agree with the referee on
    ``argv``; True when the reader read the line itself."""
    expected = outcome(REFEREE, argv)
    assert outcome(BUILT, argv) == expected, argv
    read = cli.read_args(argv)
    if read is None:
        return False
    assert isinstance(expected[0], dict), (argv, expected)
    assert list(vars(read).items()) == list(expected[0].items()), argv
    assert [type(v) for v in vars(read).values()] == [type(v) for v in expected[0].values()]
    return True


def well_formed_lines():
    """Every subset of each subcommand's options, in table order and
    reversed, with ``--q`` first or last."""
    for command in COMMANDS:
        flags = [f for f in VALUES if TAKES.get(f, command) == command and f != "--q"]
        for k in range(len(flags) + 1):
            for subset in itertools.combinations(flags, k):
                for order in (["--q", *subset], [*reversed(subset), "--q"]):
                    yield [command, *(token for f in order for token in (f, VALUES[f]))]


def test_the_reader_reads_every_well_formed_line_as_argparse_does():
    lines = list(well_formed_lines())
    assert len(lines) == 2 * (3 * 2**5 + 2 * 2**6)
    assert all(check_line(argv) for argv in lines)


WELL_FORMED = [
    # repeated flags: the last value wins
    "invariants --q 2 --q 3 --ell 5".split(),
    "oracle --q 4 --n 2 --max-group-order 7 --max-group-order 9".split(),
    "classes --q 4 --n 2 --out text --out json --cache-dir a --cache-dir b".split(),
    # values int() takes as argparse does, and an empty path
    "endo-ring --q +17 --ell 3".split(),
    "endo-ring --q 1_7 --ell 3".split(),
    ["endo-ring", "--q", " 17 ", "--ell", "3"],
    ["classes", "--q", "4", "--n", "2", "--cache-dir", ""],
    ["classes", "--q", "4", "--n", "2", "--cache-dir", "a dir"],
]

REFUSED_OR_FALLBACK = [
    "",
    "--help",
    "-h",
    *(f"{command} --help" for command in COMMANDS),
    "endo-ring -h",
    "classes --q 4 --n 2 --help",
    "nonsense --q 2",
    "invariants",
    "invariants --ell 3",  # no --q
    "invariants --q=2 --ell 3",
    "invariants --q 2 --ell=3",
    "endo-ring --q 2 --scale 10",
    "endo-ring --q 2 --scale_bound 10",
    "endo-ring --q 2 --max 10",
    "oracle --q 4 --n 2 --max-group 10",
    "oracle --q 4 --n 2 --max_group_order 10",
    "oracle --q 3 --n -1",
    "invariants --q -2 --ell 3",
    "invariants --q 2 --ell 3 --d -1",
    "invariants --q x --ell 3",
    "invariants --q 2.0 --ell 3",
    "invariants --q 2 --ell 3 --q x",
    "invariants --q x --q 2",
    "invariants --q 2 --out xml",
    "invariants --q 2 --out xml --out json",
    "invariants --q 2 --out JSON",
    "invariants --q 2 --ell",
    "invariants --q 2 --ell 3 extra",
    "invariants --q 2 -- --ell 3",
    "invariants 2 --q 2",
    "endo-ring --q 2 --ell 3 --cache-dir d",
    "invariants --q 2 --cache-dir d",
    "deformation --q 2 --max-group-order 10",
    "classes --q 4 --n 2 --max-group-order 10",
    "oracle --q 4 --n 2 --cache-dir d",
    "classes --q 4 --n 2 --cache-dir -d",
    "--q 2 invariants",
]


def test_lines_with_repeated_flags_read_as_argparse_does():
    assert all(check_line(argv) for argv in WELL_FORMED)


def test_help_refusals_and_lines_only_argparse_reads_fall_back():
    for line in REFUSED_OR_FALLBACK:
        argv = line.split() if line else []
        assert not check_line(argv), line


TOKENS = st.sampled_from(
    [
        *COMMANDS, *VALUES, "--q=2", "--scale", "--scale_bound", "--max", "--cache",
        "-h", "--help", "--", "-1", "-x", "0", "7", "+3", "1_0", "2.5", "x", "",
        "json", "text", "xml", "dir",
    ]
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.sampled_from(COMMANDS), TOKENS), st.lists(TOKENS, max_size=8))
def test_random_lines_agree_with_argparse(first, rest):
    check_line([first, *rest])

