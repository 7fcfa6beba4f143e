"""Fuzzed command lines: `praline.cli.run` returns an exit code, never raises.

Known programs, each with up to three random character edits or with raw
bytes spliced in (invalid UTF-8, a NUL, a byte order mark), go through
`solve` with random flags or through `oracle`.  Whatever the input, run
must return 0, 1 (no solution) or 2 (a usage, parse or program error);
argparse's own usage errors leave as SystemExit(2).
"""

import random

from praline.cli import run

from conftest import (
    CHAIN,
    CONFLICT,
    FOLD,
    ROADS,
    SIXPACK,
    random_program_source,
    relational_source,
)

RUNS = 300
RELATIONAL_RUNS = 60
SEED = 20261020
BYTE_RUNS = 24
BYTE_SEED = 20261022

EDIT_CHARS = "aXs01.,:-()|%\\+ \n"
# a lone continuation byte, a truncated sequence, bytes UTF-8 never uses,
# a NUL and a byte order mark
RAW_BYTES = [b"\x80", b"\xc3", b"\xff\xfe", b"\xc0\xaf", b"\x00",
             b"\xef\xbb\xbf"]
QUERIES = ["path(1,7)", "path(0,*)", "*", "v", "e", "n*", "none(1)", "r(1,*)"]
DELTAS = ["0.01", "0.05", "0.3", "0", "-1", "nan"]


def _edit(src: str, rng: random.Random) -> str:
    """src with 0-3 random insertions, deletions or replacements."""
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(src) + 1)
        kind = rng.randrange(3)
        if kind == 0 or i == len(src):
            src = src[:i] + rng.choice(EDIT_CHARS) + src[i:]
        elif kind == 1:
            src = src[:i] + src[i + 1:]
        else:
            src = src[:i] + rng.choice(EDIT_CHARS) + src[i + 1:]
    return src


def _corrupt(src: str, rng: random.Random) -> bytes:
    """src as UTF-8 with 1-3 raw byte strings spliced in, one in four at
    the start of the file, where a byte order mark goes."""
    data = src.encode()
    for _ in range(rng.randrange(1, 4)):
        i = 0 if rng.random() < 0.25 else rng.randrange(len(data) + 1)
        data = data[:i] + rng.choice(RAW_BYTES) + data[i:]
    return data


def _argv(path: str, rng: random.Random, oracle: bool) -> list[str]:
    if oracle and rng.random() < 0.25:
        return ["oracle", path, "--samples", str(rng.randrange(0, 6)),
                "--seed", str(rng.randrange(-1, 50))]
    argv = ["solve", path, "--mode", rng.choice(["exact", "approx", "delta"])]
    if rng.random() < 0.3:
        argv += ["--delta", rng.choice(DELTAS)]
    if rng.random() < 0.3:
        argv += ["--query", rng.choice(QUERIES)]
    for flag in ("--dump-graph", "--dump-constraints", "--dump-correlations",
                 "--dump-exprs"):
        if rng.random() < 0.15:
            argv.append(flag)
    return argv


def _fuzz(sources, runs, rng, path, capsys, oracle,
          mangle=lambda src, rng: _edit(src, rng).encode()):
    """The fuzzed runs whose exit code is not 0, 1 or 2."""
    bad = []
    for _ in range(runs):
        src = mangle(rng.choice(sources), rng)
        path.write_bytes(src)
        argv = _argv(str(path), rng, oracle)
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001  any escape is the finding
            code = f"{type(exc).__name__}: {exc}"
        capsys.readouterr()
        if code not in (0, 1, 2):
            bad.append((argv[2:], src, code))
    return bad


def test_cli_exit_codes_under_fuzzed_inputs(tmp_path, capsys):
    sources = [ROADS, SIXPACK, CHAIN, CONFLICT, FOLD] + \
        [random_program_source(s) for s in range(10)]
    # the relational programs' queries bind constants, so edits reach the
    # grounder's demand analysis and guards.  They go through solve only,
    # and only those with linear recursion: the oracle enumerates every
    # world of the cone, and an edit to `r(X,Y), r(Y,Z)` can make a cross
    # product of r with itself, thousands of edges that no mode solves in
    # seconds
    relational = [src for src in map(relational_source, range(8))
                  if "r(Y,Z)" not in src][:4]
    path = tmp_path / "prog.pl"
    bad = _fuzz(sources, RUNS, random.Random(SEED), path, capsys, True) + \
        _fuzz(relational, RELATIONAL_RUNS, random.Random(SEED + 1), path,
              capsys, False)
    assert not bad, bad[:3]


def test_cli_exit_codes_under_corrupted_bytes(tmp_path, capsys):
    sources = [ROADS, SIXPACK, CONFLICT, FOLD] + \
        [random_program_source(s) for s in range(4)]
    bad = _fuzz(sources, BYTE_RUNS, random.Random(BYTE_SEED),
                tmp_path / "prog.pl", capsys, True, _corrupt)
    assert not bad, bad[:3]
