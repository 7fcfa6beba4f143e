"""Fuzzed command lines: `praline.cli.run` returns an exit code, never raises.

Known programs, each with up to three random character edits, go through
`solve` with random flags or through `oracle`.  Whatever the input, run
must return 0, 1 (no solution) or 2 (a usage, parse or program error);
argparse's own usage errors leave as SystemExit(2).
"""

import random

from praline.cli import run

from conftest import CHAIN, CONFLICT, FOLD, ROADS, SIXPACK, random_program_source

RUNS = 300
SEED = 20261020

EDIT_CHARS = "aXs01.,:-()|%\\+ \n"
QUERIES = ["path(1,7)", "path(0,*)", "*", "v", "e", "n*", "none(1)"]
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


def _argv(path: str, rng: random.Random) -> list[str]:
    if rng.random() < 0.25:
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


def test_cli_exit_codes_under_fuzzed_inputs(tmp_path, capsys):
    sources = [ROADS, SIXPACK, CHAIN, CONFLICT, FOLD] + \
        [random_program_source(s) for s in range(10)]
    rng = random.Random(SEED)
    path = tmp_path / "prog.pl"
    bad = []
    for _ in range(RUNS):
        src = _edit(rng.choice(sources), rng)
        path.write_text(src)
        argv = _argv(str(path), rng)
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001  any escape is the finding
            code = f"{type(exc).__name__}: {exc}"
        capsys.readouterr()
        if code not in (0, 1, 2):
            bad.append((argv[2:], src, code))
    assert not bad, bad[:3]
