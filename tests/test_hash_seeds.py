"""CLI stdout is byte-identical across hash seeds.

One table row per case: an input graph, the CLI calls made on it, each
call's exit code and the patterns (`re.search`) its output must match.
Every call runs in a fresh interpreter under PYTHONHASHSEED=0 and =1, and
the two outputs must be the same bytes, so no set or dict iteration order
reaches stdout.
"""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import madcycle
from madcycle.cli import run_cli

SRC = str(Path(madcycle.__file__).resolve().parent.parent)


def _gen(*argv: str) -> str:
    out = io.StringIO()
    assert run_cli(["gen", *argv], out=out, err=io.StringIO()) == 0
    return out.getvalue()


def _complete_minus_matching(n: int, extra=()) -> str:
    e = [(i, j) for i in range(n) for j in range(i + 1, n) if not (i % 2 == 0 and j == i + 1)]
    return "\n".join(f"{u} {v}" for u, v in [*e, *extra]) + "\n"


CASES = {
    "bip_dense_json_trace": (
        lambda: _gen("lemma7_trace", "--param", "branch=bip_dense_yes"),
        [(["solve", "-k", "1", "--mode", "relaxed", "--json", "--trace"], 0, [])],
    ),
    # K26 minus a perfect matching plus the ears 0-26-2 and 3-27-5: at k=4
    # no single outside path is long enough, so two segments carry k'
    "case_ii_segments": (
        lambda: _complete_minus_matching(26, [(0, 26), (26, 2), (3, 27), (27, 5)]),
        [(["solve", "-k", "4", "--mode", "relaxed", "--json"], 0, ['"branch":"case_ii"'])],
    ),
    # K26 minus a perfect matching plus the ear 0-26-27-2: at k=4 the one
    # outside path 0-26-27-2 carries k' = 2, so no segment probe runs
    "case_ii_outside_path": (
        lambda: _complete_minus_matching(26, [(0, 26), (26, 27), (27, 2)]),
        [(["solve", "-k", "4", "--mode", "relaxed", "--json"], 0,
          ['"branch":"case_ii"', '"st_probes":1', '"segment_probes":0'])],
    ),
    # K400 minus a perfect matching at k=3 (in range: 3 <= 398/88 - 1):
    # threshold 401 > n, so the Hamiltonian Dirac cycle makes the core small
    # dense; no vertex lies outside it, so case (ii) answers no. The graph is
    # 398-regular, so its mad is 398 and one load flow at the peeling bound
    # proves it.
    "dense_in_range_no_and_mad": (
        lambda: _complete_minus_matching(400),
        [(["solve", "-k", "3", "--json", "--trace"], 1,
          ['"answer":"no"', '"branch":"case_ii"']),
         (["mad"], 0, [r"\A398\n"])],
    ),
    # the load flow at the peeling bound overflows here, so a second flow runs
    "mad_second_flow": (
        lambda: _gen("gnp2c", "--param", "n=30", "--param", "prob=0.2", "--seed", "1"),
        [(["mad"], 0, [])],
    ),
    # the k = 0 rotation search on a sparse_k0-sized core
    "k0_rotation_search": (
        lambda: _gen("gnp2c", "--param", "n=150", "--param", "prob=0.054", "--seed", "1"),
        [(["solve", "-k", "0", "--json"], 0, [])],
    ),
    "path_mode": (
        lambda: _gen("gnp2c", "--param", "n=60", "--param", "prob=0.1", "--seed", "3"),
        [(["solve", "--path", "-k", "0", "--json"], 0,
          ['"answer":"yes"', '"branch":"path_k0"']),
         (["solve", "--path", "-k", "2", "--mode", "relaxed", "--json"], 0,
          ['"answer":"yes"', r'"branch":"path\[find_dense\]"'])],
    ),
}


def _cli(argv: list[str], hash_seed: int) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "madcycle.cli", *argv],
        capture_output=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_is_byte_identical_across_hash_seeds(tmp_path, case):
    graph, calls = CASES[case]
    path = tmp_path / "g.el"
    path.write_text(graph())
    for argv, code, needles in calls:
        argv = [argv[0], str(path), *argv[1:]]
        first, second = (_cli(argv, seed) for seed in (0, 1))
        assert first.returncode == code, first.stderr.decode()
        assert second.returncode == code and first.stdout == second.stdout
        out = first.stdout.decode()
        for needle in needles:
            assert re.search(needle, out), (needle, out[:200])
