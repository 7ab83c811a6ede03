"""CLI output bytes are pinned.

Each case runs ``qg`` in-process on a generated game file and hashes its
exit code, stdout, stderr and (for ``--trace``) the trace file, with the
wall-clock field ``wall_ms`` masked.  The digests were recorded from the
solver before the derived-game constructions moved onto edge arrays, so
any change to values, counts or formatting shows up here.
"""

import contextlib
import hashlib
import io
import re

import pytest

from quantgames import cli

GAMES = {
    "fig1a": ["fig1a"],
    "fig2a-W3": ["fig2a", "--W", "3"],
    "fig2a-W3-tp": ["fig2a", "--W", "3", "--objective", "tp"],
    "fig2b-W3": ["fig2b", "--W", "3"],
    "lsp_fig5": ["lsp_fig5"],
    "layered-n3-W5-tp": ["layered", "--W", "5", "--n", "3", "--objective", "tp"],
    "layered-n3-W5-mcr": ["layered", "--W", "5", "--n", "3", "--objective", "mcr"],
}
MCR_GAMES = ("fig2a-W3", "lsp_fig5", "layered-n3-W5-mcr")
ACCEL = ("none", "scc", "scc+paths")


def _cases():
    cases = {}
    for game in GAMES:
        for accel in ACCEL:
            for flag in ((), ("--json",), ("--stats",)):
                label = "-".join(("solve", game, accel) + tuple(f.strip("-") for f in flag))
                cases[label] = ["solve", game, "--accel", accel, *flag]
        cases[f"strategy-{game}"] = ["strategy", game, "--player", "both"]
    for game in MCR_GAMES:
        cases[f"trace-{game}"] = ["solve", game, "--trace", "TRACE"]
    for accel in ACCEL:
        cases[f"bench-{accel}"] = [
            "bench", "--family", "layered", "--W-list", "5", "--n-list", "2,3", "--accel", accel,
        ]
    return cases


CASES = _cases()

_WALL = re.compile(rb'(wall_ms=|"wall_ms": )\d+')
_CSV_WALL = re.compile(rb"^((?:[^,\n]*,){6})\d+,", re.M)


def capture(argv):
    """Exit code, stdout and stderr bytes of ``qg argv``, run in-process."""
    out, err = io.BytesIO(), io.BytesIO()
    with contextlib.ExitStack() as stack:
        for target, buf in ((contextlib.redirect_stdout, out), (contextlib.redirect_stderr, err)):
            text = io.TextIOWrapper(buf, encoding="utf-8", newline="", write_through=True)
            stack.enter_context(target(text))
        code = cli.run(argv)
        return code, out.getvalue(), err.getvalue()


def digest(case, games, tmp_path):
    """The sha256 of one case's output with ``wall_ms`` masked."""
    trace = tmp_path / "trace.tsv"
    argv = [games[a] if a in games else str(trace) if a == "TRACE" else a for a in CASES[case]]
    code, out, err = capture(argv)
    masked = _WALL.sub(rb"\g<1>0", out)
    if argv[0] == "bench":
        masked = _CSV_WALL.sub(rb"\g<1>0,", masked)
    blob = b"\0".join((str(code).encode(), masked, err, trace.read_bytes() if trace.exists() else b""))
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.fixture(scope="module")
def games(tmp_path_factory):
    root = tmp_path_factory.mktemp("games")
    paths = {}
    for game, spec in GAMES.items():
        paths[game] = str(root / f"{game}.qg")
        assert cli.run(["gen", *spec, "-o", paths[game]]) == 0
    return paths


EXPECTED = {
    "bench-none": "de1ef87b984e36c7",
    "bench-scc": "ea371fd0c894abc3",
    "bench-scc+paths": "93b849b7cc07ed09",
    "solve-fig1a-none": "473c416cbcf60a28",
    "solve-fig1a-none-json": "6eb75908c4e99638",
    "solve-fig1a-none-stats": "0c22a621ea244c16",
    "solve-fig1a-scc": "473c416cbcf60a28",
    "solve-fig1a-scc+paths": "473c416cbcf60a28",
    "solve-fig1a-scc+paths-json": "1643adbb298d4785",
    "solve-fig1a-scc+paths-stats": "564a6637f50a4234",
    "solve-fig1a-scc-json": "1643adbb298d4785",
    "solve-fig1a-scc-stats": "564a6637f50a4234",
    "solve-fig2a-W3-none": "4540137587ec8927",
    "solve-fig2a-W3-none-json": "267be17af52e3b30",
    "solve-fig2a-W3-none-stats": "b874c79c9a7a83e5",
    "solve-fig2a-W3-scc": "4540137587ec8927",
    "solve-fig2a-W3-scc+paths": "4540137587ec8927",
    "solve-fig2a-W3-scc+paths-json": "4bc74fc93c86955d",
    "solve-fig2a-W3-scc+paths-stats": "e18816d07401f201",
    "solve-fig2a-W3-scc-json": "267be17af52e3b30",
    "solve-fig2a-W3-scc-stats": "b874c79c9a7a83e5",
    "solve-fig2a-W3-tp-none": "4540137587ec8927",
    "solve-fig2a-W3-tp-none-json": "61803028f5adbed4",
    "solve-fig2a-W3-tp-none-stats": "6b406f503340d1bd",
    "solve-fig2a-W3-tp-scc": "4540137587ec8927",
    "solve-fig2a-W3-tp-scc+paths": "4540137587ec8927",
    "solve-fig2a-W3-tp-scc+paths-json": "3bb76013e1cedfe4",
    "solve-fig2a-W3-tp-scc+paths-stats": "18f1aae6b914a810",
    "solve-fig2a-W3-tp-scc-json": "003372fb630af9cc",
    "solve-fig2a-W3-tp-scc-stats": "22ed2b384ac8e9ad",
    "solve-fig2b-W3-none": "7149ed495a1cd4a4",
    "solve-fig2b-W3-none-json": "4e58a0ca89152670",
    "solve-fig2b-W3-none-stats": "39cba637c34c7bf1",
    "solve-fig2b-W3-scc": "7149ed495a1cd4a4",
    "solve-fig2b-W3-scc+paths": "7149ed495a1cd4a4",
    "solve-fig2b-W3-scc+paths-json": "b09a9649bdeede1a",
    "solve-fig2b-W3-scc+paths-stats": "48d0946ffbd5b2b1",
    "solve-fig2b-W3-scc-json": "b09a9649bdeede1a",
    "solve-fig2b-W3-scc-stats": "48d0946ffbd5b2b1",
    "solve-layered-n3-W5-mcr-none": "389c7cea8867e1e0",
    "solve-layered-n3-W5-mcr-none-json": "bfa01058972fa6b1",
    "solve-layered-n3-W5-mcr-none-stats": "5fad668b83be0910",
    "solve-layered-n3-W5-mcr-scc": "389c7cea8867e1e0",
    "solve-layered-n3-W5-mcr-scc+paths": "389c7cea8867e1e0",
    "solve-layered-n3-W5-mcr-scc+paths-json": "8089374eddf2200b",
    "solve-layered-n3-W5-mcr-scc+paths-stats": "2c9715c415d91643",
    "solve-layered-n3-W5-mcr-scc-json": "4a8ba996bfe2ccb9",
    "solve-layered-n3-W5-mcr-scc-stats": "d8dce772a132d795",
    "solve-layered-n3-W5-tp-none": "389c7cea8867e1e0",
    "solve-layered-n3-W5-tp-none-json": "8b17d0494c541c86",
    "solve-layered-n3-W5-tp-none-stats": "9e030d4e5030197e",
    "solve-layered-n3-W5-tp-scc": "389c7cea8867e1e0",
    "solve-layered-n3-W5-tp-scc+paths": "389c7cea8867e1e0",
    "solve-layered-n3-W5-tp-scc+paths-json": "2749a7f3b28c4fbf",
    "solve-layered-n3-W5-tp-scc+paths-stats": "9d0217e59223f892",
    "solve-layered-n3-W5-tp-scc-json": "aefd8fd58084d19a",
    "solve-layered-n3-W5-tp-scc-stats": "eca1610477eaf169",
    "solve-lsp_fig5-none": "136fc9831bc5809f",
    "solve-lsp_fig5-none-json": "a9eb86dbbc6f9d18",
    "solve-lsp_fig5-none-stats": "dc9be8e271a79e68",
    "solve-lsp_fig5-scc": "136fc9831bc5809f",
    "solve-lsp_fig5-scc+paths": "136fc9831bc5809f",
    "solve-lsp_fig5-scc+paths-json": "0f42d82f0a97bf32",
    "solve-lsp_fig5-scc+paths-stats": "652720fcc4282b74",
    "solve-lsp_fig5-scc-json": "0f42d82f0a97bf32",
    "solve-lsp_fig5-scc-stats": "652720fcc4282b74",
    "strategy-fig1a": "6312faded031d720",
    "strategy-fig2a-W3": "7e7fb2f660d0fd08",
    "strategy-fig2a-W3-tp": "5d907470d360f988",
    "strategy-fig2b-W3": "1681f28556132561",
    "strategy-layered-n3-W5-mcr": "81dccb49179da923",
    "strategy-layered-n3-W5-tp": "8bad09ced3da5755",
    "strategy-lsp_fig5": "c5c050d0380ccb07",
    "trace-fig2a-W3": "288087fe64774761",
    "trace-layered-n3-W5-mcr": "a46d17c6edfbe5a0",
    "trace-lsp_fig5": "6393c4d13796218a",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes_unchanged(case, games, tmp_path):
    assert digest(case, games, tmp_path) == EXPECTED[case]
