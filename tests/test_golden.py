"""Golden outputs: SHA-256 digests of stdout plus exit codes.

Each case pins the exact bytes a command prints, so a refactor that
claims byte-identical output is checked by machine.  The CLI runs with
the repository root as working directory so that the ``file`` field of
``--json`` reports is the same relative path on every checkout.

When a change is meant to alter one of these outputs, regenerate the
digest from the new output and say in the change log which case moved
and why.
"""

import hashlib
from pathlib import Path

import pytest

from catsset.cli import main
from catsset.library import structure_library
from catsset.nerve import monoidal_nerve
from catsset.sset import catalan_sset

ROOT = Path(__file__).resolve().parent.parent


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CLI_GOLDEN = {
    "classify --json docs/examples/two-or.json": (0, "a7c34b00ed27ee51284e8b3b744acb1f3d015a51a2ee13fe582b67682b59e19f"),
    "classify --json docs/examples/chain3-max.json": (0, "3a7944ccd252c15d51a0acb105aa3a19e4e54f1df058c6493a1b38b86d5c5793"),
    "classify --json docs/examples/chain3-truncated-add.json": (0, "5828a958bed70cb62edfce13e45d8b312c808cabb0cf6d5baed95c6b11a58d4a"),
    "skew check docs/examples/skew-two-or.json": (0, "ad99fa1539f862e2cdae8ef508925b632b327eec08c358a168ce6b47069fdf7a"),
    "skew check docs/examples/skew-two-or.json --json": (0, "2db593ec14f6add3efaceb453b8f96589ee620fe7ed402b2de7a0bade1013471"),
    "skew check docs/examples/skew-kappa-z.json": (1, "29e853df6d91de96e1de6587511cf86c4a0ae84156b96f2feac902fadc0b656e"),
    "skew check docs/examples/skew-kappa-z.json --json": (1, "fcc4d208c2c5df712a3c16609ff8ae5f7df2ddeeed8787d58d138ab107cebe2d"),
    "skew sweep --carrier chain2 --json": (0, "e269ab7cf624400a415ea1e494a6c1a645cf6fd76ce42a5212562fb597d75b90"),
    "skew sweep --carrier chain3 --json": (0, "80127e2db5fb5fa2843b814e3523c79d9a4d6049fb4625eda86b88e705b6438a"),
    "skew sweep --carrier zmonoid --json": (0, "a792c26daae9670c279105781dbbf1890ab9971a2150236009faa9ab12b11f4a"),
    "verify --suite all --json": (0, "cb0c3dbd0d4a22f510d15a34381b097dcc75950cf92120ad316e1d722a7cf0e1"),
}

CATALAN_GOLDEN = {
    0: "13ee0bf9bebead6b830e3db4574cfb5b8870e92b8b6bb7f9c6068893669faf0d",
    1: "02e5c2dfadd8a2f3a68f69dc5429d825cc3af56c7d492822d58b30a061f65339",
    2: "e3f8974b75ef1d1a1cd0391053a91c9457e075cedf14d15273c81a2efdb39b43",
    3: "c58f1c35e18a9debca4c8cec4c527ded578fb6ff94b163722417823b2f7c2ca4",
    4: "b3b81a340b1df08fa4d2522cd3d9de3cf22eae5d87be1456ddc6479cbeccc7ea",
    5: "cb5119ad3e1459dae92e7224d4b35e8cdd2a595bc68d582ad6db791873c24cb9",
    6: "769d365500ee059d944f20b69713a8e4ebb1720b63bbdf9d4959b0bcce6668c6",
}

NERVE_GOLDEN = {
    "two-or": "75d1b2412ddaba6a589fdabf7e5692855a66690b79751ac7a5ef7ae81d9f7e84",
    "chain3-max": "a5959d7425c7ee6fd77e0a7386e5197228fb8f869c3cedb1190a1a747e03f11c",
    "chain3-truncated-add": "2708cd5c1dc66928dcb1a4591609b1a00c863a66a61e37f873adff676293a8e5",
    "antichain2": "1ced1844e9540c311a9f9f9c5d145195391518545fbcc7ac48e5b739c79d9d21",
    "zmonoid": "f19cc2ec8fb25dbed5f95aa217982e85ef95618267b4c42946d991f25ab3271d",
}


@pytest.mark.parametrize("command", list(CLI_GOLDEN))
def test_cli_output_is_pinned(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(command.split())
    out = capsys.readouterr().out
    assert (code, sha(out)) == CLI_GOLDEN[command]


@pytest.mark.parametrize("n", list(CATALAN_GOLDEN))
def test_catalan_json_is_pinned(n):
    assert sha(catalan_sset(n).to_json_text()) == CATALAN_GOLDEN[n]


@pytest.mark.parametrize("name", list(NERVE_GOLDEN))
def test_library_nerve_json_is_pinned(name, library):
    assert sha(monoidal_nerve(library[name], 5).to_json_text()) == NERVE_GOLDEN[name]
