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
import json
from pathlib import Path

import pytest

from catsset.classify import classify_maps
from catsset.cli import main
from catsset.library import boolean_or
from catsset.nerve import monoidal_nerve
from catsset.sset import TruncatedSSet, catalan_sset, coskeletal_extension, isomorphisms, simplicial_maps

ROOT = Path(__file__).resolve().parent.parent


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CLI_GOLDEN = {
    "classify --json docs/examples/two-or.json": (0, "a7c34b00ed27ee51284e8b3b744acb1f3d015a51a2ee13fe582b67682b59e19f"),
    "classify --json docs/examples/chain3-max.json": (0, "3a7944ccd252c15d51a0acb105aa3a19e4e54f1df058c6493a1b38b86d5c5793"),
    "classify --json docs/examples/chain3-truncated-add.json": (0, "5828a958bed70cb62edfce13e45d8b312c808cabb0cf6d5baed95c6b11a58d4a"),
    "skew check docs/examples/skew-two-or.json": (0, "ad99fa1539f862e2cdae8ef508925b632b327eec08c358a168ce6b47069fdf7a"),
    "skew check docs/examples/skew-two-or.json --json": (0, "2db593ec14f6add3efaceb453b8f96589ee620fe7ed402b2de7a0bade1013471"),
    "skew check --json docs/examples/skew-two-or.json": (0, "2db593ec14f6add3efaceb453b8f96589ee620fe7ed402b2de7a0bade1013471"),
    "skew check docs/examples/skew-kappa-z.json": (1, "29e853df6d91de96e1de6587511cf86c4a0ae84156b96f2feac902fadc0b656e"),
    "skew check docs/examples/skew-kappa-z.json --json": (1, "fcc4d208c2c5df712a3c16609ff8ae5f7df2ddeeed8787d58d138ab107cebe2d"),
    "skew sweep --carrier chain2 --json": (0, "e269ab7cf624400a415ea1e494a6c1a645cf6fd76ce42a5212562fb597d75b90"),
    "skew sweep --carrier chain3 --json": (0, "80127e2db5fb5fa2843b814e3523c79d9a4d6049fb4625eda86b88e705b6438a"),
    "skew sweep --carrier zmonoid --json": (0, "a792c26daae9670c279105781dbbf1890ab9971a2150236009faa9ab12b11f4a"),
    "verify --suite all --json": (0, "cb0c3dbd0d4a22f510d15a34381b097dcc75950cf92120ad316e1d722a7cf0e1"),
    "face UUDUDD --index 1 --json": (0, "cbeb0cfc87496e90cb19edfc7fb10d16399edbfb8ac22ab7c652d0bf9ff401e4"),
    "degeneracy UDUD --index 0 --json": (0, "fe712cd5e6098f5dfe986d089bc2388a8ea567bb76f2eabf36220ef22d20fa3f"),
    "verify --suite all": (0, "98dad126eeca31942fd0c0e450f89e8b89230ccca73418a2e34d4d89d9dd3f34"),
    "skew sweep --carrier chain2": (0, "7268233a7e46696130d2f68dbe7b467832c2d6e54126e6709d36a7b7682291f0"),
    "classify docs/examples/two-or.json": (0, "866d974e7366f34163ae54fd075fba6e82fb99b1f24751de954f07ff490aebb9"),
    "enumerate --dim 2 --json": (0, "74e26c74d51849054bf874cc09414ca18b0d12113f5c9954dde1950fbe589fac"),
    "decompose UUDDUD --json": (0, "0f1714245e4657ec5cd1eefebd62292fea35ea035882808a86b13c0f63dd9a56"),
    "motzkin --from-dyck UUDUDD --json": (0, "72dc6207fe5b29850d86a66fc2cb8610a0c3c36c639afb08ab86bc8d6ff2beb7"),
    "verify --suite identities --json": (0, "6df19bef7e923f41198417c005456c4b60c655e08c2aa7e1018632265d9cdd1e"),
    "verify --suite coskeletal --json": (0, "8ebc56e11080be1f8ea1d7b6955cce46b2a0ec0558e7f6f78f14ccfd4eb177d9"),
    "verify --suite nerve-iso --json": (0, "f7a5be6db942acb0853928b658425304cb18f6711bc3e5e7e1a6ff28e9303fab"),
    "verify --suite motzkin --json": (0, "28df8000496a6d9aab4041dabe0d394f0ae8dc9aa395ff9c5bccd578ad057581"),
    "verify --suite binomial --json": (0, "6bbca1e8e29488926cd081380a7ed195b48a0010f9eed6475124ea4105c8ab4c"),
}

CATALAN_GOLDEN = {
    0: "13ee0bf9bebead6b830e3db4574cfb5b8870e92b8b6bb7f9c6068893669faf0d",
    1: "02e5c2dfadd8a2f3a68f69dc5429d825cc3af56c7d492822d58b30a061f65339",
    2: "e3f8974b75ef1d1a1cd0391053a91c9457e075cedf14d15273c81a2efdb39b43",
    3: "c58f1c35e18a9debca4c8cec4c527ded578fb6ff94b163722417823b2f7c2ca4",
    4: "b3b81a340b1df08fa4d2522cd3d9de3cf22eae5d87be1456ddc6479cbeccc7ea",
    5: "cb5119ad3e1459dae92e7224d4b35e8cdd2a595bc68d582ad6db791873c24cb9",
    6: "769d365500ee059d944f20b69713a8e4ebb1720b63bbdf9d4959b0bcce6668c6",
    7: "80828e380b384846d8704045dd6142e51cb479f38b9e4b5833bdaee4f498b995",
    8: "bd160b2b1589bf325963258fff0c21b317ff6ba43976bcf3baee0f3ba1d40359",
}

#: Digests of ``monoidal_nerve(m, N)`` for N = 0..5.
NERVE_GOLDEN = {
    "two-or": (
        "b49509e21cf6a1b376d050e1dfaa3fc124b9c9f1f8d1bdb679a17fff630548d4",
        "e627ce5fc6685d62ac581ad2157e52ba40d91750da352337688c775cd1fa9f7f",
        "da6d7c3ae3e3c1f8dfa0c817476a5c2cc6b81be0d61a8245d44a924aad91b5ae",
        "0427883141e5cb52b87265c0916a63831b0adbe74fc11f7b45bce9ff03edd046",
        "0cfe599d8268f97d1155898b5b7c17493e440b4f50544bdd57f5433d4693c2a9",
        "75d1b2412ddaba6a589fdabf7e5692855a66690b79751ac7a5ef7ae81d9f7e84",
    ),
    "chain3-max": (
        "b49509e21cf6a1b376d050e1dfaa3fc124b9c9f1f8d1bdb679a17fff630548d4",
        "e1567bb1324ec1a2ba508da436a1d039301ccf22915a99988fe2430ad6add51a",
        "8b1a50b38e98bafe72d81f332217cfbf4cc8b120d81f22b82bb750ad68890aa3",
        "6c285c81609280847084fc8c2b9b6b5050225fa021801953fd675cf5261da0f6",
        "7fb6b3ac86470753334b550694547891cd4505462eb203217942e387716a634c",
        "a5959d7425c7ee6fd77e0a7386e5197228fb8f869c3cedb1190a1a747e03f11c",
    ),
    "chain3-truncated-add": (
        "b49509e21cf6a1b376d050e1dfaa3fc124b9c9f1f8d1bdb679a17fff630548d4",
        "e1567bb1324ec1a2ba508da436a1d039301ccf22915a99988fe2430ad6add51a",
        "d9412bc51bc2988ec7a4f9aec8f14f8cb793576c7610d2cd6dded46d32aadc82",
        "651ddaa268f54bf46413b09b4971efab81579ca4358934b8f94e4f0f1cad63e6",
        "f981e746bb8d4ea093fa6edcf7809fba0a790f20bb3ab25f4f03d07ec54322ec",
        "2708cd5c1dc66928dcb1a4591609b1a00c863a66a61e37f873adff676293a8e5",
    ),
    "antichain2": (
        "b49509e21cf6a1b376d050e1dfaa3fc124b9c9f1f8d1bdb679a17fff630548d4",
        "0ed694f8861c781f5b429032b09b0a5cab265c5e9198ad9ebcb4cfa06104ee25",
        "4aa71136d5fbaf40f00387f581da04f2e46c37f2ca50c8ab6092b16c0413547b",
        "090ea02e67337802a41bbdcee1629d87bfb782773ab63efc342d0f52cbad5176",
        "7e8f4695ffa157358facf15a76703ef2d24cbc05e0dfb0bab5864861fd72830d",
        "1ced1844e9540c311a9f9f9c5d145195391518545fbcc7ac48e5b739c79d9d21",
    ),
    "zmonoid": (
        "b49509e21cf6a1b376d050e1dfaa3fc124b9c9f1f8d1bdb679a17fff630548d4",
        "bde4c6735dfdd878236b910b5a438c93b3ec00f0eec0330290deaa60c9d1111a",
        "c675fdfee9fbd24ae0c4e2a7e4418244066253423e3e4686920e1bd8f5898ecf",
        "6e04f75b051110865d6308831c0c8f71b44283f09e76c4858f59e5667d1cf512",
        "2fd9525aa7ce2e4baae044cd521d9718020174abbf559c60dca8b29a1e9bbc7c",
        "f19cc2ec8fb25dbed5f95aa217982e85ef95618267b4c42946d991f25ab3271d",
    ),
}

EXTENSION_GOLDEN = {
    "catalan2-to-6": "626b485234cadc8647f7339c40e6e42c377379899c279c74bf9945f05d3ec6a9",
    "point-to-5": "e77dc08f81d984b2dc1b41869e6d5a39c80108c28584df03829ead3f28b72382",
}

EXTENSIONS = {
    "catalan2-to-6": lambda: coskeletal_extension(catalan_sset(2), 6),
    "point-to-5": lambda: coskeletal_extension(TruncatedSSet([["pt"]], [[]], [[]]), 5),
}

#: Digests of map lists in the order the search returns them: the
#: components of each map, and for a classification record also its
#: monoid and eta'.
MAP_GOLDEN = {
    "maps:two-or": "7fa0bcbd25cbbedf621a0d264aeb9ec511e6f791c043f79cd086a246c20fca3e",
    "maps:chain3-max": "9f08c720ab111418a1a8696767bae19d489ebe69edb59a92f01f5591b713a096",
    "maps:chain3-truncated-add": "8f74c916364ce63490f94143e6ea637732ec9d5b40bf1de487837ab58bd6c11d",
    "maps:antichain2": "09ea8941fc37a4ccde882abea4f84e607edc157c3a903da1cbadb7931028d3f8",
    "maps:zmonoid": "328ecdc3f5f74f0a3ca6af09d4a9652e2110a218bb7bba54f97e91725b95d62b",
    "records:two-or": "143ed5f454a71f65905d4933d4ba90ef473a799d0f479b72c3013b05973172cc",
    "records:chain3-max": "bae429a650fa32295d2c36eac18f5f25b506f11aa6022d0c3a7a5497a2d7b2c7",
    "records:chain3-truncated-add": "3e8bc23258fc9cde80a1928b086445d6be69dc64d6801a569e82b0a8e0ce0738",
    "records:antichain2": "2012b70957c4242b969e0438cc3efc4a23cba8aa81acb2db13b4a4e357f3c0ff",
    "records:zmonoid": "b9e809fd692dcaa021f5e609ef64d8d58faaf1fdc63c0917a608dd14235e3243",
    "isos:1": "cbc940ba7777b668084d26a3971d2488081b71c72b604c1e8572263c66772334",
    "isos:2": "a48b85938b7bbcb6d73d0d4d0f650134b372f1af928152d7c5c2fe3189e14e0c",
    "isos:3": "59506e94363d75a5d9654a18f5676da21fea2cd538a1edc517393db7d6a7da4c",
    "isos:4": "b1b3306aa5489ee15acc999360f99e7b988c8b8920bc208c3aba7b752fa6d8a6",
    "isos:5": "35ff0645ea6b6b48c1b1ab87afcd8b8a42fa6b503a69f53b6c09b202c7af90e7",
    "isos:6": "9a308f733bb85053a65179ade8d1bda44c8de8f81ee0c86f331d4514990fc61d",
    "isos:7": "4400b46306a0b6965ecda6fadf643ba63cea69b471acb059577400bf4d36c870",
    "unequal:5-4": "7fa0bcbd25cbbedf621a0d264aeb9ec511e6f791c043f79cd086a246c20fca3e",
    "unequal:4-5": "7fa0bcbd25cbbedf621a0d264aeb9ec511e6f791c043f79cd086a246c20fca3e",
}


def map_list_text(case: str, library) -> str:
    kind, _, arg = case.partition(":")
    if kind == "maps":
        maps = simplicial_maps(catalan_sset(4), monoidal_nerve(library[arg], 4), 3)
    elif kind == "records":
        return json.dumps(
            [
                [r.map.components, [r.monoid.carrier, r.monoid.mu, r.monoid.eta], r.eta_prime]
                for r in classify_maps(library[arg])
            ]
        )
    elif kind == "isos":
        n = int(arg)
        maps = isomorphisms(catalan_sset(n), monoidal_nerve(boolean_or(), n))
    else:
        s, t = (int(x) for x in arg.split("-"))
        maps = simplicial_maps(catalan_sset(s), monoidal_nerve(boolean_or(), t), 3)
    return json.dumps([f.components for f in maps])


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
    got = tuple(sha(monoidal_nerve(library[name], N).to_json_text()) for N in range(6))
    assert got == NERVE_GOLDEN[name]


@pytest.mark.parametrize("case", list(EXTENSION_GOLDEN))
def test_coskeletal_extension_json_is_pinned(case):
    assert sha(EXTENSIONS[case]().to_json_text()) == EXTENSION_GOLDEN[case]


@pytest.mark.parametrize("case", list(MAP_GOLDEN))
def test_map_lists_are_pinned(case, library):
    assert sha(map_list_text(case, library)) == MAP_GOLDEN[case]
