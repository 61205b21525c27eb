import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catsset.cli
import catsset.finmon
import catsset.nerve
import catsset.skew
from catsset.cli import main
from catsset.dyck import enumerate_dyck, is_degenerate
from catsset.errors import SchemaError, StructuralError
from catsset.finmon import FinCategory, FinMonoidalStructure, MonoidalPoset, chain_poset, poset_as_category
from catsset.library import boolean_or, zmonoid
from catsset.relations import to_relation
from catsset.skew import SkewData, check_axioms, check_naturality, check_pentagons, skew_from_strict
from catsset.sset import catalan_sset

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_dim2(capsys):
    code, out, _ = run(capsys, "enumerate", "--dim", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6 and lines[-1] == "count: 5"


def test_enumerate_nondegenerate_dim4(capsys):
    code, out, _ = run(capsys, "enumerate", "--dim", "4", "--nondegenerate")
    assert code == 0
    assert out.strip().splitlines()[-1] == "count: 9"


@pytest.mark.parametrize("form", ["dyck", "relation"])
def test_enumerate_nondegenerate_keeps_the_words_no_degeneracy_reaches(capsys, form):
    for dim in range(7):
        code, out, _ = run(capsys, "enumerate", "--dim", str(dim), "--nondegenerate", "--as", form, "--json")
        words = [w for w in enumerate_dyck(dim) if not is_degenerate(w)]
        items = words if form == "dyck" else [json.dumps(to_relation(w).sorted_pairs()) for w in words]
        assert code == 0 and json.loads(out)["items"] == sorted(items), dim


def test_enumerate_dim0(capsys):
    code, out, _ = run(capsys, "enumerate", "--dim", "0")
    assert code == 0
    assert out.strip().splitlines() == ["UD", "count: 1"]


def test_enumerate_forms(capsys):
    code, out, _ = run(capsys, "enumerate", "--dim", "2", "--as", "relation", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 5 and "[[0,1]," in "".join(doc["items"]).replace(" ", "")
    code, out, _ = run(capsys, "enumerate", "--dim", "3", "--as", "motzkin")
    assert code == 0
    assert out.strip().splitlines()[-1] == "count: 4"


def test_enumerate_cap_exceeded(capsys):
    code, _, err = run(capsys, "enumerate", "--dim", "11")
    assert code == 3
    assert "cap" in err


def test_cap_override_via_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"caps": {"dyck": 11}}))
    code, out, _ = run(capsys, "enumerate", "--dim", "11", "--config", str(config))
    assert code == 0
    assert out.strip().splitlines()[-1] == "count: 208012"


def test_word_commands(capsys):
    code, out, _ = run(capsys, "face", "UUDUDD", "--index", "1")
    assert (code, out.strip()) == (0, "UDUD")
    code, out, _ = run(capsys, "degeneracy", "UDUD", "--index", "0")
    assert (code, out.strip()) == (0, "UUDDUD")
    code, out, _ = run(capsys, "decompose", "UUDDUD", "--json")
    doc = json.loads(out)
    assert doc["core"] == "UDUD" and doc["image"] == [0, 0, 1]
    code, out, _ = run(capsys, "motzkin", "--from-dyck", "UUDUDD")
    assert (code, out.strip()) == (0, "UD")
    code, out, _ = run(capsys, "motzkin", "--to-dyck", "CC")
    assert (code, out.strip()) == (0, "UDUDUD")


def test_word_command_errors(capsys):
    code, _, err = run(capsys, "face", "UDDU", "--index", "0")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "face", "UUDD", "--index", "5")
    assert code == 2
    code, _, err = run(capsys, "motzkin", "--from-dyck", "UUDD")
    assert code == 2 and "degenerate" in err.lower()
    code, _, err = run(capsys, "motzkin", "--from-dyck", "")
    assert code == 2 and err.strip() == "error: not a Dyck word: ''"


def test_verify_binomial(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "binomial", "--max-n", "12")
    assert code == 0
    assert "pass" in out


def test_verify_coskeletal(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "coskeletal", "--max-dim", "5")
    assert code == 0
    assert "not-1-coskeletal" in out


def test_verify_coskeletal_spec_bounds(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "coskeletal", "--r", "2", "--max-dim", "6"
    )
    assert code == 0


def test_verify_false_claim_exits_one(capsys):
    # dimension-1 boundaries have two fillers, so 0-coskeletality fails
    code, out, _ = run(
        capsys, "verify", "--suite", "coskeletal", "--r", "0", "--max-dim", "4"
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_coskeletal_dimension_eight(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "coskeletal", "--max-dim", "8", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_relation_cap(capsys):
    code, _, err = run(capsys, "enumerate", "--dim", "8", "--as", "relation")
    assert code == 3
    assert "relation cap" in err


def test_verify_nerve_iso_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "nerve-iso", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert any("1 isomorphism" in c["detail"] for c in doc["checks"])


@pytest.mark.parametrize(
    "argv, first_check",
    (
        (["--suite", "identities", "--max-dim", "0"], "identities-dyck-0"),
        (["--suite", "binomial", "--max-n", "0"], "binomial-identity-upto-0"),
    ),
)
def test_verify_honours_a_zero_bound(capsys, argv, first_check):
    code, out, _ = run(capsys, "verify", *argv, "--json")
    assert code == 0
    assert json.loads(out)["checks"][0]["name"] == first_check


# nerve-iso reads level-1 edges, and not-1-coskeletal needs 2-boundaries
@pytest.mark.parametrize("suite", ("nerve-iso", "coskeletal"))
def test_verify_suite_that_cannot_run_at_zero_exits_2(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-dim", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    (
        (["--max-dim", "1", "--r", "0"], "--max-dim >= 2"),
        (["--max-dim", "1"], "--max-dim >= 2"),
        (["--max-dim", "3", "--r", "3"], "--r below --max-dim"),
        (["--max-dim", "2"], "--r below --max-dim"),
    ),
)
def test_verify_coskeletal_names_the_bound_it_cannot_run_at(capsys, argv, flag):
    code, out, err = run(capsys, "verify", "--suite", "coskeletal", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and flag in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    (
        ["--suite", "binomial", "--max-n", "-1"],
        ["--suite", "motzkin", "--max-n", "-1"],
        ["--suite", "identities", "--max-dim", "-1"],
        ["--suite", "coskeletal", "--r", "-1"],
    ),
)
def test_verify_rejects_a_negative_bound(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert "non-negative" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    (
        ["--suite", "motzkin", "--max-dim", "0"],
        ["--suite", "identities", "--max-n", "0"],
        ["--suite", "coskeletal", "--max-n", "3"],
    ),
)
def test_verify_rejects_a_bound_the_suite_does_not_read(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert "does not read" in err


def test_verify_nerve_iso_honours_max_dim(capsys, monkeypatch):
    built = []

    def recording_catalan_sset(N):
        built.append(N)
        return catalan_sset(N)

    monkeypatch.setattr(catsset.cli, "catalan_sset", recording_catalan_sset)
    code, out, _ = run(capsys, "verify", "--suite", "nerve-iso", "--max-dim", "7", "--json")
    assert code == 0 and json.loads(out)["passed"] is True
    assert built == [7]


@pytest.mark.parametrize("suite", ("identities", "coskeletal", "nerve-iso", "all"))
def test_verify_max_dim_above_the_dyck_cap_exits_3(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-dim", "11")
    assert (code, out) == (3, "")
    assert "dyck cap 10" in err


def test_verify_identities_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--max-dim", "5")
    assert code == 0


def test_verify_motzkin(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "motzkin", "--max-n", "6")
    assert code == 0


def test_classify_files(tmp_path, capsys):
    two = tmp_path / "two.json"
    two.write_text(boolean_or().to_json_text())
    code, out, _ = run(capsys, "classify", str(two))
    assert code == 0
    lines = out.strip().splitlines()
    assert "count: 2" in lines
    assert lines[-1] == "three-way agreement: true"


def test_classify_builds_no_nerve(capsys, monkeypatch):
    built = []
    real = catsset.nerve._ImplicitNerve.materialized

    def counting(self, n, max_simplices=1_000_000):
        built.append(n)
        return real(self, n, max_simplices)

    monkeypatch.setattr(catsset.nerve._ImplicitNerve, "materialized", counting)
    code, out, _ = run(capsys, "classify", str(EXAMPLES / "two-or.json"))
    assert code == 0 and "three-way agreement: true" in out
    # the search reads the nerve off the structure, and a record is its images: no nerve is built
    assert built == []


def test_classify_checks_the_strict_laws_once(capsys, monkeypatch):
    checked = []
    real = catsset.finmon.validate_strict_monoidal

    def counting(m):
        checked.append(m)
        return real(m)

    # every module of the package that holds the validator calls the counting one
    for name, module in list(sys.modules.items()):
        if name.startswith("catsset.") and hasattr(module, "validate_strict_monoidal"):
            monkeypatch.setattr(module, "validate_strict_monoidal", counting)
    code, out, _ = run(capsys, "classify", str(EXAMPLES / "two-or.json"))
    assert code == 0 and "three-way agreement: true" in out
    assert len(checked) == 1


def test_classify_shipped_examples(capsys):
    code, out, _ = run(capsys, "classify", "docs/examples/chain3-max.json")
    assert code == 0
    assert "count: 3" in out


def test_classify_runs_the_22_chain_with_max(tmp_path):
    # 253 morphisms: the nerve's level 3 alone would pass the default budget of a million simplices
    labels = [str(k) for k in range(22)]
    tensor = {(a, b): labels[max(int(a), int(b))] for a in labels for b in labels}
    chain = tmp_path / "chain22.json"
    chain.write_text(poset_as_category(MonoidalPoset(chain_poset(labels), tensor, "0")).to_json_text())
    done = subprocess.run(
        [sys.executable, "-m", "catsset.cli", "classify", str(chain), "--json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=False,
    )
    assert "Traceback" not in done.stderr
    assert done.returncode == 0
    doc = json.loads(done.stdout)
    assert len(doc["records"]) == doc["count"] == 22
    assert doc["three_way_agreement"] is True


def test_classify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "strict_monoidal", "schema_version": 1}))
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2
    assert "objects" in err


def test_classify_rejects_top_level_array(tmp_path, capsys):
    bad = tmp_path / "array.json"
    bad.write_text(json.dumps([boolean_or().to_json_dict()]))
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2
    assert "JSON object" in err


def test_skew_check_builds_the_rows_of_a_structure_once(capsys, monkeypatch):
    built = []
    real = catsset.finmon._Rows.__init__

    def counting(self, d):
        built.append(d)
        real(self, d)

    monkeypatch.setattr(catsset.finmon._Rows, "__init__", counting)
    # the loader's constructor builds the rows it checks the skew data on; naturality, the axioms
    # and the pentagons read that build, and thin data, decided by rule, reads none
    for name in ("skew-kappa-z.json", "skew-two-or.json"):
        built.clear()
        code, out, _ = run(capsys, "skew", "check", str(EXAMPLES / name), "--json")
        assert code in (0, 1) and json.loads(out)["command"] == "skew-check"
        assert len(built) == 1, name
        d = SkewData.from_json_text((EXAMPLES / name).read_text())
        assert built[1:] == [d]
        for check in (check_naturality, check_axioms, check_pentagons):
            check(d)
        assert built[1:] == [d], name


def test_skew_check_rejects_short_tensor_row(tmp_path, capsys):
    doc = skew_from_strict(boolean_or()).to_json_dict()
    doc["obj_tensor"] = [1]
    bad = tmp_path / "short-row.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "skew", "check", str(bad))
    assert code == 2
    assert "obj_tensor[0]" in err


def _wrap_cell(key):
    def edit(doc):
        doc[key][0][2] = [doc[key][0][2]]

    return edit


# edits of docs/examples/two-or.json and the message each exits 2 with
LABEL_ERRORS = {
    "objects": (lambda doc: doc.__setitem__("objects", 5), "objects must be an array"),
    "unit": (lambda doc: doc.__setitem__("unit", ["bot"]), "unit must be a string label"),
    "compose": (_wrap_cell("compose"), "compose[0][2] must be a string label"),
    "obj_tensor": (_wrap_cell("obj_tensor"), "obj_tensor[0][2] must be a string label"),
}


@pytest.mark.parametrize("case", sorted(LABEL_ERRORS))
def test_classify_rejects_non_string_labels(tmp_path, capsys, case):
    edit, message = LABEL_ERRORS[case]
    doc = json.loads((EXAMPLES / "two-or.json").read_text())
    edit(doc)
    bad = tmp_path / "bad-labels.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(bad))
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("obj", ("bot", "top"))
def test_identity_with_one_wrong_end_is_rejected(tmp_path, capsys, obj):
    # bot<=top : bot -> top has the right source for bot and the right target for top
    message = f"identity of {obj!r} is not an endomorphism of it"
    cat = boolean_or().category
    with pytest.raises(StructuralError, match=message):
        FinCategory(cat.objects, cat.morphisms, {**cat.identities, obj: "bot<=top"}, cat.composition)
    doc = json.loads((EXAMPLES / "two-or.json").read_text())
    doc["identities"][obj] = "bot<=top"
    bad = tmp_path / "one-wrong-end.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(bad))
    assert (code, out) == (2, "")
    assert message in err


def test_skew_check_rejects_non_string_labels(tmp_path, capsys):
    doc = skew_from_strict(boolean_or()).to_json_dict()
    doc["mor_tensor"][0][2] = ["bot<=bot"]
    bad = tmp_path / "bad-labels.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "skew", "check", str(bad))
    assert (code, out) == (2, "")
    assert "mor_tensor[0][2] must be a string label" in err


def _add_non_composable_entry(doc):
    doc["compose"].append(["bot<=bot", "top<=top", "bot<=bot"])


def _square_the_unit_to_z(doc):
    doc["compose"][0] = ["1", "1", "z"]
    doc["kappa"] = "1"


def _drop_a_composite(doc):
    doc["compose"].remove(["top<=top", "bot<=top", "bot<=top"])


# edits of docs/examples data whose category breaks the laws, the command given the file, and the
# first violation; classify, like skew check, names it before any strict law is read
BROKEN_CATEGORIES = {
    "non-composable": (
        ["skew", "check"],
        "skew-two-or.json",
        _add_non_composable_entry,
        "composability at ('bot<=bot', 'top<=top'): table entry for a non-composable pair (1 total)",
    ),
    "unit-squared": (["skew", "check"], "skew-kappa-z.json", _square_the_unit_to_z, "left identity at ('1',): id . 1 = z (2 total)"),
    "classify-missing-composite": (
        ["classify"],
        "two-or.json",
        _drop_a_composite,
        "composability at ('top<=top', 'bot<=top'): composable pair missing from table (2 total)",
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_CATEGORIES))
def test_skew_check_rejects_a_category_that_breaks_the_laws(tmp_path, capsys, case):
    command, example, edit, violation = BROKEN_CATEGORIES[case]
    doc = json.loads((EXAMPLES / example).read_text())
    edit(doc)
    bad = tmp_path / example
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command, str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: structure violates the laws: {violation}\n"


def test_skew_check_names_a_missing_composite(tmp_path, capsys):
    # the skew data cannot be built without the composite; it reports the category's laws, as classify does
    got = []
    for command, example in ((["skew", "check"], "skew-two-or.json"), (["classify"], "two-or.json")):
        doc = json.loads((EXAMPLES / example).read_text())
        _drop_a_composite(doc)
        bad = tmp_path / example
        bad.write_text(json.dumps(doc))
        got.append(run(capsys, *command, str(bad)))
    violation = "composability at ('top<=top', 'bot<=top'): composable pair missing from table (2 total)"
    assert got == [(2, "", f"error: structure violates the laws: {violation}\n")] * 2


def _unit_top(doc):
    doc["unit"] = "top"


def _drop_a_tensor_cell(doc):
    doc["mor_tensor"].remove(["bot<=bot", "bot<=bot", "bot<=bot"])


# edits of docs/examples data whose tensor breaks a law, the command given the file, and the whole
# line on stderr: a strict structure names the first strict-law violation and their number, skew
# data the first way its tensor fails to be a bifunctor
BROKEN_TENSORS = {
    "classify-unit": (
        ["classify"],
        "two-or.json",
        _unit_top,
        "structure violates the laws: lambda typing at ('bot',): lambda component at 'bot' is missing or ill-typed "
        "(6 total)",
    ),
    "classify-tensor-hole": (
        ["classify"],
        "two-or.json",
        _drop_a_tensor_cell,
        "structure violates the laws: tensor totality at ('bot<=bot', 'bot<=bot'): "
        "morphism tensor undefined on ('bot<=bot', 'bot<=bot') (1 total)",
    ),
    "skew-tensor-hole": (
        ["skew", "check"],
        "skew-two-or.json",
        _drop_a_tensor_cell,
        "morphism tensor undefined on ('bot<=bot', 'bot<=bot')",
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_TENSORS))
@pytest.mark.parametrize("json_flag", ([], ["--json"]))
def test_a_lawless_tensor_exits_2_with_its_line(tmp_path, capsys, case, json_flag):
    command, example, edit, message = BROKEN_TENSORS[case]
    doc = json.loads((EXAMPLES / example).read_text())
    edit(doc)
    bad = tmp_path / example
    bad.write_text(json.dumps(doc))
    assert run(capsys, *command, str(bad), *json_flag) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("table", ("obj_tensor", "mor_tensor", "alpha", "lambda", "rho"))
def test_skew_check_rejects_unknown_labels(tmp_path, capsys, table):
    # a copy of the first row keyed on a label the category does not have
    doc = json.loads((EXAMPLES / "skew-two-or.json").read_text())
    doc[table].append(["ghost", *doc[table][0][1:]])
    bad = tmp_path / "ghost.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "skew", "check", str(bad))
    assert (code, out) == (2, "")
    assert "ghost" in err and "Traceback" not in err


# every required key of the strict and skew documents, deleted from a docs example
REQUIRED_KEYS = [
    *(("two-or.json", key) for key in ("objects", "morphisms", "identities", "compose",
                                         "obj_tensor", "mor_tensor", "unit")),
    *(("skew-two-or.json", key) for key in ("alpha", "lambda", "rho")),
]


@pytest.mark.parametrize("example, key", REQUIRED_KEYS)
def test_missing_key_is_a_schema_error(tmp_path, capsys, example, key):
    skew = example.startswith("skew")
    doc = json.loads((EXAMPLES / example).read_text())
    del doc[key]
    with pytest.raises(SchemaError, match=f"missing key '{key}'"):
        (SkewData if skew else FinMonoidalStructure).from_json_dict(doc)
    bad = tmp_path / example
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(["skew", "check"] if skew else ["classify"]), str(bad))
    assert (code, out) == (2, "")
    assert f"missing key '{key}'" in err


def test_config_rejects_non_integer_cap(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"caps": {"dyck": "ten"}}))
    code, _, err = run(capsys, "enumerate", "--dim", "3", "--config", str(config))
    assert code == 2
    assert "caps.dyck" in err


# a command reads only its own config keys, each a non-negative integer
@pytest.mark.parametrize(
    "argv, doc",
    (
        (["skew", "sweep", "--carrier", "chain2"], {"bugdet": 5}),
        (["enumerate", "--dim", "2"], {"caps": {"dyk": 1}}),
        (["enumerate", "--dim", "2"], {"budget": 5}),
        (["skew", "sweep", "--carrier", "chain2"], {"caps": {"dyck": 1}}),
        (["skew", "sweep", "--carrier", "chain2"], {"budget": -1}),
    ),
)
def test_config_keys_a_command_does_not_read_are_usage_errors(tmp_path, capsys, argv, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_skew_check_pass(tmp_path, capsys):
    data = tmp_path / "skew.json"
    data.write_text(json.dumps(skew_from_strict(boolean_or()).to_json_dict()))
    code, out, _ = run(capsys, "skew", "check", str(data))
    assert code == 0
    assert "A9: pass" in out


def test_skew_check_kappa_failure(tmp_path, capsys):
    data = tmp_path / "kappa-z.json"
    data.write_text(json.dumps(skew_from_strict(zmonoid(), kappa="z").to_json_dict()))
    code, out, _ = run(capsys, "skew", "check", str(data))
    assert code == 1
    assert "A5: FAIL" in out
    assert "equivalence consistent: true" in out


def test_skew_sweep(capsys):
    code, out, _ = run(capsys, "skew", "sweep", "--carrier", "chain2")
    assert code == 0
    assert "equivalence holds for all: true" in out
    code, out, _ = run(capsys, "skew", "sweep", "--carrier", "zmonoid", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalence_holds"] and doc["candidates"] == 64


def test_skew_sweep_budget(capsys):
    code, _, err = run(capsys, "skew", "sweep", "--carrier", "chain4")
    assert code == 3


#: A size past Python's 4,300-digit limit on converting a string to an integer.
ONES = "1" * 5000


@pytest.mark.parametrize("carrier", ["chain320", "chain100000", pytest.param("chain" + ONES, id="chain-5000-ones")])
def test_skew_sweep_caps_a_chain_before_building_it(capsys, monkeypatch, carrier):
    # the order of chainN has N(N+1)/2 pairs, and its check runs over pairs of pairs
    built = []
    monkeypatch.setattr(catsset.cli, "chain_poset", built.append)
    code, out, err = run(capsys, "skew", "sweep", "--carrier", carrier)
    assert (code, out, built) == (3, "", [])
    assert "poset sweeps are capped at 3 elements" in err


def test_skew_sweep_poset_budget(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"budget": 19682}))
    code, out, err = run(capsys, "skew", "sweep", "--carrier", "chain3", "--config", str(config))
    assert (code, out) == (3, "")
    assert "19683 raw tensor tables exceed the sweep budget 19682" in err


def test_skew_unknown_carrier(capsys):
    code, _, err = run(capsys, "skew", "sweep", "--carrier", "mystery")
    assert code == 2


# a leading zero or a non-ASCII digit: int() reads both, as chain1 and chain3
@pytest.mark.parametrize("carrier", ("chain01", "chain\u0663", pytest.param("chain0" + ONES, id="chain0-5000-ones")))
def test_skew_sweep_takes_only_canonical_chain_names(capsys, carrier):
    code, out, err = run(capsys, "skew", "sweep", "--carrier", carrier)
    assert (code, out) == (2, "")
    assert f"unknown carrier {carrier!r}; choose zmonoid or chainN" in err and "Traceback" not in err


def test_skew_sweep_rejects_the_empty_chain(capsys):
    # an empty carrier has no candidates, so a sweep over it would pass vacuously
    code, out, err = run(capsys, "skew", "sweep", "--carrier", "chain0")
    assert (code, out) == (2, "")
    assert "carrier 'chain0' is empty" in err and "Traceback" not in err


# a file for sweep, a carrier for check, or neither mode's own argument
@pytest.mark.parametrize(
    "argv",
    (
        ["skew", "sweep", "docs/examples/skew-two-or.json", "--carrier", "chain2"],
        ["skew", "check", "docs/examples/skew-two-or.json", "--carrier", "chain2"],
        ["skew", "sweep"],
        ["skew", "check", "--json"],
    ),
)
def test_skew_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# only enumerate and skew sweep read a config file
@pytest.mark.parametrize(
    "argv",
    (
        ["face", "UDUD", "--index", "0", "--config", "/nonexistent.json"],
        ["classify", "docs/examples/two-or.json", "--config", "/nonexistent.json"],
        ["skew", "check", "docs/examples/skew-two-or.json", "--config", "/nonexistent.json"],
    ),
)
def test_config_where_it_is_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_outputs_are_deterministic(capsys):
    first = run(capsys, "enumerate", "--dim", "3", "--json")
    second = run(capsys, "enumerate", "--dim", "3", "--json")
    assert first == second
    first = run(capsys, "verify", "--suite", "binomial", "--json")
    second = run(capsys, "verify", "--suite", "binomial", "--json")
    assert first == second


#: Commands run in one process and each in a fresh one: word commands, a
#: sweep, an input error, argparse usage errors and help.
REPEATED_ARGV = [
    ["face", "UUDUDD", "--index", "1", "--json"],
    ["motzkin", "--from-dyck", "UUDUDD"],
    ["face", "UUDD", "--index", "5"],
    ["face", "UUDD"],
    ["skew", "sweep", "--carrier", "chain2", "--json"],
    ["--help"],
    ["skew", "nonsense"],
    ["face", "--help"],
]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_main_in_one_process_matches_fresh_processes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(SRC)}
    fresh = []
    for argv in REPEATED_ARGV:
        done = subprocess.run(
            [sys.executable, "-m", "catsset.cli", *argv], capture_output=True, text=True, env=env, check=False
        )
        fresh.append((done.returncode, done.stdout))
    for _ in range(2):
        for argv, want in zip(REPEATED_ARGV, fresh):
            code = _exit_code(argv)
            assert (code, capsys.readouterr().out) == want, argv
    assert [code for code, _ in fresh] == [0, 0, 2, 2, 0, 0, 2, 0]
