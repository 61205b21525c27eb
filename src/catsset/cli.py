"""Command-line front end: enumeration, word operations, verification
suites, classification and skew checking.

All outputs are deterministic: listings are sorted and the JSON form has
a fixed key order with no timestamps.  Exit status: 0 = all checks pass,
1 = a verified-false mathematical check, 2 = input or schema error,
3 = budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import lru_cache
from typing import Sequence

from . import dyck, motzkin
from .classify import _classification
from .errors import BudgetExceededError, CatssetError
from .finmon import SCHEMA_VERSION, FinCategory, FinMonoidalStructure, Poset, chain_poset
from .library import boolean_or, zmonoid_category
from .nerve import monoidal_nerve
from .relations import to_relation
from .skew import (
    SkewData, _poset_raw_tables, check_axioms, check_naturality, check_pentagons, equivalence_consistent, sweep_equivalence
)
from .sset import (
    catalan_sset,
    check_simplicial_identities,
    is_r_coskeletal_up_to,
    isomorphisms,
)

DEFAULT_CAPS = {"dyck": 10, "relation": 7, "motzkin": 12}
DEFAULT_BUDGET = 1_000_000

Check = tuple[str, bool, str]


def _load_config(path: str | None, defaults: dict) -> dict:
    """``defaults`` with the overrides of the JSON config file at ``path``.

    The file is an object whose keys, and the keys of a nested object,
    are among those of ``defaults``: a command reads no other key.
    Every value is a non-negative integer.
    """
    config = {key: dict(v) if isinstance(v, dict) else v for key, v in defaults.items()}
    if path is None:
        return config
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    for key, value in doc.items():
        if key not in config:
            raise ValueError(f"config key {key!r} is not read by this command")
        if not isinstance(config[key], dict):
            config[key] = _config_number(key, value)
            continue
        if not isinstance(value, dict):
            raise ValueError(f"config key {key!r} must be an object")
        for name, number in value.items():
            if name not in config[key]:
                raise ValueError(f"config key '{key}.{name}' is not read by this command")
            config[key][name] = _config_number(f"{key}.{name}", number)
    return config


def _config_number(key: str, value: object) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"config value {key!r} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"config value {key!r} must be non-negative, got {value}")
    return value


def _emit(args: argparse.Namespace, command: str, fields: dict, lines: Sequence[str]) -> None:
    """Print the report: ``fields`` under the schema header as JSON, or ``lines``."""
    if args.json:
        print(json.dumps({"schema_version": SCHEMA_VERSION, "command": command, **fields}, indent=2))
    else:
        for line in lines:
            print(line)


# -- enumerate and word commands ------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    cap = _load_config(args.config, {"caps": DEFAULT_CAPS})["caps"][args.form]
    if args.dim > cap:
        raise BudgetExceededError(
            f"dimension {args.dim} exceeds the {args.form} cap {cap}"
        )
    if args.form == "motzkin":
        items = motzkin.enumerate_motzkin(args.dim)
    else:
        words = (dyck.nondegenerate_dyck if args.nondegenerate else dyck.enumerate_dyck)(args.dim)
        if args.form == "dyck":
            items = words
        else:
            items = [json.dumps(to_relation(w).sorted_pairs()) for w in words]
    items = sorted(items)
    fields = {
        "dim": args.dim,
        "form": args.form,
        "nondegenerate": bool(args.nondegenerate),
        "items": items,
        "count": len(items),
    }
    _emit(args, "enumerate", fields, [*items, f"count: {len(items)}"])
    return 0


def cmd_word_map(args: argparse.Namespace) -> int:
    apply = dyck.face if args.command == "face" else dyck.degeneracy
    result = apply(args.word, args.index)
    fields = {
        "word": args.word,
        "index": args.index,
        "result": result,
    }
    _emit(args, args.command, fields, [result])
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    phi, core = dyck.ez_decompose(args.word)
    fields = {
        "word": args.word,
        "core": core,
        "source_dim": phi.source_dim,
        "target_dim": phi.target_dim,
        "image": list(phi.image),
    }
    lines = [
        f"core: {core}",
        f"surjection: {list(phi.image)} ([{phi.source_dim}] -> [{phi.target_dim}])",
    ]
    _emit(args, "decompose", fields, lines)
    return 0


def cmd_motzkin(args: argparse.Namespace) -> int:
    if args.from_dyck is not None:
        result = motzkin.dyck_to_motzkin(args.from_dyck)
        source = args.from_dyck
        direction = "from-dyck"
    else:
        result = motzkin.motzkin_to_dyck(args.to_dyck)
        source = args.to_dyck
        direction = "to-dyck"
    fields = {
        "direction": direction,
        "word": source,
        "result": result,
    }
    _emit(args, "motzkin", fields, [result if result else "(empty word)"])
    return 0


# -- verification suites ----------------------------------------------------


def _suite_identities(max_dim: int) -> list[Check]:
    checks: list[Check] = []
    S = catalan_sset(max_dim)
    bad = check_simplicial_identities(S)
    checks.append(
        (
            f"identities-dyck-{max_dim}",
            not bad,
            f"{len(bad)} violation(s) on the Dyck presentation truncated at {max_dim}",
        )
    )
    nerve_dim = min(max_dim, 5)
    T = monoidal_nerve(boolean_or(), nerve_dim)
    bad = check_simplicial_identities(T)
    checks.append(
        (
            f"identities-nerve-two-{nerve_dim}",
            not bad,
            f"{len(bad)} violation(s) on the Boolean nerve truncated at {nerve_dim}",
        )
    )
    return checks


def _suite_coskeletal(r: int, max_dim: int) -> list[Check]:
    if max_dim < 2:
        raise ValueError("the coskeletal suite checks 2-boundaries, so it needs --max-dim >= 2")
    if r >= max_dim:
        raise ValueError(f"the coskeletal suite needs --r below --max-dim, got {r} and {max_dim}")
    checks: list[Check] = []
    S = catalan_sset(max_dim)
    ok = is_r_coskeletal_up_to(S, r, max_dim)
    checks.append(
        (
            f"coskeletal-{r}-upto-{max_dim}",
            ok,
            f"unique fillers in dimensions {r + 1}..{max_dim}",
        )
    )
    not_one = not is_r_coskeletal_up_to(S, 1, min(4, max_dim))
    checks.append(
        (
            "not-1-coskeletal",
            not_one,
            "some 2-boundary has no filler, as expected",
        )
    )
    return checks


def _suite_nerve_iso(max_dim: int) -> list[Check]:
    if max_dim < 1:
        raise ValueError("the nerve-iso suite checks edges, so it needs --max-dim >= 1")
    S = catalan_sset(max_dim)
    T = monoidal_nerve(boolean_or(), max_dim)
    isos = isomorphisms(S, T)
    checks: list[Check] = [
        (
            "nerve-iso-count",
            len(isos) == 1,
            f"{len(isos)} isomorphism(s) found",
        )
    ]
    if len(isos) == 1:
        iso = isos[0]
        ok = iso(1, dyck.FREE_EDGE) == "top" and iso(1, dyck.UNIT_EDGE) == "bot"
        checks.append(
            ("nerve-iso-edges", ok, "free edge goes to top, degenerate edge to bot")
        )
    return checks


def _suite_motzkin(max_n: int) -> list[Check]:
    checks: list[Check] = []
    counts_ok = all(
        len(dyck.nondegenerate_dyck(n)) == motzkin.motzkin_number(n)
        for n in range(min(max_n, 6) + 1)
    )
    checks.append(
        (
            "motzkin-counts",
            counts_ok,
            f"non-degenerate counts match up to dimension {min(max_n, 6)}",
        )
    )
    roundtrip_ok = True
    for n in range(min(max_n, 7) + 1):
        for w in dyck.nondegenerate_dyck(n):
            if motzkin.motzkin_to_dyck(motzkin.dyck_to_motzkin(w)) != w:
                roundtrip_ok = False
        for word in motzkin.enumerate_motzkin(n):
            if motzkin.dyck_to_motzkin(motzkin.motzkin_to_dyck(word)) != word:
                roundtrip_ok = False
    checks.append(
        (
            "motzkin-roundtrip",
            roundtrip_ok,
            f"bijection round-trips up to dimension {min(max_n, 7)}",
        )
    )
    return checks


def _suite_binomial(max_n: int) -> list[Check]:
    ok = all(motzkin.verify_binomial_identity(n) for n in range(max_n + 1))
    return [
        (
            f"binomial-identity-upto-{max_n}",
            ok,
            "Catalan numbers match the binomial Motzkin sums exactly",
        )
    ]


#: Each verify suite: its function and the bounds it reads, each a keyword
#: of the function, with their defaults.  ``all`` runs them in this order.
_SUITES = {
    "identities": (_suite_identities, {"max_dim": 8}),
    "coskeletal": (_suite_coskeletal, {"r": 2, "max_dim": 6}),
    "nerve-iso": (_suite_nerve_iso, {"max_dim": 4}),
    "motzkin": (_suite_motzkin, {"max_n": 7}),
    "binomial": (_suite_binomial, {"max_n": 12}),
}

#: Every bound and its flag, in the order verify checks them.
_FLAGS = {
    bound: "--" + bound.replace("_", "-")
    for bound in sorted({bound for _, defaults in _SUITES.values() for bound in defaults})
}


def cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite
    suites = list(_SUITES.values()) if suite == "all" else [_SUITES[suite]]
    given = {flag: getattr(args, flag) for flag in _FLAGS if getattr(args, flag) is not None}
    for flag, value in given.items():
        option = _FLAGS[flag]
        if not any(flag in defaults for _, defaults in suites):
            raise ValueError(f"the {suite} suite does not read {option}")
        if value < 0:
            raise ValueError(f"{option} must be non-negative, got {value}")
    cap = DEFAULT_CAPS["dyck"]
    if args.max_dim is not None and args.max_dim > cap:
        raise BudgetExceededError(f"--max-dim {args.max_dim} exceeds the dyck cap {cap}")
    checks: list[Check] = []
    for run, defaults in suites:
        checks.extend(run(**{bound: given.get(bound, default) for bound, default in defaults.items()}))
    passed = all(ok for _, ok, _ in checks)
    fields = {
        "suite": suite,
        "checks": [
            {"name": name, "passed": ok, "detail": detail} for name, ok, detail in checks
        ],
        "passed": passed,
    }
    lines = [
        f"{'ok  ' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in checks
    ]
    lines.append(f"suite {suite}: {'pass' if passed else 'FAIL'}")
    _emit(args, "verify", fields, lines)
    return 0 if passed else 1


# -- classification -----------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        text = handle.read()
    m = FinMonoidalStructure.from_json_text(text)
    # the loader checked the category's laws and the strict laws, so the classification checks nothing again
    records, verdict = _classification(m)
    triples = sorted(r.triple() for r in records)
    fields = {
        "file": args.file,
        "records": [
            {"carrier": a, "mu": mu, "eta_prime": etap} for a, mu, etap in triples
        ],
        "count": len(triples),
        "three_way_agreement": verdict,
    }
    lines = [
        f"carrier={a} mu={mu} eta_prime={etap}" for a, mu, etap in triples
    ]
    lines.append(f"count: {len(triples)}")
    lines.append(f"three-way agreement: {str(verdict).lower()}")
    _emit(args, "classify", fields, lines)
    return 0 if verdict else 1


# -- skew checking -------------------------------------------------------------


def _carrier(name: str) -> Poset | FinCategory:
    """The zmonoid category, or for ``chainN`` with N >= 1 the chain poset on 0 .. N-1.

    N is written in ASCII digits without a leading zero, so each carrier has one name.
    """
    if name == "zmonoid":
        return zmonoid_category()
    size = name.removeprefix("chain")
    if name.startswith("chain") and size.isascii() and size.isdigit() and (size[0] != "0" or size == "0"):
        n = int(size[:2])  # ten or more past the cap: a long digit string is never converted whole
        if n == 0:
            raise ValueError(f"carrier {name!r} is empty, so no object can be the unit")
        _poset_raw_tables(n)  # the sweep's cap, checked before the order is built
        return chain_poset([str(k) for k in range(n)])
    raise ValueError(f"unknown carrier {name!r}; choose zmonoid or chainN")


#: The text label of each ``SweepSummary`` field, in field order.
_SWEEP_LABELS = (
    "candidates",
    "natural candidates",
    "equivalence holds for all",
    "A5 forces identity kappa",
    "A8/A9 pass with identity kappa",
    "skew structures (identity kappa)",
)


def cmd_skew(args: argparse.Namespace) -> int:
    if args.mode == "check":
        with open(args.file, "r", encoding="utf-8") as handle:
            d = SkewData.from_json_text(handle.read())
        naturality = check_naturality(d)
        axioms, pentagons = check_axioms(d), check_pentagons(d)
        equivalent = equivalence_consistent(axioms, pentagons, d.kappa == d.category.id_of(d.unit))
        ok = not naturality and axioms.all_hold and pentagons.all_hold
        fields = {
            "file": args.file,
            "naturality_violations": [str(v) for v in naturality],
            **{
                key: [
                    {"name": r.name, "passed": r.holds, "witness": list(r.witness) if r.witness else None}
                    for r in report.results
                ]
                for key, report in (("axioms", axioms), ("pentagons", pentagons))
            },
            "equivalence_consistent": equivalent,
            "passed": ok,
        }
        lines = [f"naturality: {'pass' if not naturality else 'FAIL'}"]
        lines.extend(str(v) for v in naturality)
        lines.extend(str(r) for r in axioms.results)
        lines.extend(str(r) for r in pentagons.results)
        lines.append(f"pentagon/axiom equivalence consistent: {str(equivalent).lower()}")
        _emit(args, "skew-check", fields, lines)
        return 0 if ok else 1
    budget = _load_config(args.config, {"budget": DEFAULT_BUDGET})["budget"]
    summary = sweep_equivalence(_carrier(args.carrier), budget)
    fields = dataclasses.asdict(summary)
    lines = [f"{label}: {str(value).lower()}" for label, value in zip(_SWEEP_LABELS, fields.values())]
    _emit(args, "skew-sweep", {"carrier": args.carrier, **fields}, lines)
    ok = (
        summary.equivalence_holds
        and summary.a5_forces_identity_kappa
        and summary.a8_a9_pass_with_identity_kappa
    )
    return 0 if ok else 1


# -- parser ---------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it holds no state between parses."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")

    parser = argparse.ArgumentParser(
        prog="catsset",
        description="Catalan simplicial set toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common], help="list simplices of a dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--config", help='JSON file overriding the dimension caps: {"caps": {"dyck": N, ...}}')
    p.add_argument("--nondegenerate", action="store_true")
    p.add_argument(
        "--as", dest="form", choices=("dyck", "relation", "motzkin"), default="dyck"
    )
    p.set_defaults(func=cmd_enumerate)

    for name, text in (("face", "apply a face map to a word"), ("degeneracy", "apply a degeneracy map")):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("word")
        p.add_argument("--index", type=int, required=True)
        p.set_defaults(func=cmd_word_map)

    p = sub.add_parser("decompose", parents=[common], help="factor out all degeneracies")
    p.add_argument("word")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("motzkin", parents=[common], help="convert between word forms")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from-dyck", metavar="WORD")
    group.add_argument("--to-dyck", metavar="WORD")
    p.set_defaults(func=cmd_motzkin)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=(*_SUITES, "all"),
        required=True,
    )
    for option in _FLAGS.values():
        p.add_argument(option, type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", parents=[common], help="classify maps into a nerve")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("skew", help="check skew data or sweep a carrier")
    modes = p.add_subparsers(dest="mode", required=True)
    q = modes.add_parser("check", parents=[common], help="check a skew data file")
    q.add_argument("file")
    q.set_defaults(func=cmd_skew)
    q = modes.add_parser("sweep", parents=[common], help="sweep every skew candidate on a carrier")
    q.add_argument("--carrier", required=True, help="zmonoid, or chainN for the chain of N elements")
    q.add_argument("--config", help='JSON file overriding the sweep budget: {"budget": N}')
    q.set_defaults(func=cmd_skew)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CatssetError, ValueError, IndexError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetExceededError) else 2


if __name__ == "__main__":
    sys.exit(main())
