"""Command-line front end.

Exit codes: 0 success, 2 parse/validation problem, 3 search not applicable
(empty middle director), 4 failed internal check or cross-check mismatch,
5 a size or enumeration limit was hit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings as _warnings

from . import config, oracle, products, verify
from .algorithms import (
    SMALLEST,
    ChoicePolicy,
    enumerate_all_middle_subfactors,
    enumerate_all_middle_transversals,
    enumerate_all_right_transversals,
    extend_to_middle_transversal,
    msfa,
    mta,
    rta,
)
from .errors import (
    EnumerationLimitExceeded,
    G0NotInMid,
    GroupKitError,
    GroupMismatch,
    IndexOutOfRange,
    InvalidSpec,
    MidEmpty,
    NotAGroup,
    NotASubgroup,
    ParseError,
    ScriptedChoiceInvalid,
    SizeLimitExceeded,
    TraceMismatch,
)
from .groups import ElementSet, Group, GroupSpec, build_group
from .report import RunReport, set_names, trace_payload
from .words import parse_element, parse_subset

FAULT_ENV = "GROUPKIT_FAULT_INJECT"


def _load_group(text: str) -> Group:
    if text.startswith("@"):
        path = text[1:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InvalidSpec(f"cannot read group file {path!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"group file {path!r} is not valid JSON: {exc}") from None
        return build_group(GroupSpec.from_dict(data))
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"--group value is not valid JSON: {exc}") from None
        return build_group(GroupSpec.from_dict(data))
    return build_group(GroupSpec.from_inline(text))


def _parse_policy(g: Group, text: str) -> ChoicePolicy:
    if text == "smallest":
        return SMALLEST
    mode, sep, arg = text.partition(":")
    if mode == "random" and sep:
        try:
            return ChoicePolicy.random(int(arg))
        except ValueError:
            raise InvalidSpec(f"--policy random needs an integer seed, got {arg!r}") from None
    if mode == "script" and sep:
        picks = [parse_element(g, part) for part in arg.split(",") if part.strip()]
        return ChoicePolicy.scripted(picks)
    raise InvalidSpec(
        f"--policy {text!r} not understood; use smallest, random:<seed> or script:<e1,e2,...>"
    )


def _parse_required_subgroup(g: Group, flag: str, text: str | None) -> ElementSet:
    if text is None:
        raise InvalidSpec(f"{flag} is required for this command")
    try:
        subset = parse_subset(g, text)
    except GroupKitError as exc:
        raise type(exc)(f"{flag}: {exc}") from None
    if not subset.is_subgroup():
        raise NotASubgroup(f"{flag}: {{{', '.join(subset.names())}}} is not a subgroup")
    return subset


def _parse_g0(g: Group, text: str | None) -> int | None:
    if text is None:
        return None
    try:
        return parse_element(g, text)
    except GroupKitError as exc:
        raise type(exc)(f"--g0: {exc}") from None


# -- text rendering ------------------------------------------------------------


def _set_text(names: list[str]) -> str:
    return "{" + ", ".join(names) + "}"


def _trace_lines(payload: dict, label: str = "C") -> list[str]:
    lines = [
        f"algorithm: {payload['algorithm']}   policy: {payload['policy']}",
        f"picks: {', '.join(payload['chosen'])}",
        f"chain sizes: {', '.join(str(s) for s in payload['chain_sizes'])}",
    ]
    if payload["chain_sets"] is not None:
        start = -1 if payload["extension_start"] is None else payload["extension_start"]
        for i, names in enumerate(payload["chain_sets"]):
            lines.append(f"{label}^({start + i}) = {_set_text(names)}")
    return lines


def _render_text(report: RunReport) -> str:
    g = report.group
    lines = [f"group: {g.description} (order {g.order})"]
    for key in ("H", "K"):
        if key in report.inputs:
            lines.append(f"{key} = {_set_text(report.inputs[key])}")
    r = report.result
    cmd = report.command
    if cmd in ("rta", "mta"):
        lines += _trace_lines(r["trace"])
        lines.append(f"N = {r['trace']['n_steps']}")
        if cmd == "rta":
            lines.append(f"index |G:H| = {r['index']}")
            lines.append(f"T = {_set_text(r['transversal'])}")
            lines.append(f"valid right transversal: {'yes' if r['valid'] else 'NO'}")
        else:
            lines.append(f"double cosets: {r['double_coset_count']}")
            lines.append(f"X = {_set_text(r['transversal'])}")
            lines.append(f"valid middle transversal: {'yes' if r['valid'] else 'NO'}")
    elif cmd == "msfa":
        lines += _trace_lines(r["trace"])
        lines.append(f"|Mid| = {r['mid_size']}")
        lines.append(f"X = {_set_text(r['x'])}")
        lines.append(
            f"direct: {'yes' if r['direct'] else 'NO'}   "
            f"maximal: {'yes' if r['maximal'] else 'NO'}   "
            f"covers group: {'yes' if r['covers_group'] else 'no'}"
        )
        if "extension" in r:
            lines.append("-- extension to a middle transversal --")
            lines += _trace_lines(r["extension"], label="C*")
            lines.append(f"X* = {_set_text(r['x_star'])}")
    elif cmd == "mid":
        lines.append(f"method: {r['method']}")
        lines.append(f"tag: {r['tag']}   size: {r['size']}")
        lines.append(f"Mid = {_set_text(r['mid'])}")
        if "agree" in r:
            lines.append(f"methods agree: {'yes' if r['agree'] else 'NO'}")
    elif cmd == "enumerate":
        lines.append(f"what: {r['what']}   via: {r['via']}")
        if "count_algorithm" in r:
            lines.append(f"count (search): {r['count_algorithm']}")
        if "count_oracle" in r:
            lines.append(f"count (brute force): {r['count_oracle']}")
        if "match" in r:
            lines.append(f"match: {'yes' if r['match'] else 'NO'}")
        for names in r.get("sets", []):
            lines.append(f"  {_set_text(names)}")
    elif cmd == "verify-paper":
        lines = []
        for section in r["sections"]:
            lines.append(f"example {section['example']}: {section['title']}")
            for check in section["checks"]:
                mark = {"PASS": "PASS", "WARN": "WARN", "FAIL": "FAIL"}[check["status"]]
                suffix = f" ({check['detail']})" if check["detail"] else ""
                lines.append(f"  [{mark}] {check['name']}{suffix}")
        c = r["counts"]
        lines.append(f"summary: pass={c['pass']} warn={c['warn']} fail={c['fail']}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


# -- command handlers ----------------------------------------------------------


def _cmd_rta(args: argparse.Namespace) -> RunReport:
    g = _load_group(args.group)
    h = _parse_required_subgroup(g, "-H", args.subgroup_h)
    policy = _parse_policy(g, args.policy)
    g0 = _parse_g0(g, args.g0)
    trace = rta(h, g0=g0, policy=policy, record=args.trace)
    trace.validate()
    valid = products.is_right_transversal(h, trace.output)
    report = RunReport(
        command="rta",
        group=g,
        inputs={
            "group": args.group,
            "H": h.names(),
            "g0": None if g0 is None else g.names[g0],
            "policy": policy.describe(),
            "trace": args.trace,
        },
        result={
            "trace": trace_payload(trace),
            "transversal": set_names(trace.output),
            "index": trace.n_steps + 1,
            "valid": valid,
        },
    )
    report.exit_code = 0 if valid else 4
    return report


def _cmd_mta(args: argparse.Namespace) -> RunReport:
    g = _load_group(args.group)
    h = _parse_required_subgroup(g, "-H", args.subgroup_h)
    k = _parse_required_subgroup(g, "-K", args.subgroup_k)
    policy = _parse_policy(g, args.policy)
    g0 = _parse_g0(g, args.g0)
    trace = mta(h, k, g0=g0, policy=policy, record=args.trace)
    trace.validate()
    valid = products.is_middle_transversal(h, trace.output, k)
    report = RunReport(
        command="mta",
        group=g,
        inputs={
            "group": args.group,
            "H": h.names(),
            "K": k.names(),
            "g0": None if g0 is None else g.names[g0],
            "policy": policy.describe(),
            "trace": args.trace,
        },
        result={
            "trace": trace_payload(trace),
            "transversal": set_names(trace.output),
            "double_coset_count": trace.n_steps + 1,
            "valid": valid,
        },
    )
    report.exit_code = 0 if valid else 4
    return report


def _cmd_msfa(args: argparse.Namespace) -> RunReport:
    g = _load_group(args.group)
    h = _parse_required_subgroup(g, "-H", args.subgroup_h)
    k = _parse_required_subgroup(g, "-K", args.subgroup_k)
    policy = _parse_policy(g, args.policy)
    g0 = _parse_g0(g, args.g0)
    chooser = policy.start()
    trace = msfa(h, k, g0=g0, policy=policy, record=args.trace, chooser=chooser)
    trace.validate()
    mid = trace.seed
    hxk = products.set_product(products.set_product(h, trace.output), k)
    direct = products.is_direct_triple(h, trace.output, k)
    # Mid is a union of (H, K) blocks, so a direct X is maximal exactly when
    # H*X*K already covers Mid
    maximal = mid <= hxk
    result = {
        "trace": trace_payload(trace),
        "x": set_names(trace.output),
        "mid_size": len(mid),
        "covers_group": hxk == g.full_set(),
        "direct": direct,
        "maximal": maximal,
    }
    ok = direct and maximal
    if args.extend:
        extended = extend_to_middle_transversal(
            h, k, trace, policy=policy, record=args.trace, chooser=chooser
        )
        extended.validate()
        result["extension"] = trace_payload(extended)
        result["x_star"] = set_names(extended.output)
        ok = ok and products.is_middle_transversal(h, extended.output, k)
    report = RunReport(
        command="msfa",
        group=g,
        inputs={
            "group": args.group,
            "H": h.names(),
            "K": k.names(),
            "g0": None if g0 is None else g.names[g0],
            "policy": policy.describe(),
            "trace": args.trace,
            "extend": bool(args.extend),
        },
        result=result,
    )
    report.exit_code = 0 if ok else 4
    return report


def _cmd_mid(args: argparse.Namespace) -> RunReport:
    g = _load_group(args.group)
    h = _parse_required_subgroup(g, "-H", args.subgroup_h)
    k = _parse_required_subgroup(g, "-K", args.subgroup_k)
    by_def = by_conj = None
    if args.method in ("definition", "both"):
        by_def = products.mid_director(h, k)
    if args.method in ("conjugacy", "both"):
        by_conj = products.mid_director_subgroups(h, k)
    mid = by_conj if by_conj is not None else by_def
    assert mid is not None
    case = products.MidCase.of(mid)
    result = {
        "method": args.method,
        "tag": case.tag.value,
        "size": len(mid),
        "mid": set_names(mid),
    }
    exit_code = 0
    if args.method == "both":
        agree = by_def == by_conj
        result["agree"] = agree
        if not agree:
            exit_code = 4
    report = RunReport(
        command="mid",
        group=g,
        inputs={"group": args.group, "H": h.names(), "K": k.names(), "method": args.method},
        result=result,
    )
    report.exit_code = exit_code
    return report


def _cmd_enumerate(args: argparse.Namespace) -> RunReport:
    limit = config.enum_cap(args.limit, "--limit")
    g = _load_group(args.group)
    h = _parse_required_subgroup(g, "-H", args.subgroup_h)
    k = None
    if args.what != "right-transversals":
        k = _parse_required_subgroup(g, "-K", args.subgroup_k)
    result: dict = {"what": args.what, "via": args.via}
    algo_sets = oracle_sets = None
    if args.via in ("algorithm", "both"):
        if args.what == "right-transversals":
            algo_sets = enumerate_all_right_transversals(h, limit=limit)
        elif args.what == "middle-transversals":
            assert k is not None
            algo_sets = enumerate_all_middle_transversals(h, k, limit=limit)
        else:
            assert k is not None
            algo_sets = enumerate_all_middle_subfactors(h, k, limit=limit)
        if os.environ.get(FAULT_ENV) == "drop-algorithm-set" and algo_sets:
            # test hook: force a cross-check mismatch deterministically
            algo_sets = set(algo_sets)
            algo_sets.discard(max(algo_sets, key=lambda s: s.mask))
        result["count_algorithm"] = len(algo_sets)
    if args.via in ("oracle", "both"):
        if args.what == "right-transversals":
            oracle_sets = oracle.all_right_transversals(h, limit=limit)
        elif args.what == "middle-transversals":
            assert k is not None
            oracle_sets = oracle.all_middle_transversals(h, k, limit=limit)
        else:
            assert k is not None
            oracle_sets = oracle.all_maximal_direct_triples(h, k, limit=limit)
        result["count_oracle"] = len(oracle_sets)
    exit_code = 0
    if args.via == "both":
        assert algo_sets is not None and oracle_sets is not None
        match = algo_sets == oracle_sets
        result["match"] = match
        if not match:
            exit_code = 4
    if args.list:
        shown = algo_sets if algo_sets is not None else oracle_sets
        assert shown is not None
        result["sets"] = [set_names(s) for s in sorted(shown, key=lambda s: s.indices())]
    inputs = {
        "group": args.group,
        "H": h.names(),
        "what": args.what,
        "via": args.via,
        "limit": args.limit,
        "list": bool(args.list),
    }
    if k is not None:
        inputs["K"] = k.names()
    report = RunReport(command="enumerate", group=g, inputs=inputs, result=result)
    report.exit_code = exit_code
    return report


def _cmd_verify(args: argparse.Namespace) -> RunReport:
    examples = None
    if args.example:
        examples = [part.strip() for part in args.example.split(",") if part.strip()]
    try:
        result = verify.run(examples)
    except ValueError as exc:
        raise InvalidSpec(str(exc)) from None
    # the verification runs fixed reference groups; report the first one
    first = (examples or verify.EXAMPLES)[0]
    report = RunReport(
        command="verify-paper",
        group=build_group(verify.GROUPS[first]),
        inputs={"examples": list(examples) if examples else list(verify.EXAMPLES)},
        result=result,
    )
    report.exit_code = 4 if result["counts"]["fail"] else 0
    return report


# -- parser and entry point -----------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, *, needs_k: bool) -> None:
    parser.add_argument("--group", required=True, help="group spec: kind:n, JSON, or @file.json")
    parser.add_argument("-H", dest="subgroup_h", metavar="SET", help="subgroup H as a comma list")
    if needs_k:
        parser.add_argument("-K", dest="subgroup_k", metavar="SET", help="subgroup K as a comma list")
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--g0", help="first pick; element expression")
    parser.add_argument(
        "--policy",
        default="smallest",
        help="smallest | random:<seed> | script:<e1,e2,...>",
    )
    parser.add_argument("--trace", choices=("sizes", "full"), default="sizes")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupkit",
        description="Finite-group transversal and double-coset toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rta", help="search a right transversal of H")
    _add_common(p, needs_k=False)
    _add_search_flags(p)
    p.set_defaults(handler=_cmd_rta)

    p = sub.add_parser("mta", help="search a middle transversal of (H, K)")
    _add_common(p, needs_k=True)
    _add_search_flags(p)
    p.set_defaults(handler=_cmd_mta)

    p = sub.add_parser("msfa", help="search a maximal direct middle of (H, K)")
    _add_common(p, needs_k=True)
    _add_search_flags(p)
    p.add_argument("--extend", action="store_true", help="extend the result to a middle transversal")
    p.set_defaults(handler=_cmd_msfa)

    p = sub.add_parser("mid", help="compute and classify the middle director")
    _add_common(p, needs_k=True)
    p.add_argument("--method", choices=("definition", "conjugacy", "both"), default="both")
    p.set_defaults(handler=_cmd_mid)

    p = sub.add_parser("enumerate", help="enumerate all outputs and cross-check")
    _add_common(p, needs_k=True)
    p.add_argument(
        "--what",
        choices=("right-transversals", "middle-transversals", "middle-subfactors"),
        required=True,
    )
    p.add_argument("--via", choices=("algorithm", "oracle", "both"), default="both")
    p.add_argument("--limit", type=int, help="cap on the number of results")
    p.add_argument("--list", action="store_true", help="include the sets in the output")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify-paper", help="replay the bundled worked examples")
    p.add_argument("--example", help="comma list from 1.3, 2.5, 2.14 (default: all)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            report = args.handler(args)
        report.warnings = [str(w.message) for w in caught] + report.warnings
    except (
        InvalidSpec,
        NotAGroup,
        ParseError,
        IndexOutOfRange,
        NotASubgroup,
        GroupMismatch,
        ScriptedChoiceInvalid,
        G0NotInMid,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MidEmpty as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 3
    except TraceMismatch as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except (SizeLimitExceeded, EnumerationLimitExceeded) as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 5
    report.timing_ms = round((time.perf_counter() - started) * 1000, 3)
    if args.format == "json":
        print(report.to_json())
    else:
        print(_render_text(report))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
