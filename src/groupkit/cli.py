"""Command-line front end.

Exit codes: 0 success, 4 when an output check or the cross-check fails,
141 (128 + SIGPIPE, as a shell reports a pipe's writer killed by it) when
stdout is closed before the report is written, and otherwise the code of the
GroupKitError raised: each class in errors.py carries its own (2 bad input,
3 not applicable, 4 failed internal check, 5 a size or enumeration limit).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import warnings as _warnings

from . import config, products
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
from .errors import GroupKitError, InvalidSpec, quote
from .groups import ElementSet, Group, bit_indices, build_group
from .report import RunReport, trace_payload
from .words import parse_element, parse_subset

FAULT_ENV = "GROUPKIT_FAULT_INJECT"
CLOSED_STDOUT = 141


def _load_group(text: str) -> Group:
    """The group a --group value gives: a JSON spec, inline or in an
    @file, or the inline kind:n form, e.g. 'cyclic:12', whose n is ASCII
    digits, as in element words, with whitespace around it ignored."""
    if text.startswith("@"):
        path = text[1:]
        source = f"group file {quote(path)}"
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:  # its str() quotes the whole path again
            raise InvalidSpec(f"cannot read {source}: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise InvalidSpec(f"cannot read {source}: {exc}") from None
    elif text.lstrip().startswith("{"):
        source = "--group value"
    else:
        kind, sep, arg = text.partition(":")
        kind, arg = kind.strip(), arg.strip()
        if not sep or kind not in ("cyclic", "dihedral", "symmetric"):
            raise InvalidSpec(
                f"inline group {quote(text)} not understood; use kind:n with kind in "
                "cyclic/dihedral/symmetric, or give a JSON object"
            )
        n = config._ascii_int(arg)
        if n is None or arg.startswith("-"):
            raise InvalidSpec(f"inline group {quote(text)} needs an integer parameter")
        return build_group({"kind": kind, "n": n})
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"{source} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidSpec(f"{source} is nested too deeply") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise InvalidSpec(f"{source} cannot be read: {exc}") from None
    return build_group(data)


def _parse_policy(g: Group, text: str) -> ChoicePolicy:
    if text == "smallest":
        return SMALLEST
    mode, sep, arg = text.partition(":")
    if mode == "random" and sep:
        seed = config._ascii_int(arg)
        if seed is None:
            raise InvalidSpec(f"--policy random needs an integer seed, got {quote(arg)}")
        return ChoicePolicy.random(seed)
    if mode == "script" and sep:
        picks = [parse_element(g, part) for part in arg.split(",") if part.strip()]
        return ChoicePolicy.scripted(picks)
    raise InvalidSpec(
        f"--policy {quote(text)} not understood; use smallest, random:<seed> or script:<e1,e2,...>"
    )


def _parse_required_subgroup(g: Group, flag: str, text: str | None) -> ElementSet:
    if text is None:
        raise InvalidSpec(f"{flag} is required for this command")
    try:
        subset = parse_subset(g, text)
    except GroupKitError as exc:
        raise type(exc)(f"{flag}: {exc}") from None
    return subset.require_subgroup(f"{flag}:")


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
                suffix = f" ({check['detail']})" if check["detail"] else ""
                lines.append(f"  [{check['status']}] {check['name']}{suffix}")
        c = r["counts"]
        lines.append(f"summary: pass={c['pass']} warn={c['warn']} fail={c['fail']}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


# -- command handlers ----------------------------------------------------------


def _prologue(
    args: argparse.Namespace, *, needs_k: bool = True
) -> tuple[Group, ElementSet, ElementSet | None, ChoicePolicy | None, int | None, dict]:
    """Load the group, H, K when needs_k, and for the commands that take
    --policy the policy and g0, in that order; return them with the report's
    inputs built from them."""
    g = _load_group(args.group)
    h = _parse_required_subgroup(g, "-H", args.subgroup_h)
    inputs = {"group": args.group, "H": h.names()}
    k = policy = g0 = None
    if needs_k:
        k = _parse_required_subgroup(g, "-K", args.subgroup_k)
        inputs["K"] = k.names()
    if "policy" in args:
        policy = _parse_policy(g, args.policy)
        g0 = _parse_g0(g, args.g0)
        inputs["g0"] = None if g0 is None else g.names[g0]
        inputs["policy"] = policy.describe()
        inputs["trace"] = args.trace
    return g, h, k, policy, g0, inputs


def _cmd_transversal(args: argparse.Namespace) -> RunReport:
    """rta, or mta when the command takes -K."""
    g, h, k, policy, g0, inputs = _prologue(args, needs_k=args.command == "mta")
    trace = rta(h, g0=g0, policy=policy) if k is None else mta(h, k, g0=g0, policy=policy)
    # an RTA trace's K is {1}, so one judge serves both
    count = "index" if k is None else "double_coset_count"
    valid = products.is_middle_transversal(h, trace.output, trace.k)
    payload = trace_payload(trace, args.trace == "full")
    result = {
        "trace": payload,
        "transversal": payload["output"],
        count: trace.n_steps + 1,
        "valid": valid,
    }
    return RunReport(args.command, g, inputs, result, exit_code=0 if valid else 4)


def _cmd_msfa(args: argparse.Namespace) -> RunReport:
    g, h, k, policy, g0, inputs = _prologue(args)
    inputs["extend"] = bool(args.extend)
    # one started policy for both runs: the extension continues its picks
    chooser = policy.start()
    trace = msfa(h, k, g0=g0, policy=chooser)
    full = args.trace == "full"
    verdict = products.direct_middle_verdict(h, trace.output, k)
    payload = trace_payload(trace, full)
    result = {"trace": payload, "x": payload["output"], **verdict}
    ok = verdict["direct"] and verdict["maximal"]
    if args.extend:
        extended = extend_to_middle_transversal(trace, policy=chooser)
        result["extension"] = payload = trace_payload(extended, full)
        result["x_star"] = payload["output"]
        ok = ok and products.is_middle_transversal(h, extended.output, k)
    return RunReport("msfa", g, inputs, result, exit_code=0 if ok else 4)


def _cmd_mid(args: argparse.Namespace) -> RunReport:
    g, h, k, _, _, inputs = _prologue(args)
    inputs["method"] = args.method
    by_def = None if args.method == "conjugacy" else products.mid_director(h, k)
    by_conj = None if args.method == "definition" else products.mid_director_subgroups(h, k)
    mid = by_def if by_conj is None else by_conj
    result = {
        "method": args.method,
        "tag": products.mid_tag(mid),
        "size": len(mid),
        "mid": mid.names(),
    }
    agree = True
    if args.method == "both":
        agree = result["agree"] = by_def == by_conj
    return RunReport("mid", g, inputs, result, exit_code=0 if agree else 4)


def _cmd_enumerate(args: argparse.Namespace) -> RunReport:
    from . import oracle  # loaded only for the command that uses it
    given = None if args.limit is None else config._ascii_int(args.limit)
    if given is None and args.limit is not None:
        raise InvalidSpec(f"--limit must be a positive integer, got {quote(args.limit)}")
    limit = config.enum_cap(given, "--limit")
    if args.what == "right-transversals" and args.subgroup_k is not None:
        raise InvalidSpec("-K does not apply to --what right-transversals")
    g, h, k, _, _, inputs = _prologue(args, needs_k=args.what != "right-transversals")
    inputs |= {"what": args.what, "via": args.via, "limit": given, "list": bool(args.list)}
    if k is not None:
        inputs["K"] = inputs.pop("K")  # enumerate's reports list K last
    operands = (h,) if k is None else (h, k)
    search, brute = {
        "right-transversals": (enumerate_all_right_transversals, oracle.all_right_transversals),
        "middle-transversals": (enumerate_all_middle_transversals, oracle.all_middle_transversals),
        "middle-subfactors": (enumerate_all_middle_subfactors, oracle.all_maximal_direct_triples),
    }[args.what]
    result: dict = {"what": args.what, "via": args.via}
    # both sides stay as the int-mask lists they return, and --list names
    # its sets straight from them
    algo_masks = oracle_masks = None
    if args.via != "oracle":
        algo_masks = search(*operands, limit=limit, as_masks=True)
        if os.environ.get(FAULT_ENV) == "drop-algorithm-set" and algo_masks:
            # test hook: force a cross-check mismatch deterministically
            algo_masks.remove(max(algo_masks))
        result["count_algorithm"] = len(algo_masks)
    if args.via != "algorithm":
        oracle_masks = brute(*operands, limit=limit, as_masks=True)
        result["count_oracle"] = len(oracle_masks)
    match = True
    if args.via == "both":
        # Both sides build their masks on the same g, so equal masks are equal
        # sets, and both multiply out the same cells in the same order (cells
        # by least element, each ascending, the first slowest), so equal
        # lists settle it with one compare.  Lists that differ may still be
        # the same answers in another order: then each oracle mask is struck
        # off against the search's list, and the counts must agree, so the
        # list holds every oracle mask exactly once and an answer the search
        # gives twice fails the check.
        match = algo_masks == oracle_masks
        if not match:
            missing = set(oracle_masks).difference(algo_masks)
            match = not missing and len(algo_masks) == result["count_oracle"]
        result["match"] = match
    if args.list:
        # the sets in order of their index tuples, each tuple replaced by its
        # names in place, so that no tuple outlives its names
        shown = oracle_masks if algo_masks is None else algo_masks
        sets = sorted(map(tuple, map(bit_indices, shown)))
        name = g.names.__getitem__
        for i, indices in enumerate(sets):
            sets[i] = list(map(name, indices))
        result["sets"] = sets
    return RunReport("enumerate", g, inputs, result, exit_code=0 if match else 4)


def _cmd_verify(args: argparse.Namespace) -> RunReport:
    from . import verify
    # the report's header names the group of the first example
    group, result = verify.run([n for n in map(str.strip, (args.example or "").split(",")) if n])
    examples = [section["example"] for section in result["sections"]]
    exit_code = 4 if result["counts"]["fail"] else 0
    return RunReport("verify-paper", group, {"examples": examples}, result, exit_code=exit_code)


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand, built on the first call and reused:
    parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="groupkit",
        description="Finite-group transversal and double-coset toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rta", help="search a right transversal of H")
    _add_common(p, needs_k=False)
    _add_search_flags(p)
    p.set_defaults(handler=_cmd_transversal)

    p = sub.add_parser("mta", help="search a middle transversal of (H, K)")
    _add_common(p, needs_k=True)
    _add_search_flags(p)
    p.set_defaults(handler=_cmd_transversal)

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
    p.add_argument("--limit", help="cap on the number of results")
    p.add_argument("--list", action="store_true", help="include the sets in the output")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify-paper", help="replay the bundled worked examples")
    p.add_argument("--example", help="comma list from 1.3, 2.5, 2.14 (default: all)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            report = args.handler(args)
    except GroupKitError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    report.warnings = [str(w.message) for w in caught]
    report.timing_ms = round((time.perf_counter() - started) * 1000, 3)
    try:
        print(report.to_json() if args.format == "json" else _render_text(report), flush=True)
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # exit does not fail again, as the note on SIGPIPE in signal's docs does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_STDOUT
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
