"""Command-line front end.

Thin adapters only: every verb parses its arguments, calls one library
operation, and renders the result as text or JSON.  Exit codes: 0 success,
1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import conjecture, group, mainline, mingenus, signature, spectrum
from .errors import GenusSpectrumError, InputError
from .halfint import HalfInt, twice_text


def _parse_seq(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(f"non-numeric token in sequence {text!r}") from exc


def _factored_genus(G: group.AbelianPGroup, value: HalfInt) -> str:
    if G.delta == 0 or value == 0:
        return str(signature.genus_of(G.p_delta, value))
    return f"1+{G.p}^{G.delta}*{value}"


def _emit(args, payload: dict, text_lines: list[str]) -> int:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)
    return 0


def _cmd_invariants(args) -> int:
    G = group.parse_group(args.group)
    inv = group.invariants(G)
    payload = {
        "group": G.encode(),
        "decomposition": G.describe(),
        "p": G.p,
        "e": G.e,
        "r": list(G.r),
        "s": list(inv.s),
        "e_prime": inv.e_prime,
        "delta": inv.delta,
        "epsilon": inv.epsilon,
        "kulkarni_n": str(inv.kulkarni_n),
        "log_order": inv.log_order,
        "order": str(G.order),
    }
    text = [
        f"group = {G.encode()}  ({G.describe()})",
        f"s = ({','.join(str(v) for v in inv.s)})",
        f"e' = {inv.e_prime}",
        f"delta = {inv.delta}",
        f"epsilon = {inv.epsilon}",
        f"N = {inv.kulkarni_n}",
        f"|G| = {G.p}^{inv.log_order} = {G.order}",
    ]
    return _emit(args, payload, text)


def _cmd_mu0(args) -> int:
    G = group.parse_group(args.group)
    report = mingenus.mu0(G)
    payload = {
        "group": G.encode(),
        "mu0": str(report.mu0),
        "minimum_genus": str(report.minimum_genus),
        "minimum_genus_factored": _factored_genus(G, report.mu0),
        "index_set": list(report.index_set),
        "zero_droppable": report.zero_droppable,
        "per_index": {
            str(i): {
                "epsilon_i": m.epsilon,
                "mu_i": str(m.mu),
                "min_gamma": str(m.min_value),
                "attaining_seq": list(m.attaining),
            }
            for i, m in report.per_index.items()
        },
        "attaining_data": [d.encode() for d in report.attaining_data],
    }
    text = [
        f"group = {G.encode()}",
        f"mu0 = {report.mu0}",
        f"minimum genus = {report.minimum_genus} = {_factored_genus(G, report.mu0)}",
        f"index set = {{{','.join(str(i) for i in report.index_set)}}}",
        "attaining data: " + "  ".join(d.encode() for d in report.attaining_data),
    ]
    return _emit(args, payload, text)


def _cmd_mu0plus(args) -> int:
    G = group.parse_group(args.group)
    value = spectrum.mu0_plus(G)
    genus = signature.genus_of(G.p_delta, value)
    payload = {
        "group": G.encode(),
        "mu0_plus": str(value),
        "mu_plus": str(genus),
    }
    text = [f"group = {G.encode()}", f"mu0+ = {value}", f"mu+ = {genus}"]
    return _emit(args, payload, text)


def _cmd_spectrum(args) -> int:
    G = group.parse_group(args.group)
    desc = spectrum.full_spectrum(G)
    view = spectrum.genus_view(G, desc)
    # with 7 268 to 17 268 gaps (5:1,0,3,0,1, 7:0,0,0,1, 13:0,0,1) the unused
    # format took a tenth to a third of the verb's time, so it is not built
    if args.format == "json":
        payload = {
            "group": G.encode(),
            **desc.to_json_dict(),
            "min_genus": str(view.min_genus),
            "genus_step": str(view.step),
            "stable_genus": str(view.stable_genus),
            "genus_gaps": [str(g) for g in view.gap_genera],
            "sp": view.render(),
        }
        print(json.dumps(payload))
        return 0
    gaps = ",".join(map(twice_text, desc.gaps_twice))
    print(
        f"group = {G.encode()}",
        f"epsilon = {desc.epsilon}",
        f"sp0: min = {desc.min_reduced}, stable = {desc.stable_reduced}, gaps = {{{gaps}}}",
        "verified up to "
        + ("infinity (closed form)" if desc.verified_bound is None else str(desc.verified_bound)),
        f"sp = {view.render()}",
        sep="\n",
    )
    return 0


def _cmd_oracle(args) -> int:
    G = group.parse_group(args.group)
    bound = HalfInt.parse(args.bound)
    values = [str(v) for v in spectrum.oracle_reduced_spectrum(G, bound)]
    payload = {"group": G.encode(), "bound": str(bound), "values": values}
    text = [f"group = {G.encode()}", "values = {" + ",".join(values) + "}"]
    return _emit(args, payload, text)


def _cmd_classify(args) -> int:
    G = group.parse_group(args.group)
    cls = spectrum.classify_small(G)
    payload = {"group": G.encode(), "class": cls.value}
    return _emit(args, payload, [f"group = {G.encode()}", f"class = {cls.value}"])


def _cmd_admissible(args) -> int:
    G = group.parse_group(args.group)
    d = signature.parse_datum(args.datum)
    ok = signature.is_admissible(G, d)
    g0 = signature.reduced_genus(G, d)
    payload = {
        "group": G.encode(),
        "datum": d.encode(),
        "admissible": ok,
        "reduced_genus": str(g0),
    }
    if ok:
        g = signature.genus(G, d)
        payload["genus"] = str(g)
        text = [f"admissible, g={g}, g0={g0}"]
    else:
        text = [f"not admissible, g0={g0}"]
    return _emit(args, payload, text)


def _cmd_mainline(args) -> int:
    seq = _parse_seq(args.sequence)
    profile = mainline.mainline_profile(args.p, seq)
    payload = {
        "p": args.p,
        "sequence": list(seq),
        "hull": list(mainline.hull(seq)),
        "mu": profile.mu,
        "sigma": profile.sigma,
        "gaps": list(profile.gaps),
    }
    text = [
        f"hull = ({','.join(str(v) for v in mainline.hull(seq))})",
        f"mu = {profile.mu}, sigma = {profile.sigma}, gaps = {{{','.join(str(g) for g in profile.gaps)}}}",
    ]
    return _emit(args, payload, text)


def _cmd_construct(args) -> int:
    G = spectrum.group_for_spectrum(args.p, args.e, args.m)
    desc = spectrum.closed_form_spectrum(G)
    payload = {
        "p": args.p,
        "e": args.e,
        "m": args.m,
        "group": G.encode(),
        **desc.to_json_dict(),
    }
    text = [
        f"group = {G.encode()}  ({G.describe()})",
        f"mu0 = sigma0 = {desc.min_reduced}",
        f"lattice step = {desc.step}",
    ]
    return _emit(args, payload, text)


def _cmd_search_talu(args) -> int:
    relation = {
        "same-lattice": conjecture.RELATION_SAME,
        "p2-mixed": conjecture.RELATION_MIXED,
        "all": None,
    }[args.relation]
    pairs = conjecture.search_counterexamples(
        args.p, args.e, args.e_tilde, args.delta_max, relation=relation
    )
    payload = {
        "p": args.p,
        "e": args.e,
        "e_tilde": args.e_tilde,
        "delta_max": args.delta_max,
        "pairs": [q.to_json_dict() for q in pairs],
    }
    text = [f"{len(pairs)} pair(s) with deficiency <= {args.delta_max}"]
    for q in pairs:
        text.append(
            f"delta={q.delta}: {q.g1.encode()} ~ {q.g2.encode()} "
            f"mu0={q.mu1},{q.mu2} relation={q.relation}"
        )
    return _emit(args, payload, text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genus-spectrum",
        description="Exact genus spectra of abelian p-groups.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        return sp

    for name, fn, doc in (
        ("invariants", _cmd_invariants, "numeric invariants of a group"),
        ("mu0", _cmd_mu0, "reduced minimum genus and attaining data"),
        ("mu0plus", _cmd_mu0plus, "smallest positive reduced genus"),
        ("spectrum", _cmd_spectrum, "full reduced and genus-level spectrum"),
        ("classify", _cmd_classify, "minimum genus 0 / 1 / larger"),
    ):
        sp = add(name, fn, help=doc)
        sp.add_argument("group", help="group encoding p:r1,...,re")

    sp = add("oracle", _cmd_oracle, help="reduced genera up to a bound, by enumeration")
    sp.add_argument("group")
    sp.add_argument("--bound", required=True, help="half-integer bound, e.g. 9 or 19/2")

    sp = add("admissible", _cmd_admissible, help="test a datum against a group")
    sp.add_argument("group")
    sp.add_argument("--datum", required=True, help="datum encoding x1,...,xe;h")

    sp = add("mainline", _cmd_mainline, help="profile of the mainline integers of a sequence")
    sp.add_argument("sequence", help="comma-separated entries, e.g. 2,2")
    sp.add_argument("--p", type=int, required=True)

    sp = add("construct", _cmd_construct, help="group with prescribed stable reduced spectrum")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)

    sp = add("search-talu", _cmd_search_talu, help="equal-spectrum pairs of non-isomorphic groups")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--e-tilde", type=int, required=True)
    sp.add_argument("--delta-max", type=int, required=True)
    sp.add_argument("--relation", choices=("same-lattice", "p2-mixed", "all"), default="all")
    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GenusSpectrumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # the library's integers are unbounded, so printing them must be too
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Python flushes stdout again at exit, so
        # point it at devnull to keep that flush from raising a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
