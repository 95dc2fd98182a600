"""Command-line front end.

Thin adapters only: every verb parses its arguments, calls one library
operation, and returns the payload and the text lines; `run` prints the one
asked for.  Each verb imports the engines it calls, so a cold start loads
those alone.  Exit codes: 0 success, 1 domain error or out of memory, 2
usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from functools import cache

from .errors import GenusSpectrumError, _parse_ints


def _cmd_invariants(args):
    from . import group
    G = group.parse_group(args.group)
    inv = group.invariants(G)
    # p^delta and |G| may have millions of digits, and str() is quadratic in them
    n, order = str(inv.kulkarni_n), str(G.order)
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
        "kulkarni_n": n,
        "log_order": inv.log_order,
        "order": order,
    }
    text = [
        f"group = {G.encode()}  ({G.describe()})",
        f"s = ({','.join(str(v) for v in inv.s)})",
        f"e' = {inv.e_prime}",
        f"delta = {inv.delta}",
        f"epsilon = {inv.epsilon}",
        f"N = {n}",
        f"|G| = {G.p}^{inv.log_order} = {order}",
    ]
    return payload, text


def _cmd_mu0(args):
    from . import group, mingenus
    G = group.parse_group(args.group)
    report = mingenus.mu0(G)
    genus = str(report.minimum_genus)
    factored = genus if G.delta == 0 or report.mu0 == 0 else f"1+{G.p}^{G.delta}*{report.mu0}"
    payload = {
        "group": G.encode(),
        "mu0": str(report.mu0),
        "minimum_genus": genus,
        "minimum_genus_factored": factored,
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
        f"minimum genus = {genus} = {factored}",
        f"index set = {{{','.join(str(i) for i in report.index_set)}}}",
        "attaining data: " + "  ".join(d.encode() for d in report.attaining_data),
    ]
    return payload, text


def _cmd_mu0plus(args):
    from . import group, signature, spectrum
    G = group.parse_group(args.group)
    value = spectrum.mu0_plus(G)
    genus = str(signature.genus_of(G.p_delta, value))
    payload = {
        "group": G.encode(),
        "mu0_plus": str(value),
        "mu_plus": genus,
    }
    text = [f"group = {G.encode()}", f"mu0+ = {value}", f"mu+ = {genus}"]
    return payload, text


def _cmd_spectrum(args):
    from . import group, spectrum
    from .halfint import twice_text
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
        return payload, None
    gaps = ",".join(map(twice_text, desc.gaps_twice))
    text = [
        f"group = {G.encode()}",
        f"epsilon = {desc.epsilon}",
        f"sp0: min = {desc.min_reduced}, stable = {desc.stable_reduced}, gaps = {{{gaps}}}",
        "verified up to "
        + ("infinity (closed form)" if desc.verified_bound is None else str(desc.verified_bound)),
        f"sp = {view.render()}",
    ]
    return None, text


def _cmd_oracle(args):
    from . import group, spectrum
    from .halfint import HalfInt
    G = group.parse_group(args.group)
    bound = HalfInt.parse(args.bound)
    values = [str(v) for v in spectrum.oracle_reduced_spectrum(G, bound)]
    payload = {"group": G.encode(), "bound": str(bound), "values": values}
    text = [f"group = {G.encode()}", "values = {" + ",".join(values) + "}"]
    return payload, text


def _cmd_classify(args):
    from . import group, spectrum
    G = group.parse_group(args.group)
    cls = spectrum.classify_small(G)
    payload = {"group": G.encode(), "class": cls.value}
    return payload, [f"group = {G.encode()}", f"class = {cls.value}"]


def _cmd_admissible(args):
    from . import group, signature
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
    return payload, text


def _cmd_mainline(args):
    from . import mainline
    seq = _parse_ints(args.sequence.split(","), "sequence", args.sequence)
    profile = mainline.mainline_profile(args.p, seq)
    hull = mainline.hull(seq)
    payload = {
        "p": args.p,
        "sequence": list(seq),
        "hull": list(hull),
        "mu": profile.mu,
        "sigma": profile.sigma,
        "gaps": list(profile.gaps),
    }
    text = [
        f"hull = ({','.join(str(v) for v in hull)})",
        f"mu = {profile.mu}, sigma = {profile.sigma}, gaps = {{{','.join(str(g) for g in profile.gaps)}}}",
    ]
    return payload, text


def _cmd_construct(args):
    from . import spectrum
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
    return payload, text


def _cmd_search_talu(args):
    from . import conjecture
    # --relation's names, each with the library relation it selects
    relation = {
        "same-lattice": conjecture.RELATION_SAME,
        "p2-mixed": conjecture.RELATION_MIXED,
        "all": None,
    }[args.relation]
    pairs = conjecture.search_counterexamples(
        args.p, args.e, args.e_tilde, args.delta_max, relation=relation
    )
    # with 7 205 and 8 308 pairs the unused format took a sixth to a third
    # of the search's time, so it is not built
    if args.format == "json":
        payload = {
            "p": args.p,
            "e": args.e,
            "e_tilde": args.e_tilde,
            "delta_max": args.delta_max,
            "pairs": [q.to_json_dict() for q in pairs],
        }
        return payload, None
    text = [f"{len(pairs)} pair(s) with deficiency <= {args.delta_max}"]
    for q in pairs:
        text.append(
            f"delta={q.delta}: {q.g1.encode()} ~ {q.g2.encode()} "
            f"mu0={q.mu1},{q.mu2} relation={q.relation}"
        )
    return None, text


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built on the first call and shared by later
    ones, which must not change it: building its ten subparsers took about
    90 % of an in-process `run`."""
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
    args = build_parser().parse_args(argv)
    try:
        payload, text = args.fn(args)
    except GenusSpectrumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        import json
        text = [json.dumps(payload)]
    print("\n".join(text))
    return 0


def main() -> None:
    # the library's integers are unbounded, so printing them must be too
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    out_of_memory = False
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Python flushes stdout again at exit, so
        # point it at devnull to keep that flush from raising a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    except MemoryError:
        # A last resort for a job whose memory outgrows the engines' up-front
        # estimates.  The error is printed after this block, once the
        # traceback and the job's frames are freed.
        out_of_memory = True
    if out_of_memory:
        print("error: out of memory", file=sys.stderr)
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
