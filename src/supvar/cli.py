"""Command line interface with deterministic JSON (or table) reports.

Exit codes: 0 success, 1 verdict failure (a --compare mismatch or a failed
divisibility check), 2 malformed input, 3 dimension budget exceeded,
4 internal invariant broken (a bug in the workbench, not in the input).
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import detecting_subalgebra, gl_superalgebra
from .atypicality import atypicality, defect, theoretical_support
from .clifford import classify_block, form_from_subalgebra, simple_divisibility
from .cohomology import cohomology_dims, ext_dims, kac_ext_dims
from .config import load_config
from .errors import (
    ConstructionOverflow,
    InvariantBroken,
    SupvarError,
    Unsupported,
    WeightParseError,
)
from .modules import (
    L0_module,
    dump_module,
    kac_module,
    simple_module,
    trivial_module,
)
from .roots import format_weight, parse_weight
from .support import compare_support, empirical_support

OK, VERDICT_FAIL, PARSE_ERROR, BUDGET_EXCEEDED, INVARIANT_BROKEN = 0, 1, 2, 3, 4


def _module_from_spec(spec: str, m: int, n: int, budget: int):
    kind, _, rest = spec.partition(":")
    if kind == "trivial":
        return trivial_module(gl_superalgebra(m, n))
    if kind in ("kac", "simple", "l0"):
        if not rest:
            raise WeightParseError(f"module spec {spec!r} needs a weight after ':'")
        lam = parse_weight(m, n, rest)
        if kind == "kac":
            return kac_module(lam, budget)
        if kind == "simple":
            return simple_module(lam, budget)
        return L0_module(lam, budget)
    raise WeightParseError(f"unknown module spec {spec!r}")


def _emit(payload: dict, mode: str) -> str:
    if mode == "json":
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        else:
            lines.append(f"{prefix} = {json.dumps(value, sort_keys=True)}")

    walk("", payload)
    return "\n".join(lines)


def cmd_atyp(args, cfg) -> tuple[int, dict]:
    lam = parse_weight(args.m, args.n, args.weight)
    cert = atypicality(lam)
    return OK, {
        "m": args.m,
        "n": args.n,
        "weight": format_weight(lam),
        "defect": defect(args.m, args.n),
        "atyp": cert.value,
        "witness": [[r.i, r.j] for r in cert.witness],
    }


def cmd_support(args, cfg) -> tuple[int, dict]:
    if args.module == "kac" and args.mode != "empirical":
        raise Unsupported("--module kac needs --empirical: the closed form describes "
                          "simple modules only")
    lam = parse_weight(args.m, args.n, args.weight)
    payload = {"m": args.m, "n": args.n, "weight": format_weight(lam), "mode": args.mode}
    if args.mode == "theoretical":
        desc = theoretical_support(lam)
        payload.update(
            r=desc.r,
            subsets=[list(s) for s in desc.nonempty_subsets()],
            dim=desc.dim,
        )
        return OK, payload
    if args.mode == "empirical":
        builder = kac_module if args.module == "kac" else simple_module
        M = builder(lam, cfg.dimension_budget)
        emp = empirical_support(M)
        payload.update(
            module=args.module,
            r=emp.r,
            subsets=[list(s) for s in emp.nonempty_subsets()],
            dim=emp.dim,
            note="coordinate-subspace resolution only",
        )
        return OK, payload
    cmp = compare_support(lam, cfg.dimension_budget)
    payload.update(
        r=cmp.theoretical.r,
        match=cmp.match,
        theoretical={
            "subsets": [list(s) for s in cmp.theoretical.nonempty_subsets()],
            "dim": cmp.theoretical.dim,
        },
        empirical={
            "subsets": [list(s) for s in cmp.empirical.nonempty_subsets()],
            "dim": cmp.empirical.dim,
        },
        only_theoretical=[list(s) for s in cmp.only_theoretical],
        only_empirical=[list(s) for s in cmp.only_empirical],
    )
    return (OK if cmp.match else VERDICT_FAIL), payload


def cmd_cohom(args, cfg) -> tuple[int, dict]:
    g = gl_superalgebra(args.m, args.n)
    M = _module_from_spec(args.coeff, args.m, args.n, cfg.dimension_budget)
    dims = cohomology_dims(g, M, cfg.p_max, cfg.dimension_budget)
    return OK, {"m": args.m, "n": args.n, "coeff": args.coeff, "pmax": cfg.p_max, "dims": dims}


def cmd_ext(args, cfg) -> tuple[int, dict]:
    M = _module_from_spec(args.M, args.m, args.n, cfg.dimension_budget)
    N = _module_from_spec(args.N, args.m, args.n, cfg.dimension_budget)
    table = ext_dims(M, N, cfg.p_max, cfg.dimension_budget)
    return OK, {
        "m": args.m, "n": args.n, "M": args.M, "N": args.N,
        "pmax": cfg.p_max, "route": table.route, "dims": list(table.dims),
    }


def cmd_kacext(args, cfg) -> tuple[int, dict]:
    lam = parse_weight(args.m, args.n, args.weight)
    M = _module_from_spec(args.coeff, args.m, args.n, cfg.dimension_budget)
    table = kac_ext_dims(lam, M, cfg.p_max, cfg.dimension_budget)
    return OK, {
        "m": args.m, "n": args.n, "weight": format_weight(lam), "coeff": args.coeff,
        "pmax": cfg.p_max, "route": table.route, "dims": list(table.dims),
    }


def cmd_clifford(args, cfg) -> tuple[int, dict]:
    lam = parse_weight(args.m, args.n, args.weight)
    det = detecting_subalgebra(args.m, args.n)
    if args.gens:
        try:
            chosen = sorted({int(t) for t in args.gens.split(",")})
        except ValueError as exc:
            raise WeightParseError(f"bad generator list {args.gens!r}") from exc
        if not chosen or chosen[0] < 1 or chosen[-1] > det.r:
            raise WeightParseError(f"generator indices must lie in 1..{det.r}")
    else:
        chosen = list(range(1, det.r + 1))
    xs = [det.odd_basis[t - 1] for t in chosen]
    form = form_from_subalgebra(gl_superalgebra(args.m, args.n), xs, lam)
    cls = classify_block(form)
    accounting = (2**form.dim_c1) % cls.projective_dim == 0
    return OK, {
        "input": {
            "m": args.m, "n": args.n,
            "weight": format_weight(lam), "generators": chosen,
        },
        "dim_c1": form.dim_c1,
        "z": form.z, "n": form.n, "n_tilde": form.n_tilde,
        "simple_dim": cls.simple_dim, "type": cls.simple_type,
        "projective_dim": cls.projective_dim,
        "verdicts": {
            "simple_superdim_zero": cls.simple_superdim_zero,
            "projective_superdim_zero": cls.projective_superdim_zero,
            "projective_divides_induced": accounting,
        },
    }


def cmd_divcheck(args, cfg) -> tuple[int, dict]:
    lam = parse_weight(args.m, args.n, args.weight)
    rep = simple_divisibility(lam, cfg.dimension_budget)
    payload = {
        "m": args.m, "n": args.n, "weight": format_weight(lam),
        "r": rep.r, "atyp": rep.atyp, "dim": rep.dim, "superdim": rep.superdim,
        "divisor": rep.divisor, "divides": rep.divides,
        "superdim_ok": rep.superdim_ok, "pass": rep.passed,
    }
    return (OK if rep.passed else VERDICT_FAIL), payload


def cmd_dump(args, cfg) -> tuple[int, dict]:
    M = _module_from_spec(f"{args.module}:{args.weight}", args.m, args.n,
                          cfg.dimension_budget)
    return OK, dump_module(M)


# the run options a command may take besides --output and --config
_OPTIONS = {"pmax": {"type": int}, "budget": {"type": int, "help": "dimension budget"}}


def _add_common(parser, *options):
    """--output, --config and the named ``_OPTIONS``: those the command reads, so
    argparse rejects any other (exit 2)."""
    parser.add_argument("--output", choices=("json", "table"), default=None)
    parser.add_argument("--config", default=None, help="key=value config file")
    for name in options:
        parser.add_argument(f"--{name}", default=None, **_OPTIONS[name])


def _add_mn_weight(parser, with_weight=True):
    parser.add_argument("m", type=int)
    parser.add_argument("n", type=int)
    if with_weight:
        parser.add_argument("weight", help="a1,...,am|b1,...,bn")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a token with '|' before any '=' as a positional.

    Every weight holds '|' and no option name does, so a weight such as
    -1,-1|1,1 is not taken for an unknown option, as a '-'-led token that is
    not a plain negative number would be.  Subparsers share the class.
    """

    def _parse_optional(self, arg_string):
        if "|" in arg_string.partition("=")[0]:
            return None
        return super()._parse_optional(arg_string)


class _CommandParser(_Parser):
    """A subcommand's parser: it rejects an option it does not take under its own usage.

    Left to the top-level parser, ``unrecognized arguments`` would come with
    the usage of ``supvar`` itself, not the flags the command does take.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="supvar",
        description="Exact computations with gl(m|n) supermodules: atypicality, "
                    "support varieties, relative cohomology, Clifford block data.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = sub.add_parser("atyp", help="defect, atypicality, witness roots")
    _add_mn_weight(p)
    _add_common(p)
    p.set_defaults(func=cmd_atyp)

    p = sub.add_parser("support", help="support variety of a simple or Kac module")
    _add_mn_weight(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--empirical", dest="mode", action="store_const", const="empirical")
    group.add_argument("--theoretical", dest="mode", action="store_const", const="theoretical")
    group.add_argument("--compare", dest="mode", action="store_const", const="compare")
    p.add_argument("--module", choices=("simple", "kac"), default="simple")
    p.set_defaults(mode="compare")
    _add_common(p, "budget")
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("cohom", help="relative cohomology dimensions")
    _add_mn_weight(p, with_weight=False)
    p.add_argument("--coeff", default="trivial", help="trivial | kac:W | simple:W | l0:W")
    _add_common(p, "pmax", "budget")
    p.set_defaults(func=cmd_cohom)

    p = sub.add_parser("ext", help="Ext dimensions through the relative complex")
    _add_mn_weight(p, with_weight=False)
    p.add_argument("--M", required=True, help="module spec, e.g. kac:0|0")
    p.add_argument("--N", required=True, help="module spec, e.g. trivial")
    _add_common(p, "pmax", "budget")
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("kacext", help="Ext out of a Kac module via the layer reduction")
    _add_mn_weight(p)
    p.add_argument("--coeff", default="trivial")
    _add_common(p, "pmax", "budget")
    p.set_defaults(func=cmd_kacext)

    p = sub.add_parser("clifford", help="block data of a character on the detecting subalgebra")
    _add_mn_weight(p)
    p.add_argument("--gens", default=None, help="comma list of generator indices, default all")
    _add_common(p)
    p.set_defaults(func=cmd_clifford)

    p = sub.add_parser("divcheck", help="two-divisibility and superdimension law for L(weight)")
    _add_mn_weight(p)
    _add_common(p, "budget")
    p.set_defaults(func=cmd_divcheck)

    p = sub.add_parser("dump", help="exact action matrices of a constructed module")
    _add_mn_weight(p)
    p.add_argument("--module", choices=("kac", "simple", "l0"), default="kac")
    _add_common(p, "budget")
    p.set_defaults(func=cmd_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    opt = vars(args).get  # None for an option the command does not take
    try:
        cfg = load_config(
            args.config,
            p_max=opt("pmax"),
            dimension_budget=opt("budget"),
            output=args.output,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    try:
        if getattr(args, "m", 1) < 1 or getattr(args, "n", 1) < 1:
            raise WeightParseError("m and n must be >= 1")
        code, payload = args.func(args, cfg)
    except ConstructionOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_EXCEEDED
    except InvariantBroken as exc:
        print(f"error: internal invariant broken: {exc}", file=sys.stderr)
        return INVARIANT_BROKEN
    except SupvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    print(_emit(payload, cfg.output))
    return code


if __name__ == "__main__":
    sys.exit(main())
