"""An independent builder of the ``--json`` report as dicts, lists and scalars.

``json.dumps(tree, indent=2, sort_keys=True)`` of these trees is the oracle
the tests hold the package's JSON writer to, byte for byte.  The builder reads
the model and the certificate, names every key itself and writes each
rational with ``str``; it shares no code with the writer in ``ramcov.report``.

:func:`reference_receipts` is the eager twin of a certificate's receipts:
every row a plain tuple, named and decided as it is built.
"""

from fractions import Fraction

from ramcov import __version__
from ramcov.hj import SingularityType, resolve
from ramcov.local_cover import LatticeSubgroup, local_type
from ramcov.model import derived_euler_data
from ramcov.report import FIBRATION_HYPOTHESES


def reference_receipts(base, cover, certificate) -> tuple:
    """The rows of ``certificate``, a walk's of ``base`` and ``cover``, built one by one.

    Each component and each crossing gets its rows from the model, point by
    point, every point classified with ``local_type`` and resolved with
    ``resolve``, every verdict decided with ``Fraction``'s ``abs`` and
    ``<=``; the ``deg_det`` rows read the certificate's ``deg_det``, linear
    coefficient and fibration bound.
    """
    d = cover.degree

    def row(name, value, bound, per_degree):
        return (name, value, bound, per_degree, abs(Fraction(value)) <= Fraction(bound))

    rows = [
        row(f"branch_mult[{c.id}]", sum((s.e - 1) * s.f for s in cover.sheets_for(c.id)), d, 1)
        for c in base.components
    ]
    rows += [
        row(f"rr_diagonal_factor[{c.id}]",
            sum((Fraction((s.e - 1) ** 2 * s.f, s.e) for s in cover.sheets_for(c.id)), Fraction(0)),
            d, 1)
        for c in base.components
    ]
    for x in base.crossings:
        first, second = (cover.sheets_for(cid) for cid in x.pair)
        points = cover.points_for(x.index)
        cross, correction, s = Fraction(0), Fraction(0), 0
        for pt in points:
            lt = local_type(pt.local) if isinstance(pt.local, LatticeSubgroup) else pt.local
            cross += Fraction(2 * (first[pt.j].e - 1) * (second[pt.jp].e - 1), lt.n)
            if lt.n > 1:
                resolved = resolve(SingularityType(lt.n, lt.q))
                correction += resolved.correction
                s += len(resolved.chain.b)
        at = f"crossing {x.index}"
        rows += [
            row(f"rr_cross[{at}]", cross, 2 * d, 2),
            row(f"correction[{at}]", correction, max(d, 2 * len(points)), 2),
            row(f"exceptional_s[{at}]", s, d, 1),
        ]
    dd, c = certificate.deg_det, certificate.linear_coefficient
    rows.append(row("deg_det_vs_linear", dd, c * d, c))
    if certificate.fibration_bound is not None:
        bound = certificate.fibration_bound
        rows.append(row("deg_det_vs_fibration", dd, bound, Fraction(bound, d)))
    return tuple(rows)


def _local(local):
    if isinstance(local, LatticeSubgroup):
        return [list(local.g1), list(local.g2)]
    return {"n": local.n, "q": local.q, "m1": local.m1, "m2": local.m2}


def reference_document(base, cover) -> dict:
    """The cover document of ``base`` and ``cover``, lists in the model's order."""
    doc = {
        "base": {
            "genus_C": base.genus_C,
            "KX_sq": base.KX_sq,
            "euler_X": base.euler_X,
            "KX_dot_F": base.KX_dot_F,
            "components": [
                {"id": c.id, "genus": c.genus, "self_int": c.self_int, "KX_dot": c.KX_dot,
                 "fiber_deg": c.fiber_deg}
                for c in base.components
            ],
            "crossings": [{"index": x.index, "pair": list(x.pair)} for x in base.crossings],
        },
        "cover": {
            "degree": cover.degree,
            "ramification": {
                cid: [{"e": s.e, "f": s.f} for s in sheets] for cid, sheets in cover.ramification
            },
            "points_above": {
                str(idx): [{"j": p.j, "jp": p.jp, "local": _local(p.local)} for p in points]
                for idx, points in cover.points_above
            },
        },
    }
    if base.pair_counts:
        doc["base"]["pair_intersections"] = [
            {"pair": list(pair), "count": count} for pair, count in base.pair_counts
        ]
    return doc


def reference_report(report) -> dict:
    """The JSON report of the ``ReportDocument`` ``report``."""
    eb = derived_euler_data(report.base)
    doc = {
        "tool": {"name": "ramcov", "version": __version__},
        "strict": report.strict,
        "input": reference_document(report.base, report.cover),
        "validation": {
            "valid": not report.violations,
            "violations": [
                {"code": v.code, "where": list(v.where), "message": v.message}
                for v in report.violations
            ],
        },
        "derived_base": {
            "e_c_U": eb.e_c_U,
            "open_components": dict(eb.open_components),
            "n_crossings": eb.n_crossings,
        },
        "invariants": None,
        "certificate": None,
        "consistency": None,
        "error": report.error,
    }
    cert = report.certificate
    if cert is None:
        return doc
    inv = cert.report
    doc["invariants"] = {
        "B_mult": dict(inv.B_mult),
        "KX_dot_B": inv.KX_dot_B,
        "B_dot_F": inv.B_dot_F,
        "RR": str(inv.RR),
        "KY_sq": str(inv.KY_sq),
        "correction_total": str(inv.correction_total),
        "KYprime_sq": str(inv.KYprime_sq),
        "euler_Y": inv.euler_Y,
        "exceptional_s": inv.exceptional_s,
        "euler_Yprime": inv.euler_Yprime,
        "chi": str(inv.chi),
        "deg_det": str(inv.deg_det),
    }
    doc["consistency"] = {
        "chi_integral": inv.chi_is_integral,
        "deg_det_integral": inv.deg_det_is_integral,
    }
    fibration = None
    if cert.fibration_inputs is not None:
        given = cert.fibration_inputs
        fibration = {
            "inputs": {"gF": given.gF, "Dhor_dot_F": given.Dhor_dot_F, "gC": given.gC,
                       "nDC": given.nDC, "nS": given.nS},
            "bound": str(cert.fibration_bound),
            "deg_det_within": cert.deg_det_within_fibration,
            "assumed_hypotheses": list(FIBRATION_HYPOTHESES),
        }
    doc["certificate"] = {
        "terms": [
            {
                "name": name,
                "value": str(value),
                "bound": str(bound),
                "per_degree": str(per_degree),
                "ok": ok,
            }
            for name, value, bound, per_degree, ok in cert.receipts
        ],
        "linear_coefficient": str(cert.linear_coefficient),
        "degree": cert.degree,
        "deg_det": str(cert.deg_det),
        "deg_det_within_linear": cert.deg_det_within_linear,
        "satisfied": cert.satisfied,
        "fibration": fibration,
    }
    return doc
