"""An independent builder of the ``--json`` report as dicts, lists and scalars.

``json.dumps(tree, indent=2, sort_keys=True)`` of these trees is the oracle
the tests hold the package's JSON writer to, byte for byte.  The builder reads
the model and the certificate and names every key itself; it shares no code
with the writer in ``ramcov.report``.
"""

from ramcov import __version__
from ramcov.local_cover import LatticeSubgroup
from ramcov.report import FIBRATION_HYPOTHESES, fmt_rational


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
    eb = report.derived_base
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
        "RR": fmt_rational(inv.RR),
        "KY_sq": fmt_rational(inv.KY_sq),
        "correction_total": fmt_rational(inv.correction_total),
        "KYprime_sq": fmt_rational(inv.KYprime_sq),
        "euler_Y": inv.euler_Y,
        "exceptional_s": inv.exceptional_s,
        "euler_Yprime": inv.euler_Yprime,
        "chi": fmt_rational(inv.chi),
        "deg_det": fmt_rational(inv.deg_det),
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
            "bound": fmt_rational(cert.fibration_bound),
            "deg_det_within": cert.deg_det_within_fibration,
            "assumed_hypotheses": list(FIBRATION_HYPOTHESES),
        }
    doc["certificate"] = {
        "terms": [
            {
                "name": name,
                "value": fmt_rational(value),
                "bound": fmt_rational(bound),
                "per_degree": fmt_rational(per_degree),
                "ok": ok,
            }
            for name, value, bound, per_degree, ok in cert.receipts
        ],
        "linear_coefficient": fmt_rational(cert.linear_coefficient),
        "degree": cert.degree,
        "deg_det": fmt_rational(cert.deg_det),
        "deg_det_within_linear": cert.deg_det_within_linear,
        "satisfied": cert.satisfied,
        "fibration": fibration,
    }
    return doc
