"""Report assembly and deterministic rendering.

Reports exist in two formats: a human-readable text form and a JSON form
validating against the shipped schema.  Both are deterministic: rationals
are rendered as ``p/q`` strings (plain ``n`` when the denominator is 1),
lists are canonically ordered, and JSON keys are sorted, so identical
inputs produce byte-identical output.  Floating point appears nowhere.

The JSON form's schema has one source, :meth:`ReportDocument.to_json_dict`,
which builds the report as dicts and lists.  It is also the reference: the
tests hold :meth:`ReportDocument.to_json` to ``json.dumps(to_json_dict(),
indent=2, sort_keys=True)`` byte for byte.

The report's ``input`` member echoes the document, read from the model:
this module is the echo's one home.  :func:`canonical_document` gives it as
dicts and lists and :func:`dumps_document` as the bytes of a document file.
Components, sheets and raw local types are echoed from their dataclass
fields, which the loader's field tables name in the same order.

:meth:`ReportDocument.to_json` writes those bytes without building that
tree.  Three lists grow with the crossings: ``certificate.terms`` (three
receipts per crossing) and, in the echoed document, ``base.crossings`` and
``cover.points_above``.  Each record of these lists is written as one
formatted string, for the fixed depth at which it sits, with strings
passed through ``encode_basestring_ascii`` and ints through ``int.__repr__``,
as ``json.dumps`` does.  On a document with many crossings, a dict per
record, walked container by container, took longer than loading the
document and computing its certificate together.  :func:`render_json`
copies such a written member as it is.  :func:`dumps_document` writes the
echo the same way.

Everything else goes through :func:`render_json`: the skeleton, components,
ramification, violations and the fibration block.  It is one recursive
writer that sorts keys and indents as ``json.dumps`` does, writing strings
through ``encode_basestring_ascii``, exact ints through ``int.__repr__`` and
any other scalar through ``json.dumps``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Union

from . import __version__
from .errors import InvalidInputError
from .invariants import BoundCertificate
from .local_cover import LatticeSubgroup
from .model import BaseGeometry, CoverDescription, EulerData, Violation, derived_euler_data

__all__ = [
    "fmt_rational",
    "parse_rational",
    "ReportDocument",
    "FIBRATION_HYPOTHESES",
    "canonical_document",
    "dumps_document",
]

#: Hypotheses behind the fibration bound that the data cannot certify;
#: supplying fibration inputs asserts them, and reports echo that.
FIBRATION_HYPOTHESES = (
    "fibration is semistable with connected fibres",
    "branch divisor splits into an etale-over-C horizontal part and fibre components",
)


def fmt_rational(x: Union[Fraction, int]) -> str:
    """Render an exact rational as ``p/q``, or ``p`` when integral."""
    if type(x) is int or type(x) is Fraction:
        return str(x)  # a Fraction's str is already p/q, or p when integral
    return str(Fraction(x))


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or plain integer strings into an exact rational."""
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0], 10))
        if len(parts) == 2:
            return Fraction(int(parts[0], 10), int(parts[1], 10))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"not a rational number: {text!r} ({exc})") from None
    raise InvalidInputError(f"not a rational number: {text!r}")


_INDENT = "  "
_CONTAINERS = (dict, list, tuple)


class _Written(str):
    """JSON text already written for the depth at which it is placed."""

    __slots__ = ()


@functools.cache
def _newline(depth: int) -> str:
    """The start of a line at ``depth``."""
    return "\n" + _INDENT * depth


def _scalar(value) -> str:
    """The JSON of a scalar, as ``json.dumps`` writes it."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def _render(obj, depth: int, out: list) -> None:
    """Append the ``indent=2`` JSON of the container ``obj``, opened at ``depth``."""
    is_dict = isinstance(obj, dict)
    if not obj:
        out.append("{}" if is_dict else "[]")
        return
    inner = _newline(depth + 1)
    sep = inner
    out.append("{" if is_dict else "[")
    for key, value in sorted(obj.items()) if is_dict else enumerate(obj):
        out.append(f"{sep}{encode_basestring_ascii(key)}: " if is_dict else sep)
        if type(value) is _Written:
            out.append(value)
        elif isinstance(value, _CONTAINERS):
            _render(value, depth + 1, out)
        else:
            out.append(_scalar(value))
        sep = "," + inner
    out.append(_newline(depth) + ("}" if is_dict else "]"))


def render_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    ``obj`` is a tree of dicts with string keys, lists, tuples and scalars.
    """
    if not isinstance(obj, _CONTAINERS):
        return _scalar(obj)
    out: list = []
    _render(obj, 0, out)
    return "".join(out)


def _written_list(records: list, depth: int) -> _Written:
    """A list opened at ``depth`` whose members are the written ``records``."""
    if not records:
        return _Written("[]")
    inner = _newline(depth + 1)
    return _Written(f"[{inner}{(',' + inner).join(records)}{_newline(depth)}]")


def _written_terms(terms) -> _Written:
    """``certificate.terms``, which the report opens at depth 2: one string per term."""
    enc = encode_basestring_ascii
    end, key = _newline(3), _newline(4)
    return _written_list(
        [
            f'{{{key}"bound": {enc(fmt_rational(t.bound))},{key}"name": {enc(t.name)},'
            f'{key}"ok": {"true" if t.ok else "false"},'
            f'{key}"per_degree": {enc(fmt_rational(t.per_degree))},'
            f'{key}"value": {enc(fmt_rational(t.value))}{end}}}'
            for t in terms
        ],
        2,
    )


def _written_crossings(crossings, depth: int) -> _Written:
    """``base.crossings``, opened at ``depth``: one string per crossing."""
    enc = encode_basestring_ascii
    end, key, member = _newline(depth + 1), _newline(depth + 2), _newline(depth + 3)
    return _written_list(
        [
            f'{{{key}"index": {x.index!r},'
            f'{key}"pair": [{member}{enc(x.pair[0])},{member}{enc(x.pair[1])}{key}]{end}}}'
            for x in crossings
        ],
        depth,
    )


def _written_points(points, depth: int) -> _Written:
    """The points over one crossing, opened at ``depth``: one string per point."""
    # Line starts of a point, of its keys, of its local data's members and,
    # for a lattice, of its generators' coordinates.
    end, key, member, coord = (_newline(depth + i) for i in range(1, 5))
    records = []
    for point in points:
        local = point.local
        if isinstance(local, LatticeSubgroup):
            (x1, y1), (x2, y2) = local.g1, local.g2
            local = (
                f"[{member}[{coord}{x1!r},{coord}{y1!r}{member}],"
                f"{member}[{coord}{x2!r},{coord}{y2!r}{member}]{key}]"
            )
        else:
            local = (
                f'{{{member}"m1": {local.m1!r},{member}"m2": {local.m2!r},'
                f'{member}"n": {local.n!r},{member}"q": {local.q!r}{key}}}'
            )
        records.append(
            f'{{{key}"j": {point.j!r},{key}"jp": {point.jp!r},{key}"local": {local}{end}}}'
        )
    return _written_list(records, depth)


def _record(record) -> dict:
    """A record whose fields are plain values, as a JSON object of those fields."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _point(point) -> dict:
    local = point.local
    if isinstance(local, LatticeSubgroup):
        local = [list(local.g1), list(local.g2)]
    else:
        local = _record(local)
    return {"j": point.j, "jp": point.jp, "local": local}


def _echo(base: BaseGeometry, cover: CoverDescription, depth: int, written: bool) -> dict:
    """The document of ``base`` and ``cover``, its lists in the model's canonical order.

    When ``written``, its crossings and the points over each are written
    text, for the document opened at ``depth``; otherwise they are dicts.
    """
    if written:
        crossings = _written_crossings(base.crossings, depth + 2)
        points_above = {
            str(idx): _written_points(points, depth + 3) for idx, points in cover.points_above
        }
    else:
        crossings = [{"index": x.index, "pair": list(x.pair)} for x in base.crossings]
        points_above = {
            str(idx): [_point(p) for p in points] for idx, points in cover.points_above
        }
    doc: dict = {
        "base": {
            "genus_C": base.genus_C,
            "KX_sq": base.KX_sq,
            "euler_X": base.euler_X,
            "KX_dot_F": base.KX_dot_F,
            "components": [_record(c) for c in base.components],
            "crossings": crossings,
        },
        "cover": {
            "degree": cover.degree,
            "ramification": {
                cid: [_record(s) for s in sheets] for cid, sheets in cover.ramification
            },
            "points_above": points_above,
        },
    }
    if base.pair_counts:
        doc["base"]["pair_intersections"] = [
            {"pair": list(pair), "count": count} for pair, count in base.pair_counts
        ]
    return doc


def canonical_document(base: BaseGeometry, cover: CoverDescription) -> dict:
    """Rebuild the JSON form of a document, lists in the model's canonical order."""
    return _echo(base, cover, 0, written=False)


def dumps_document(base: BaseGeometry, cover: CoverDescription) -> str:
    """Serialize a document deterministically (sorted keys, two-space indent).

    These are the bytes of the report's ``input`` member, one level shallower.
    """
    return render_json(_echo(base, cover, 0, written=True)) + "\n"


@dataclass(frozen=True)
class ReportDocument:
    """Everything one invariants run produces, ready to render.

    ``certificate``, whose ``report`` holds the invariants, may be absent
    when the input is too broken to evaluate (the reason is then carried in
    ``error``); the validation findings are always present.  The JSON
    rendering echoes ``base`` and ``cover`` as its ``input`` member.
    """

    strict: bool
    base: BaseGeometry
    cover: CoverDescription
    violations: tuple[Violation, ...]
    certificate: Optional[BoundCertificate]
    error: Optional[str] = None

    @property
    def valid(self) -> bool:
        return not self.violations

    @property
    def derived_base(self) -> EulerData:
        return derived_euler_data(self.base)

    def to_json_dict(self) -> dict:
        """The JSON report as dicts and lists: its schema's one source.

        Tests hold :meth:`to_json` to ``json.dumps`` of this tree.
        """
        return self._tree(written=False)

    def _tree(self, written: bool) -> dict:
        """The report's tree; when ``written``, its per-crossing lists are written text."""
        eb = self.derived_base
        doc: dict = {
            "tool": {"name": "ramcov", "version": __version__},
            "strict": self.strict,
            "input": _echo(self.base, self.cover, 1, written),
            "validation": {
                "valid": self.valid,
                "violations": [
                    {"code": v.code, "where": list(v.where), "message": v.message}
                    for v in self.violations
                ],
            },
            "derived_base": {
                "e_c_U": eb.e_c_U,
                "open_components": {k: v for k, v in eb.open_components},
                "n_crossings": eb.n_crossings,
            },
            "invariants": None,
            "certificate": None,
            "consistency": None,
            "error": self.error,
        }
        cert = self.certificate
        if cert is not None:
            inv = cert.report
            doc["invariants"] = {
                "B_mult": {k: v for k, v in inv.B_mult},
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
            cert_doc: dict = {
                "terms": _written_terms(cert.terms) if written else [
                    {
                        "name": t.name,
                        "value": fmt_rational(t.value),
                        "bound": fmt_rational(t.bound),
                        "per_degree": fmt_rational(t.per_degree),
                        "ok": t.ok,
                    }
                    for t in cert.terms
                ],
                "linear_coefficient": fmt_rational(cert.linear_coefficient),
                "degree": cert.degree,
                "deg_det": fmt_rational(cert.deg_det),
                "deg_det_within_linear": cert.deg_det_within_linear,
                "satisfied": cert.satisfied,
                "fibration": None,
            }
            if cert.fibration_inputs is not None:
                fi = cert.fibration_inputs
                cert_doc["fibration"] = {
                    "inputs": {
                        "gF": fi.gF,
                        "Dhor_dot_F": fi.Dhor_dot_F,
                        "gC": fi.gC,
                        "nDC": fi.nDC,
                        "nS": fi.nS,
                    },
                    "bound": fmt_rational(cert.fibration_bound),
                    "deg_det_within": cert.deg_det_within_fibration,
                    "assumed_hypotheses": list(FIBRATION_HYPOTHESES),
                }
            doc["certificate"] = cert_doc
        return doc

    def to_json(self) -> str:
        return render_json(self._tree(written=True)) + "\n"

    def to_text(self) -> str:
        lines = [f"ramcov invariants report (version {__version__})"]
        mode = "strict" if self.strict else "standard"
        lines.append(f"validation ({mode} mode): " + ("OK" if self.valid else f"{len(self.violations)} violation(s)"))
        for v in self.violations:
            lines.append(f"  {v.code} at {', '.join(v.where)}: {v.message}")

        eb = self.derived_base
        lines.append("derived base data:")
        lines.append(f"  e_c(complement of D) = {eb.e_c_U}")
        for cid, val in eb.open_components:
            lines.append(f"  e_c({cid} minus crossings) = {val}")
        lines.append(f"  crossings = {eb.n_crossings}")

        if self.error is not None:
            lines.append(f"invariants: not computed ({self.error})")
        cert = self.certificate
        if cert is not None:
            inv = cert.report
            lines.append("invariants:")
            bm = ", ".join(f"{k}: {v}" for k, v in inv.B_mult)
            lines.append(f"  branch multiplicities: {bm}")
            lines.append(f"  (K_X . B) = {inv.KX_dot_B}   (B . F) = {inv.B_dot_F}")
            lines.append(f"  (R,R) = {fmt_rational(inv.RR)}")
            lines.append(
                f"  K_Y^2 = {fmt_rational(inv.KY_sq)}   correction = "
                f"{fmt_rational(inv.correction_total)}   K_Y'^2 = {fmt_rational(inv.KYprime_sq)}"
            )
            lines.append(
                f"  e_c(Y) = {inv.euler_Y}   s = {inv.exceptional_s}   "
                f"e_c(Y') = {inv.euler_Yprime}"
            )
            chi_tag = "integral" if inv.chi_is_integral else "NOT integral"
            dd_tag = "integral" if inv.deg_det_is_integral else "NOT integral"
            lines.append(f"  chi = {fmt_rational(inv.chi)} [{chi_tag}]")
            lines.append(f"  deg_det = {fmt_rational(inv.deg_det)} [{dd_tag}]")
            lines.append("linear bound certificate:")
            for t in cert.terms:
                flag = "ok" if t.ok else "VIOLATED"
                lines.append(
                    f"  {t.name}: |{fmt_rational(t.value)}| <= {fmt_rational(t.bound)}  {flag}"
                )
            lines.append(
                f"  coefficient c = {fmt_rational(cert.linear_coefficient)}; "
                f"|deg_det| <= c*d = {fmt_rational(cert.linear_coefficient * cert.degree)}: "
                + ("ok" if cert.deg_det_within_linear else "VIOLATED")
            )
            lines.append(f"  satisfied: {'yes' if cert.satisfied else 'no'}")
            if cert.fibration_bound is not None:
                within = cert.deg_det_within_fibration
                lines.append(
                    f"  fibration bound = {fmt_rational(cert.fibration_bound)}; "
                    f"|deg_det| <= bound: " + ("ok" if within else "VIOLATED")
                )
                lines.append("  assumed (caller-asserted): " + "; ".join(FIBRATION_HYPOTHESES))
        return "\n".join(lines) + "\n"
