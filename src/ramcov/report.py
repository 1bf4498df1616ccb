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

:meth:`ReportDocument.to_json` writes those bytes without building that
tree.  Three lists grow with the crossings: ``certificate.terms`` (three
receipts per crossing) and, in the echoed document, ``base.crossings`` and
``cover.points_above``.  Each record of these lists is written as one
formatted string, for the fixed depth at which it sits, with strings
passed through ``encode_basestring_ascii`` and ints through ``int.__repr__``,
as ``json.dumps`` does.  On a document with many crossings, a dict per
record, walked container by container, took longer than loading the
document and computing its certificate together.  :func:`render_json`
copies such a written member as it is.  The same echo writer,
:func:`render_document`, gives ``loader.dumps_document`` its bytes.

Everything else goes through :func:`render_json`: the skeleton, components,
ramification, violations and the fibration block.  It is one recursive
writer that sorts keys and indents as ``json.dumps`` does, writing strings
through ``encode_basestring_ascii``, exact ints through ``int.__repr__`` and
any other scalar through ``json.dumps``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Union

from .errors import InvalidInputError
from .invariants import BoundCertificate, InvariantReport
from .model import EulerData, Violation

__all__ = [
    "fmt_rational",
    "parse_rational",
    "ReportDocument",
    "FIBRATION_HYPOTHESES",
    "render_document",
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


def _written_crossings(crossings: list, depth: int) -> _Written:
    """A canonical document's ``base.crossings``, opened at ``depth``: one string per crossing."""
    enc = encode_basestring_ascii
    end, key, member = _newline(depth + 1), _newline(depth + 2), _newline(depth + 3)
    records = []
    for crossing in crossings:
        a, b = crossing["pair"]
        records.append(
            f'{{{key}"index": {crossing["index"]!r},'
            f'{key}"pair": [{member}{enc(a)},{member}{enc(b)}{key}]{end}}}'
        )
    return _written_list(records, depth)


def _written_points_above(points_above: dict, depth: int) -> dict:
    """The ``cover.points_above`` of a canonical document, opened at ``depth``.

    Each crossing's points become one written list, one string per point;
    :func:`render_json` writes the object around them and sorts its keys.
    """
    # Line starts of a point, of its keys, of its local data's members and,
    # for a lattice, of its generators' coordinates.
    end, key, member, coord = (_newline(depth + i) for i in range(2, 6))
    written = {}
    for index, points in points_above.items():
        records = []
        for point in points:
            local = point["local"]
            if type(local) is dict:
                local = (
                    f'{{{member}"m1": {local["m1"]!r},{member}"m2": {local["m2"]!r},'
                    f'{member}"n": {local["n"]!r},{member}"q": {local["q"]!r}{key}}}'
                )
            else:
                (x1, y1), (x2, y2) = local
                local = (
                    f"[{member}[{coord}{x1!r},{coord}{y1!r}{member}],"
                    f"{member}[{coord}{x2!r},{coord}{y2!r}{member}]{key}]"
                )
            records.append(
                f'{{{key}"j": {point["j"]!r},{key}"jp": {point["jp"]!r},'
                f'{key}"local": {local}{end}}}'
            )
        written[index] = _written_list(records, depth + 1)
    return written


def _written_document(doc: Optional[dict], depth: int) -> Optional[dict]:
    """The canonical document ``doc``, opened at ``depth``, with its per-crossing lists written."""
    if doc is None:
        return None
    base, cover = doc["base"], doc["cover"]
    return {
        "base": {**base, "crossings": _written_crossings(base["crossings"], depth + 2)},
        "cover": {
            **cover,
            "points_above": _written_points_above(cover["points_above"], depth + 2),
        },
    }


def render_document(doc: dict) -> str:
    """The ``indent=2`` JSON of a document built by ``loader.canonical_document``.

    These are the bytes of the report's ``input`` member, one level
    shallower: both come from one writer.
    """
    return render_json(_written_document(doc, 0))


@dataclass(frozen=True)
class ReportDocument:
    """Everything one invariants run produces, ready to render.

    ``invariants`` and ``certificate`` may be absent when the input is too
    broken to evaluate (the reason is then carried in ``error``); the
    validation findings are always present.  ``input_echo`` is read by the
    JSON rendering only, so a text report may leave it out.
    """

    tool_version: str
    strict: bool
    input_echo: Optional[dict]
    violations: tuple[Violation, ...]
    derived_base: EulerData
    invariants: Optional[InvariantReport]
    certificate: Optional[BoundCertificate]
    error: Optional[str] = None

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        """The JSON report as dicts and lists: its schema's one source.

        Tests hold :meth:`to_json` to ``json.dumps`` of this tree.
        """
        return self._tree(written=False)

    def _tree(self, written: bool) -> dict:
        """The report's tree; when ``written``, its per-crossing lists are written text."""
        doc: dict = {
            "tool": {"name": "ramcov", "version": self.tool_version},
            "strict": self.strict,
            "input": _written_document(self.input_echo, 1) if written else self.input_echo,
            "validation": {
                "valid": self.valid,
                "violations": [
                    {"code": v.code, "where": list(v.where), "message": v.message}
                    for v in self.violations
                ],
            },
            "derived_base": {
                "e_c_U": self.derived_base.e_c_U,
                "open_components": {k: v for k, v in self.derived_base.open_components},
                "n_crossings": self.derived_base.n_crossings,
            },
            "invariants": None,
            "certificate": None,
            "consistency": None,
            "error": self.error,
        }
        inv = self.invariants
        if inv is not None:
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
        cert = self.certificate
        if cert is not None:
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
        lines = [f"ramcov invariants report (version {self.tool_version})"]
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
        inv = self.invariants
        if inv is not None:
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
        cert = self.certificate
        if cert is not None:
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
