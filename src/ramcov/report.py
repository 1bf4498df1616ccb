"""Report assembly and deterministic rendering.

Reports exist in two formats: a human-readable text form and a JSON form
validating against the shipped schema.  Both are deterministic: rationals
are rendered as ``p/q`` strings (plain ``n`` when the denominator is 1),
lists are canonically ordered, and JSON keys are sorted, so identical
inputs produce byte-identical output.  Floating point appears nowhere.

The JSON form is built as a dict by :meth:`ReportDocument.to_json_dict`,
the one source of its schema, and written by :func:`render_json`, whose
bytes equal ``json.dumps(doc, indent=2, sort_keys=True)``.  That call goes
through the standard library's pure-Python encoder whenever an indent is
asked for, and a report carries a few terms per crossing, so rendering
would cost more than computing.  :func:`render_json` hands every container
whose members are all scalars (a certificate term, a lattice generator) to
the C encoder in one call, with the item separator of its depth, and
recurses in Python only through containers that hold containers.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Optional, Union

from .errors import InvalidInputError
from .invariants import BoundCertificate, InvariantReport
from .model import EulerData, Violation

__all__ = [
    "fmt_rational",
    "parse_rational",
    "ReportDocument",
    "FIBRATION_HYPOTHESES",
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
#: Exact member types that let a container go to the C encoder whole.
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _level(depth: int) -> tuple:
    """The C encoder whose item separator starts a line at ``depth``, and that line start."""
    newline = "\n" + _INDENT * depth
    encoder = c_make_encoder(
        None,  # no circular-reference markers
        json.JSONEncoder().default,
        encode_basestring_ascii,
        None,  # the C encoder ignores indent; the separator carries it
        ": ",
        "," + newline,
        True,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )
    return encoder, newline


def _render(obj, depth: int, out: list) -> None:
    """Append the ``indent=2`` JSON of the container ``obj``, opened at ``depth``."""
    is_dict = isinstance(obj, dict)
    encoder, inner = _level(depth + 1)
    outer = _level(depth)[1]
    if _SCALAR_TYPES.issuperset(map(type, obj.values() if is_dict else obj)):
        text = "".join(encoder(obj, 0))
        if obj:  # "[a,<inner>b]" -> "[<inner>a,<inner>b<outer>]"
            text = f"{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}"
        out.append(text)
        return
    scalar = _level(0)[0]
    sep = inner
    out.append("{" if is_dict else "[")
    for key, value in sorted(obj.items()) if is_dict else enumerate(obj):
        out.append(f"{sep}{encode_basestring_ascii(key)}: " if is_dict else sep)
        if isinstance(value, _CONTAINERS):
            _render(value, depth + 1, out)
        else:
            out += scalar(value, 0)
        sep = "," + inner
    out.append(outer + ("}" if is_dict else "]"))


def render_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    ``obj`` is a tree of dicts with string keys, lists, tuples and scalars.
    """
    if c_make_encoder is None:  # an interpreter without the C accelerator
        return json.dumps(obj, indent=2, sort_keys=True)
    if not isinstance(obj, _CONTAINERS):
        return "".join(_level(0)[0](obj, 0))
    out: list = []
    _render(obj, 0, out)
    return "".join(out)


@dataclass(frozen=True)
class ReportDocument:
    """Everything one invariants run produces, ready to render.

    ``invariants`` and ``certificate`` may be absent when the input is too
    broken to evaluate (the reason is then carried in ``error``); the
    validation findings are always present.
    """

    tool_version: str
    strict: bool
    input_echo: dict
    violations: tuple[Violation, ...]
    derived_base: EulerData
    invariants: Optional[InvariantReport]
    certificate: Optional[BoundCertificate]
    error: Optional[str] = None

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        doc: dict = {
            "tool": {"name": "ramcov", "version": self.tool_version},
            "strict": self.strict,
            "input": self.input_echo,
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
                "terms": [
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
        return render_json(self.to_json_dict()) + "\n"

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
