"""Report assembly and deterministic rendering.

Reports exist in two formats: a human-readable text form and a JSON form
whose schema is ``docs/report_schema.json``.  Both are deterministic:
rationals are written as ``p/q`` or as plain ``n`` when the
denominator is 1, lists are canonically ordered, and JSON keys are sorted,
so identical inputs produce byte-identical output.  Floating point appears
nowhere.

The JSON form has one writer, :func:`_render`.  It walks a tree of dicts,
lists, tuples and scalars, sorts keys and indents as ``json.dumps(indent=2,
sort_keys=True)`` does, and appends each piece of text to one output list,
writing strings through ``encode_basestring_ascii``, exact ints through
``int.__repr__``, ``None``, ``True`` and ``False`` as ``null``, ``true``
and ``false``, and any other scalar through ``json.dumps``.  A callable
member of the tree writes itself: the writer calls it as ``member(depth,
out)``, with the depth at which the member opens, and the member appends its
text to the same list.  :func:`render_json` joins the list;
:meth:`ReportDocument.to_json` returns it, ending in ``"\\n"``, and the CLI
writes it in bounded batches, one write per run of at most
``ramcov.cli.REPORT_BATCH`` (256) chunks joined, so neither a list that
grows with the document nor the report as a whole is joined into one
string.  Rendering ends before the first write, so a number past the
interpreter's digit limit leaves stdout empty.

The members that grow with the document write themselves, chunk by
chunk: ``certificate.terms`` (three receipts per crossing) and the echoed
``base.crossings``, one chunk per crossing; ``base.components``,
``derived_base.open_components`` and ``invariants.B_mult``, one chunk per
component; and ``cover.points_above`` and ``cover.ramification``, a key
and a shared list's text per crossing or component.  A dict per record,
walked container by container, took longer than loading the document and
computing its certificate together.  :func:`_render` is left with the
fixed skeleton around them.  The terms are the certificate's receipts, rows
of names, numbers and verdicts, which the walk stores by crossing shape and
names when they are read or written.  Each line of the text report's
certificate is one row as it is read.  Three writers format each shared
part once per render:

* ``cover.ramification`` and ``cover.points_above`` key each sheet or point
  list's text on the identity of its tuple, and the loader gives byte-equal
  lists one tuple, so a shared list is formatted once and its one string
  appended for every component or crossing with it;
* ``certificate.terms`` formats each crossing shape's three records once,
  as a template named by :meth:`~ramcov.invariants.Receipts.crossing_row`,
  and writes a crossing's three records as one string, its index spliced
  into the three names.  It alone reads the receipts' parts; every other
  reader of the rows iterates over them.

The report's ``input`` member echoes the document, read from the model:
this module is the echo's one home.  :func:`dumps_document` gives it as the
bytes of a document file and :func:`canonical_document` as those bytes
parsed back into dicts and lists.  Components, crossings, sheets, points
and raw local types are written with the model's fields as keys, in sorted
order.  The chunk writers write an int with ``format``, so an ``int``
subclass that the model's checks accept, such as an ``enum.IntEnum``
member, is written as its number, not its repr.

A record that the report writes whole, a validation finding, the fibration
inputs, and the derived base data but for its ``open_components``, is
written from its type's fields, ``__match_args__``, each field name a key.
Both writers take the derived base data from
:func:`~ramcov.model.derived_euler_data`, the value the base derived as it
was built, so a report with a certificate and one without read one source.
The certificate's numbers, a row's value, bound and per-degree factor in
``certificate.terms`` and on the text report's lines, are written with
``format`` too: a bound equal to the cover degree is the model's int, and
``str()`` of an ``enum.IntEnum`` member is its name on CPython 3.10.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import InvalidInputError
from .invariants import Receipts
from .local_cover import LatticeSubgroup
from .model import BaseGeometry, CoverDescription, derived_euler_data
from .value import Value

__all__ = [
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
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value)


def _render(obj, depth: int, out: list) -> None:
    """Append the ``indent=2`` JSON of the container ``obj``, opened at ``depth``.

    A callable member writes itself, as ``member(depth, out)`` with the depth
    at which it opens.
    """
    is_dict = isinstance(obj, dict)
    if not obj:
        out.append("{}" if is_dict else "[]")
        return
    inner = _newline(depth + 1)
    sep = inner
    out.append("{" if is_dict else "[")
    for key, value in sorted(obj.items()) if is_dict else enumerate(obj):
        out.append(f"{sep}{encode_basestring_ascii(key)}: " if is_dict else sep)
        if isinstance(value, _CONTAINERS):
            _render(value, depth + 1, out)
        elif callable(value):
            value(depth + 1, out)
        else:
            out.append(_scalar(value))
        sep = "," + inner
    out.append(_newline(depth) + ("}" if is_dict else "]"))


def render_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    ``obj`` is a tree of dicts with string keys, lists, tuples and scalars,
    and of callable members, which write themselves (see :func:`_render`).
    """
    if not isinstance(obj, _CONTAINERS):
        return _scalar(obj)
    out: list = []
    _render(obj, 0, out)
    return "".join(out)


def _write_list(records, depth: int, out: list, brackets: str = "[]") -> None:
    """Append a list opened at ``depth`` whose members are the written ``records``.

    With ``brackets="{}"`` it is an object, each record a written ``key: value``.
    """
    inner = _newline(depth + 1)
    sep = opening = brackets[0] + inner
    for record in records:
        out.append(sep + record)
        sep = "," + inner
    out.append(brackets if sep is opening else _newline(depth) + brackets[1])


def _write_terms(receipts: Receipts, depth: int, out: list) -> None:
    """``certificate.terms``, opened at ``depth``.

    The receipts keep each crossing shape's three rows once, less their
    names: each shape's rows are written once, as a template of the three
    records named by :meth:`Receipts.crossing_row` with a ``chr(0)`` where
    the index goes, and each crossing is one chunk, its index spliced into
    the three names.  Every ``head`` and ``tail`` row is one chunk.
    """
    end, key = _newline(depth + 1), _newline(depth + 2)
    verdict = ("false", "true")

    def record(name: str, value, bound, per_degree, ok) -> str:
        """The record of one row whose name, already written as JSON, is ``name``."""
        return (
            f'{{{key}"bound": "{bound}",{key}"name": {name},{key}"ok": {verdict[ok]},'
            f'{key}"per_degree": "{per_degree}",{key}"value": "{value}"{end}}}'
        )

    def records(rows):
        return (record(encode_basestring_ascii(name), *numbers) for name, *numbers in rows)

    # Per shape, the text of its three records, split where an index goes.
    templates = [
        f",{end}".join(
            record(f'"{Receipts.crossing_row(kind, chr(0))}"', *row)
            for kind, row in zip(Receipts.KINDS, rows)
        ).split(chr(0))
        for rows in receipts.shape_rows
    ]

    def chunks():
        yield from records(receipts.head)
        for index, shape in zip(receipts.indices, receipts.shapes):
            yield f"{index}".join(templates[shape])
        yield from records(receipts.tail)

    _write_list(chunks(), depth, out)


def _write_crossings(crossings, depth: int, out: list) -> None:
    """``base.crossings``, opened at ``depth``: one chunk per crossing."""
    enc = encode_basestring_ascii
    end, key, member = _newline(depth + 1), _newline(depth + 2), _newline(depth + 3)
    _write_list(
        (
            f'{{{key}"index": {x.index},'
            f'{key}"pair": [{member}{enc(x.pair[0])},{member}{enc(x.pair[1])}{key}]{end}}}'
            for x in crossings
        ),
        depth,
        out,
    )


def _write_components(components, depth: int, out: list) -> None:
    """``base.components``, opened at ``depth``: one chunk per component."""
    enc = encode_basestring_ascii
    end, key = _newline(depth + 1), _newline(depth + 2)
    _write_list(
        (
            f'{{{key}"KX_dot": {c.KX_dot},{key}"fiber_deg": {c.fiber_deg},{key}"genus": '
            f'{c.genus},{key}"id": {enc(c.id)},{key}"self_int": {c.self_int}{end}}}'
            for c in components
        ),
        depth,
        out,
    )


def _write_by_id(pairs, depth: int, out: list) -> None:
    """A ``{component id: int}`` member from its pairs in id order: one chunk per entry."""
    enc = encode_basestring_ascii
    _write_list((f"{enc(cid)}: {value}" for cid, value in pairs), depth, out, "{}")


def _write_shared_lists(entries, record, depth: int, out: list) -> None:
    """An object opened at ``depth`` whose members are lists, each distinct list written once.

    ``entries`` are ``(key, members)`` in sorted key order, each key written
    as JSON, and ``record`` writes one member of a list.  A list that
    several keys share as one tuple, as the loader gives byte-equal lists,
    is written once, and that one string is appended for each of them; the
    memo keys on the tuple's identity and lives for this one call.
    """
    inner = _newline(depth + 1)
    written: dict[int, str] = {}  # id(members) -> their list
    sep = opening = "{" + inner
    for key, members in entries:
        text = written.get(id(members))
        if text is None:
            chunks: list = []
            _write_list(map(record, members), depth + 1, chunks)
            text = written[id(members)] = "".join(chunks)
        out.append(f"{sep}{key}: ")
        out.append(text)
        sep = "," + inner
    out.append("{}" if sep is opening else _newline(depth) + "}")


def _write_ramification(ramification, depth: int, out: list) -> None:
    """``cover.ramification``, opened at ``depth``: each distinct sheet list written once."""
    enc = encode_basestring_ascii
    end, key = _newline(depth + 2), _newline(depth + 3)
    _write_shared_lists(
        ((enc(cid), sheets) for cid, sheets in ramification),
        lambda s: f'{{{key}"e": {s.e},{key}"f": {s.f}{end}}}',
        depth,
        out,
    )


def _write_points_above(points_above, depth: int, out: list) -> None:
    """``cover.points_above``, opened at ``depth``: each distinct point list written once.

    The crossings come in :func:`_render`'s order, their keys sorted as
    strings.
    """
    # Line starts of a point, of its keys, of its local data's members and,
    # for a lattice, of its generators' coordinates.
    end, key, member, coord = (_newline(depth + i) for i in range(2, 6))

    def record(point) -> str:
        local = point.local
        if isinstance(local, LatticeSubgroup):
            (x1, y1), (x2, y2) = local.g1, local.g2
            local = (
                f"[{member}[{coord}{x1},{coord}{y1}{member}],"
                f"{member}[{coord}{x2},{coord}{y2}{member}]{key}]"
            )
        else:
            local = (
                f'{{{member}"m1": {local.m1},{member}"m2": {local.m2},'
                f'{member}"n": {local.n},{member}"q": {local.q}{key}}}'
            )
        return f'{{{key}"j": {point.j},{key}"jp": {point.jp},{key}"local": {local}{end}}}'

    # Quoting keeps the order of the keys as strings: '"' sorts below every digit.
    _write_shared_lists(
        sorted([(f'"{idx}"', points) for idx, points in points_above]), record, depth, out
    )


def _echo(base: BaseGeometry, cover: CoverDescription) -> dict:
    """The document of ``base`` and ``cover``, its lists in the model's canonical order.

    Its members are the fields of ``base`` and ``cover``, named by their
    types' ``__match_args__`` as the loader reads them, but for
    ``pair_counts``, written as ``pair_intersections`` and only when it is
    not empty.  Its components, crossings, sheet lists and the points over
    each crossing are members that write themselves; each distinct sheet or
    point tuple is written once.
    """
    echo = {"base": _fields(base), "cover": _fields(cover)}
    if echo["base"].pop("pair_counts"):
        echo["base"]["pair_intersections"] = [
            {"pair": list(pair), "count": count} for pair, count in base.pair_counts
        ]
    echo["base"].update(
        components=functools.partial(_write_components, base.components),
        crossings=functools.partial(_write_crossings, base.crossings),
    )
    echo["cover"].update(
        ramification=functools.partial(_write_ramification, cover.ramification),
        points_above=functools.partial(_write_points_above, cover.points_above),
    )
    return echo


def dumps_document(base: BaseGeometry, cover: CoverDescription) -> str:
    """Serialize a document deterministically (sorted keys, two-space indent).

    These are the bytes of the report's ``input`` member, one level shallower.
    """
    return render_json(_echo(base, cover)) + "\n"


def canonical_document(base: BaseGeometry, cover: CoverDescription) -> dict:
    """The JSON form of a document, lists in the model's canonical order."""
    return json.loads(dumps_document(base, cover))


def _fields(record: Value) -> dict:
    """A record's fields by name, as its type names them."""
    return {name: getattr(record, name) for name in record.__match_args__}


def _text_term(name: str, value, bound, ok: bool) -> str:
    return f"  {name}: |{value}| <= {bound}  {'ok' if ok else 'VIOLATED'}"


class ReportDocument(Value):
    """Everything one invariants run produces, ready to render.

    ``certificate``, whose ``report`` holds the invariants, may be absent
    when the input is too broken to evaluate (the reason is then carried in
    ``error``); the validation findings are always present.  The JSON
    rendering echoes ``base`` and ``cover`` as its ``input`` member.
    """

    __slots__ = ("strict", "base", "cover", "violations", "certificate", "error")

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_json(self) -> list[str]:
        """The JSON report as chunks of text, the last ``"\\n"``: joined, they are its bytes."""
        eb = derived_euler_data(self.base)
        doc: dict = {
            "tool": {"name": "ramcov", "version": __version__},
            "strict": self.strict,
            "input": _echo(self.base, self.cover),
            "validation": {
                "valid": self.valid,
                "violations": [_fields(v) for v in self.violations],
            },
            "derived_base": {
                **_fields(eb),
                "open_components": functools.partial(_write_by_id, eb.open_components),
            },
            "invariants": None,
            "certificate": None,
            "consistency": None,
            "error": self.error,
        }
        cert = self.certificate
        if cert is not None:
            inv = cert.report
            # The certificate's deg_det is its report's, formatted once for both members.
            deg_det = str(inv.deg_det)
            doc["invariants"] = {
                "B_mult": functools.partial(_write_by_id, inv.B_mult),
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
                "deg_det": deg_det,
            }
            doc["consistency"] = {
                "chi_integral": inv.chi_is_integral,
                "deg_det_integral": inv.deg_det_is_integral,
            }
            cert_doc: dict = {
                "terms": functools.partial(_write_terms, cert.receipts),
                "linear_coefficient": str(cert.linear_coefficient),
                "degree": cert.degree,
                "deg_det": deg_det,
                "deg_det_within_linear": cert.deg_det_within_linear,
                "satisfied": cert.satisfied,
                "fibration": None,
            }
            if cert.fibration_inputs is not None:
                cert_doc["fibration"] = {
                    "inputs": _fields(cert.fibration_inputs),
                    "bound": str(cert.fibration_bound),
                    "deg_det_within": cert.deg_det_within_fibration,
                    "assumed_hypotheses": list(FIBRATION_HYPOTHESES),
                }
            doc["certificate"] = cert_doc
        out: list[str] = []
        _render(doc, 0, out)
        out.append("\n")
        return out

    def to_text(self) -> str:
        lines = [f"ramcov invariants report (version {__version__})"]
        mode = "strict" if self.strict else "standard"
        lines.append(f"validation ({mode} mode): " + ("OK" if self.valid else f"{len(self.violations)} violation(s)"))
        for v in self.violations:
            lines.append(f"  {v.code} at {', '.join(v.where)}: {v.message}")

        eb = derived_euler_data(self.base)
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
            lines.append(f"  (R,R) = {inv.RR!s}")
            lines.append(
                f"  K_Y^2 = {inv.KY_sq!s}   correction = "
                f"{inv.correction_total!s}   K_Y'^2 = {inv.KYprime_sq!s}"
            )
            lines.append(
                f"  e_c(Y) = {inv.euler_Y}   s = {inv.exceptional_s}   "
                f"e_c(Y') = {inv.euler_Yprime}"
            )
            chi_tag = "integral" if inv.chi_is_integral else "NOT integral"
            dd_tag = "integral" if inv.deg_det_is_integral else "NOT integral"
            lines.append(f"  chi = {inv.chi!s} [{chi_tag}]")
            lines.append(f"  deg_det = {inv.deg_det!s} [{dd_tag}]")
            lines.append("linear bound certificate:")
            lines += [
                _text_term(name, value, bound, ok) for name, value, bound, _, ok in cert.receipts
            ]
            lines.append(
                f"  coefficient c = {cert.linear_coefficient!s}; "
                f"|deg_det| <= c*d = {cert.linear_row[2]!s}: "
                + ("ok" if cert.deg_det_within_linear else "VIOLATED")
            )
            lines.append(f"  satisfied: {'yes' if cert.satisfied else 'no'}")
            if cert.fibration_bound is not None:
                within = cert.deg_det_within_fibration
                lines.append(
                    f"  fibration bound = {cert.fibration_bound!s}; "
                    f"|deg_det| <= bound: " + ("ok" if within else "VIOLATED")
                )
                lines.append("  assumed (caller-asserted): " + "; ".join(FIBRATION_HYPOTHESES))
        return "\n".join(lines) + "\n"
