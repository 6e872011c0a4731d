"""Scenario runner: execute commands, render reports, check expectations.

Reports come in two forms: a human-readable text block per command on
stdout, and (with ``--emit``) a JSON document holding every exact distance
needed to replay each verdict through the library.  Rationals are printed
as ``p/q`` strings (plain integers when the denominator is 1); runs are
byte-identical for identical scenario text and seed.

Exit codes: 0 when every ``expect`` clause holds and no command errored,
1 on a missed expectation or a command error, 2 on parse/validation
problems, a scenario that cannot be read and a report that cannot be written.

A command error is a CRSpecError raised while the command runs, such as an
orbit that dies; it becomes the command's "error" outcome.  Any other
exception is a fault in the library, not a verdict on the scenario, so it
is not caught and ends the run with its traceback.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable

from . import verdicts
from .errors import CRSpecError, ScenarioError
from .mahavier import mixing_index
from .scenario import Scenario, parse_scenario
from .specifications import NoTracer, TraceEntry, TraceReport, check_trace, find_tracer
from .verdicts import Inconclusive, implication_suite, refute_property


@dataclass
class CommandResult:
    line: int
    kind: str
    outcome: str
    headline: str
    detail: Callable[[], list[str]]
    label: str
    data: Callable[[], dict]
    expect: str | None
    error: str | None = None

    @property
    def payload(self) -> dict:
        """The command's JSON data, built only when a JSON report is written."""
        return {**self.data(), "command": self.label, "verdict": self.outcome}

    @property
    def met(self) -> bool | None:
        if self.error is not None:
            return False
        if self.expect is None:
            return None
        return self.outcome == self.expect


@dataclass
class Report:
    scenario: str
    seed: int
    results: list[CommandResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.met is not False for r in self.results)


def _passed(ok: bool) -> str:
    return "pass" if ok else "fail"


def _worst(w: TraceEntry) -> str:
    return f"{w.distance} at (i={w.segment}, j={w.step})"


class _Table:
    """Library objects that a payload holds as one JSON list; :func:`json_text`
    writes each as one formatted row.

    ``rows(items, newline)`` returns each item's row, the text of its dict
    with its keys in sorted order, ``newline`` ending each line at the row's
    own indent; the ``_*_rows`` functions below give the dicts each reads as.
    The items are held, not copied, so each is read only as its row is written.
    """

    __slots__ = ("rows", "items")

    def __init__(self, rows: Callable[..., list[str]], items):
        self.rows, self.items = rows, items


def _report_payload(report: TraceReport) -> dict:
    worst = report.worst
    return {
        "mode": report.mode,
        "eps": str(report.eps),
        "verdict": _passed(report.passed),
        "entries": _Table(_entry_rows, report.entries),
        "worst": {
            "segment": worst.segment,
            "step": worst.step,
            "distance": str(worst.distance),
        },
    }


def _report_lines(report: TraceReport) -> list[str]:
    lines = [
        f"  (i={e.segment}, j={e.step}) power {e.tracer_power}: distance {e.distance}"
        for e in report.entries
    ]
    lines.append(f"  worst: {_worst(report.worst)}")
    return lines


# Each runner takes a command's parameters and returns the outcome, the
# command's label, the headline, a function that builds the detail lines and
# one that builds the JSON data; run() assembles them into a CommandResult.
# Only the human report calls the first and only a JSON report the second, so
# a run with --quiet builds no detail line and one without --emit no payload.
# A payload holds a report's entries, a search's failed regions and a
# certificate's per-region or per-pair evidence as tables, which json_text
# writes one formatted row per item, so none of them becomes a dict.


def _run_trace(scenario: Scenario, params: dict) -> tuple:
    spec = scenario.specs[params["spec"]]
    relation, eps, mode, y = scenario.relation, params["eps"], params["mode"], params["y"]
    label = f"trace {params['spec']} eps {eps} mode {mode}"
    if y is not None:
        report = check_trace(relation, spec, y, eps, mode)
        outcome = _passed(report.passed)
        data = lambda: {"y": str(y), **_report_payload(report)}
        return outcome, label, f"{label} y {y}: {outcome}", lambda: _report_lines(report), data
    result = find_tracer(relation, spec, eps, mode)
    if isinstance(result, NoTracer):
        headline = f"{label}: no tracer (all {len(result.failures)} regions fail)"
        detail = lambda: [
            f"  region {f.region} (rep {f.representative}): worst {_worst(f.report.worst)}"
            for f in result.failures
        ]
        data = lambda: {"regions": _Table(_region_rows, result.failures)}
        return "notracer", label, headline, detail, data
    headline = f"{label}: witness y = {result.y} in region {result.region}"
    data = lambda: {
        "y": str(result.y),
        "region": str(result.region),
        "report": _report_payload(result.report),
    }
    return "witness", label, headline, lambda: _report_lines(result.report), data


def _certificate_payload(cert) -> dict:
    payload = {"kind": cert.kind}
    if cert.n0 is not None:
        payload["n0"] = cert.n0
    if cert.eps is not None:
        payload["eps"] = str(cert.eps)
    if cert.kind == "full-image":
        payload["evidence"] = _Table(_image_rows, cert.evidence)
    elif cert.kind == "trivial-fiber":
        payload["evidence"] = {"x0": str(cert.evidence[0]), "fiber": str(cert.evidence[1])}
    else:
        name = "common_point" if cert.kind == "common-image" else "worst"
        payload["evidence"] = _Table(partial(_pair_rows, name), cert.evidence)
    return payload


def _run_certify(scenario: Scenario, params: dict) -> tuple:
    # each certifier takes the relation, then eps and n0max where it needs them; it is
    # looked up when the line runs, so a wrapper on crspec.verdicts sees the call
    keys = [key for key in ("eps", "n0max") if key in params]
    label = " ".join(["certify", params["condition"], *(f"{k} {params[k]}" for k in keys)])
    certifier = getattr(verdicts, "certify_" + params["condition"].replace("-", "_"))
    cert = certifier(scenario.relation, *(params[k] for k in keys))
    if cert is None:
        return "notfound", label, f"{label}: not found", lambda: [], lambda: {}
    x0 = [f"  x0 = {cert.evidence[0]}"] if cert.kind == "trivial-fiber" else []
    data = lambda: {"certificate": _certificate_payload(cert)}
    return "certificate", label, f"{label}: {cert}", lambda: [f"  {cert}", *x0], data


def _run_refute(scenario: Scenario, params: dict) -> tuple:
    lo, hi = params["range"]
    label = f"refute {params['property']} eps {params['eps']} over {lo}..{hi}"
    result = refute_property(
        scenario.relation,
        params["property"],
        params["eps"],
        params["template"],
        range(lo, hi + 1),
    )
    if isinstance(result, Inconclusive):
        witness = result.witness
        headline = f"{label}: inconclusive (tracer at value {result.value}: y = {witness.y})"
        data = lambda: {
            "value": result.value,
            "witness": {"y": str(witness.y), "report": _report_payload(witness.report)},
        }
        return "inconclusive", label, headline, lambda: _report_lines(witness.report), data

    def detail():
        first = result.instantiations[0]
        lines = [
            f"  value {first.value}, region {f.region}: worst {_worst(f.report.worst)}"
            for f in first.outcome.failures
        ]
        if len(result.instantiations) > 1:
            more = len(result.instantiations) - 1
            lines.append(f"  ... and {more} more instantiations, all refuted")
        return lines

    # an unsearched value's table is searched when read, and only a JSON report reads it
    data = lambda: {"instantiations": _Table(_instantiation_rows, result.instantiations)}
    return "refutation", label, f"{label}: refuted for every tested value", detail, data


# Symbols that the enumeration behind `mahavier words` may build in all.
WORD_SYMBOLS = 1 << 20


def _word_counts(scenario: Scenario, max_len: int) -> tuple[list[int], list[int]]:
    """Path counts from the adjacency matrix A, and enumerated counts to check them.

    The number of admissible words with L symbols is 1^T A^(L-1) 1; the row
    vector 1^T A^(L-1) is carried from one length to the next over the
    successor lists.  Lengths 1, 2, ... are then enumerated, each by
    ``admissible_words``, for as long as WORD_SYMBOLS bounds the symbols
    built from above.  A call for length L is charged the symbols that the
    words of lengths 1..L hold together, which is at least what it builds.
    """
    succ = scenario.relation.successors
    row = [1] * len(succ)
    expected = []
    for _ in range(max_len):
        expected.append(sum(row))
        nxt = [0] * len(succ)
        for i, paths in enumerate(row):
            for j in succ[i]:
                nxt[j] += paths
        row = nxt
    counts, call_symbols, spent = [], 0, 0
    for length, count in enumerate(expected, start=1):
        call_symbols += length * count
        spent += call_symbols
        if spent > WORD_SYMBOLS:
            break
        counts.append(len(scenario.shift_space.admissible_words(length)))
    return counts, expected


def _run_mahavier(scenario: Scenario, params: dict) -> tuple:
    sub = params["sub"]
    if sub == "words":
        counts, expected = _word_counts(scenario, params["maxlen"])
        label = f"mahavier words maxlen {params['maxlen']}"
        agree = counts == expected[: len(counts)]
        headline = f"{label}: counts {counts} {'match' if agree else 'DIFFER FROM'} matrix powers"
        detail = [f"  enumerated: {counts}", f"  matrix powers: {expected}"]
        if len(counts) < len(expected):
            headline += f" up to length {len(counts)}"
            detail.append(
                f"  enumeration stopped after length {len(counts)}: length {len(counts) + 1}"
                f" would take the words built past {WORD_SYMBOLS} symbols"
            )
        data = lambda: {"counts": counts, "matrix_counts": expected}
        return _passed(agree), label, headline, lambda: detail, data
    if sub == "mixing":
        index = mixing_index(scenario.relation, params["tmax"])
        label = f"mahavier mixing tmax {params['tmax']}"
        if index is None:
            headline = f"{label}: not primitive within {params['tmax']}"
        else:
            headline = f"{label}: primitive, index {index}"
        return _passed(index is not None), label, headline, lambda: [], lambda: {"index": index}
    if sub == "surjectivity":
        full = scenario.relation.space.full()
        p1, p2 = scenario.relation.project(1), scenario.relation.project(2)
        label = "mahavier surjectivity"
        shown = ["full" if p == full else str(p) for p in (p1, p2)]
        headline = f"{label}: p1 {shown[0]}, p2 {shown[1]}"
        data = lambda: {"p1_full": p1 == full, "p2_full": p2 == full}
        return _passed(p1 == full and p2 == full), label, headline, lambda: [], data
    spec = scenario.mspecs[params["mspec"]]
    report = scenario.shift_space.trace_check(spec, scenario.sequences[params["y"]], params["eps"])
    outcome = _passed(report.passed)
    label = f"mahavier trace {params['mspec']} y {params['y']} eps {params['eps']}"
    detail, data = lambda: _report_lines(report), lambda: _report_payload(report)
    return outcome, label, f"{label}: {outcome}", detail, data


def _run_suite(count: int, seed: int) -> tuple:
    results = implication_suite(seed, count)
    ok = all(v.ok for v in results)
    label = f"suite seed {seed} count {count}"
    detail = [
        f"  {v.name}: {v.instances} instances, {len(v.failures)} failures" for v in results
    ]
    for v in results:
        detail.extend(f"    {msg}" for msg in v.failures)
    headline = f"{label}: {'all implications hold' if ok else 'FAILURES'}"
    data = lambda: {
        "seed": seed,
        "results": [
            {"name": v.name, "instances": v.instances, "failures": list(v.failures)}
            for v in results
        ],
    }
    return _passed(ok), label, headline, lambda: detail, data


def run(scenario: Scenario, seed: int = 0, name: str = "<scenario>") -> Report:
    """Execute every command in order; never raises on domain errors."""
    runners = {
        "trace": _run_trace,
        "certify": _run_certify,
        "refute": _run_refute,
        "mahavier": _run_mahavier,
        "suite": lambda scenario, params: _run_suite(
            params["count"], seed if params["seed"] is None else params["seed"]
        ),
    }
    report = Report(name, seed)
    for command in scenario.commands:
        error = None
        try:
            outcome, label, headline, detail, data = runners[command.kind](scenario, command.params)
        except CRSpecError as exc:
            error = str(exc)
            outcome, label, detail = "error", command.kind, lambda: []
            data = lambda error=error: {"message": error}
            headline = f"{command.kind} (line {command.line}): error: {error}"
        report.results.append(
            CommandResult(
                command.line,
                command.kind,
                outcome,
                headline,
                detail,
                label,
                data,
                command.expect,
                error,
            )
        )
    return report


def render_human(report: Report) -> str:
    lines = [f"scenario {report.scenario} (seed {report.seed})", ""]
    for result in report.results:
        lines.append(f"[line {result.line}] {result.headline}")
        lines.extend(result.detail())
        if result.expect is not None:
            status = "met" if result.met else "NOT MET"
            lines.append(f"  expect {result.expect}: {status}")
        lines.append("")
    lines.append("all expectations met" if report.ok else "EXPECTATIONS FAILED")
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    doc = {
        "scenario": report.scenario,
        "seed": report.seed,
        "ok": report.ok,
        "commands": [
            {
                "line": r.line,
                "kind": r.kind,
                "outcome": r.outcome,
                "expect": r.expect,
                "met": r.met,
                **({"error": r.error} if r.error else {}),
                "data": r.payload,
            }
            for r in report.results
        ],
    }
    return json_text(doc) + "\n"


def json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, each table read as its list of dicts.

    A report holds dicts with str keys, lists, tables, str, int, bool and
    None; anything else raises TypeError.  Python's encoder falls back to
    its pure-Python code whenever ``indent`` is set, with one call and one
    joined string per value.  This writer gives the same text in one pass: it
    appends every piece to one list of strings and joins that list once.  The
    loops over a dict's items and a list's members write a scalar member in
    place, so only a nested dict, list or table costs a call, and a table is
    written one formatted row per item.
    """
    out: list[str] = []
    _write(value, "\n", out)
    return "".join(out)


_LITERALS = {None: "null", True: "true", False: "false"}


def _write(value, newline: str, out: list[str]) -> None:
    """Append the text of value to out; ``newline`` ends a line at value's own indent."""
    kind = type(value)
    if kind is dict and value:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            kind = type(item)
            # encode_basestring_ascii raises TypeError on a key that is not a str
            if kind is str:
                out += (sep, encode_basestring_ascii(key), ": ", encode_basestring_ascii(item))
            elif kind is int:
                out += (sep, encode_basestring_ascii(key), ": ", int.__repr__(item))
            elif kind is bool or item is None:
                out += (sep, encode_basestring_ascii(key), ": ", _LITERALS[item])
            else:
                out += (sep, encode_basestring_ascii(key), ": ")
                _write(item, inner, out)
            sep = "," + inner
        out += (newline, "}")
    elif kind is list and value:
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                out += (sep, encode_basestring_ascii(item))
            elif kind is int:
                out += (sep, int.__repr__(item))
            elif kind is bool or item is None:
                out += (sep, _LITERALS[item])
            else:
                out.append(sep)
                _write(item, inner, out)
            sep = "," + inner
        out += (newline, "]")
    elif kind is _Table:
        out.append(_rows_text(value.rows, value.items, newline))
    elif kind is dict or kind is list:
        out.append("{}" if kind is dict else "[]")
    elif kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is bool or value is None:
        out.append(_LITERALS[value])
    else:
        raise TypeError(f"{kind.__name__} does not belong in a report")


# Table rows.  Cell, point-set and interval-union text goes through
# encode_basestring_ascii; a Fraction, or an int point, is written as it
# stands: it prints as ``-``, digits and ``/`` only, none of which JSON escapes.


def _rows_text(rows: Callable[..., list[str]], items, newline: str) -> str:
    """The text of items as a JSON list of ``rows(items, inner)``; ``[]`` when empty."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(rows(items, inner)) + newline + "]"


def _entry_rows(entries, inner: str) -> list[str]:
    """{"distance", "power", "segment", "step"} per trace entry."""
    key = inner + '  "'
    return [
        f'{{{key}distance": "{e.distance!s}",{key}power": {e.tracer_power},'
        f'{key}segment": {e.segment},{key}step": {e.step}{inner}}}'
        for e in entries
    ]


def _region_rows(failures, inner: str) -> list[str]:
    """{"region", "report", "representative"} per failed region, the report as
    :func:`_report_payload` gives it."""
    key, at = inner + '  "', inner + "    "
    field, worst_key = at + '"', at + '  "'
    rows = []
    for f in failures:
        report = f.report
        worst = report.worst
        rows.append(
            f'{{{key}region": {encode_basestring_ascii(str(f.region))},{key}report": {{'
            f'{field}entries": {_rows_text(_entry_rows, report.entries, at)},'
            f'{field}eps": "{report.eps!s}",{field}mode": {encode_basestring_ascii(report.mode)},'
            f'{field}verdict": "{_passed(report.passed)}",{field}worst": {{'
            f'{worst_key}distance": "{worst.distance!s}",{worst_key}segment": {worst.segment},'
            f'{worst_key}step": {worst.step}{at}}}{inner}  }},'
            f'{key}representative": "{f.representative!s}"{inner}}}'
        )
    return rows


def _instantiation_rows(instantiations, inner: str) -> list[str]:
    """{"regions", "value"} per tested value, each value's table read as its row is written."""
    key, indent = inner + '  "', inner + "  "
    return [
        f'{{{key}regions": {_rows_text(_region_rows, inst.outcome.failures, indent)},'
        f'{key}value": {inst.value}{inner}}}'
        for inst in instantiations
    ]


def _pair_rows(name: str, pairs, inner: str) -> list[str]:
    """{"pair": [label, label], name: value} per region pair.

    A certificate's values are few objects, read off the relation's memos, so
    each object's text is made once, keyed by ``id``: the evidence holds every
    value while the rows are written, and ``Fraction.__hash__`` runs in Python.
    """
    key, label = inner + '  "', inner + "    "
    first = name < "pair"
    rows = []
    texts: dict[int, str] = {}
    for (la, lb), value in pairs:
        pair = (
            f'{key}pair": [{label}{encode_basestring_ascii(str(la))},'
            f'{label}{encode_basestring_ascii(str(lb))}{inner}  ]'
        )
        named = texts.get(id(value))
        if named is None:
            named = texts[id(value)] = f'{key}{name}": "{value!s}"'
        rows.append(f"{{{named},{pair}{inner}}}" if first else f"{{{pair},{named}{inner}}}")
    return rows


def _image_rows(evidence, inner: str) -> list[str]:
    """{"image", "region"} per region of a full-image certificate."""
    key = inner + '  "'
    return [
        f'{{{key}image": {encode_basestring_ascii(str(image))},'
        f'{key}region": {encode_basestring_ascii(str(label))}{inner}}}'
        for label, image in evidence
    ]


# built once: each parse_args call fills a fresh namespace, so no call sees another's flags
_PARSER = argparse.ArgumentParser(
    prog="crspec",
    description="Run a closed-relation dynamics scenario file and check its expectations.",
)
_PARSER.add_argument("--scenario", required=True, type=Path, help="scenario file to run")
_PARSER.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
_PARSER.add_argument("--emit", type=Path, help="write the machine-readable JSON report here")
_PARSER.add_argument("--quiet", action="store_true", help="suppress the human-readable report")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        text = args.scenario.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = parse_scenario(text)
    except ScenarioError as exc:
        print(f"{args.scenario}:{exc}", file=sys.stderr)
        return 2

    report = run(scenario, seed=args.seed, name=args.scenario.name)
    if not args.quiet:
        sys.stdout.write(render_human(report))
    if args.emit is not None:
        try:
            args.emit.write_text(render_json(report), encoding="utf-8")
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
