"""Declarative scenario files: spaces, relations, specifications, commands.

The format is line-oriented UTF-8 with ``#`` comments.  A scenario declares
one ambient space and one relation, optionally names specifications and
eventually periodic sequences, and then lists commands (trace / certify /
refute / mahavier / suite), each with an optional ``expect`` clause checked
at run time.

Numeric literals are integers or fractions like ``3/4``; decimal literals
are rejected so that every value in a report is exact.  Everything is parsed
and name-resolved before any command runs: a malformed line raises
ScenarioParseError with its line number, an undefined name or an invalid
metric raises ScenarioValidationError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CRSpecError, ScenarioParseError, ScenarioValidationError
from .mahavier import EPSequence, ShiftSpace
from .relations import BoxRelation, FiniteRelation
from .sets import FiniteMetricSpace, Interval, IntervalSpace, validate_metric
from .specifications import MODES, InitialSpecification, Specification
from .verdicts import INITIAL_PROPERTIES, PROPERTIES, InitialTemplate, SpacedTemplate

_RATIONAL = re.compile(r"^-?\d+(?:/\d+)?$")

EXPECTATIONS = (
    "pass",
    "fail",
    "witness",
    "notracer",
    "certificate",
    "notfound",
    "refutation",
    "inconclusive",
)


@dataclass(frozen=True)
class Command:
    """One executable scenario line (or block), with its source line."""

    line: int
    kind: str
    params: dict
    expect: str | None


@dataclass
class Scenario:
    """A fully validated scenario, ready to run."""

    relation: BoxRelation | FiniteRelation
    specs: dict[str, Specification | InitialSpecification] = field(default_factory=dict)
    sequences: dict[str, EPSequence] = field(default_factory=dict)
    mspecs: dict[str, tuple] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)
    shift_space: ShiftSpace | None = None


def _rational(token: str, line: int) -> Fraction:
    if not _RATIONAL.match(token):
        raise ScenarioParseError(line, f"not an integer or fraction literal: {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ScenarioParseError(line, f"zero denominator in {token!r}") from None


def _integer(token: str, line: int) -> int:
    if not re.match(r"^-?\d+$", token):
        raise ScenarioParseError(line, f"not an integer literal: {token!r}")
    return int(token)


class _Lines:
    """Comment-stripped, tokenized lines with one-line lookahead."""

    def __init__(self, text: str):
        self.rows = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.rows.append((lineno, body.split()))
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.rows)

    def take(self) -> tuple[int, list[str]]:
        row = self.rows[self.pos]
        self.pos += 1
        return row

    def take_block(self, line: int) -> list[tuple[int, list[str]]]:
        """Everything up to the matching 'end' line."""
        body = []
        while not self.done():
            lineno, tokens = self.take()
            if tokens == ["end"]:
                return body
            body.append((lineno, tokens))
        raise ScenarioParseError(line, "block is missing its 'end' line")


def _split_expect(tokens: list[str], line: int) -> tuple[list[str], str | None]:
    if "expect" not in tokens:
        return tokens, None
    idx = tokens.index("expect")
    rest = tokens[idx + 1 :]
    if len(rest) != 1 or rest[0] not in EXPECTATIONS:
        raise ScenarioParseError(line, f"expect needs one of {', '.join(EXPECTATIONS)}")
    return tokens[:idx], rest[0]


# How many values a key takes; each arity names itself in error messages.
ONE, TWO, SOME = "one value", "two values", "one or more values"
_EXACT = {ONE: 1, TWO: 2}


def _keyvals(tokens: list[str], line: int, arity: dict[str, str]) -> dict[str, list[str]]:
    """Parse `key value [value ...]` runs; each key takes the values its arity allows."""
    out: dict[str, list[str]] = {}
    key = None
    for tok in tokens:
        if tok in arity:
            key = tok
            if key in out:
                raise ScenarioParseError(line, f"duplicate key {key!r}")
            out[key] = []
        elif key is None:
            raise ScenarioParseError(line, f"unexpected token {tok!r}")
        else:
            out[key].append(tok)
    for key, values in out.items():
        if not values or len(values) != _EXACT.get(arity[key], len(values)):
            raise ScenarioParseError(line, f"{key!r} needs {arity[key]}")
    return out


class _Builder:
    def __init__(self):
        self.ambient = None
        self.boxes: list[tuple[Interval, Interval]] = []
        self.metric_rows: list[list[Fraction]] | None = None
        self.adjacency_rows: list[list[bool]] | None = None
        self.finite_size: int | None = None
        self.raw_specs: list = []
        self.raw_seqs: list = []
        self.raw_mspecs: list = []
        self.commands: list[Command] = []

    # -- declaration parsing ------------------------------------------------

    def ambient_line(self, line, tokens):
        if self.ambient is not None:
            raise ScenarioParseError(line, "ambient already declared")
        if len(tokens) == 3 and tokens[0] == "interval":
            lo, hi = _rational(tokens[1], line), _rational(tokens[2], line)
            if lo >= hi:
                raise ScenarioValidationError(line, "ambient interval must have positive length")
            self.ambient = IntervalSpace(lo, hi)
        elif len(tokens) == 2 and tokens[0] == "finite":
            self.finite_size = _integer(tokens[1], line)
            if self.finite_size < 1:
                raise ScenarioValidationError(line, "finite ambient needs at least one point")
            self.ambient = "finite"
        else:
            raise ScenarioParseError(line, "ambient needs 'interval LO HI' or 'finite N'")

    def box_line(self, line, tokens):
        if not isinstance(self.ambient, IntervalSpace):
            raise ScenarioValidationError(line, "box needs an interval ambient declared first")
        if len(tokens) != 4:
            raise ScenarioParseError(line, "box needs four rationals: A_LO A_HI B_LO B_HI")
        vals = [_rational(t, line) for t in tokens]
        try:
            self.boxes.append((Interval(vals[0], vals[1]), Interval(vals[2], vals[3])))
        except ValueError as exc:
            raise ScenarioValidationError(line, str(exc)) from None

    def matrix_block(self, line, tokens, body):
        if self.finite_size is None:
            raise ScenarioValidationError(line, "matrix needs a finite ambient declared first")
        if tokens not in (["metric"], ["adjacency"]):
            raise ScenarioParseError(line, "matrix kind must be 'metric' or 'adjacency'")
        n = self.finite_size
        if len(body) != n:
            raise ScenarioValidationError(line, f"matrix needs exactly {n} rows")
        if tokens == ["metric"]:
            rows = []
            for rowline, rowtokens in body:
                if len(rowtokens) != n:
                    raise ScenarioValidationError(rowline, f"metric row needs {n} entries")
                rows.append([_rational(t, rowline) for t in rowtokens])
            self.metric_rows = rows
        else:
            rows = []
            for rowline, rowtokens in body:
                if len(rowtokens) != n or any(t not in ("0", "1") for t in rowtokens):
                    raise ScenarioValidationError(rowline, f"adjacency row needs {n} entries of 0/1")
                rows.append([t == "1" for t in rowtokens])
            self.adjacency_rows = rows

    def spec_block(self, line, tokens, body, initial: bool):
        if not tokens or not re.match(r"^[A-Za-z_][\w-]*$", tokens[0]):
            raise ScenarioParseError(line, "specification needs a name")
        name = tokens[0]
        gaps = None
        if initial:
            kv = _keyvals(tokens[1:], line, {"gaps": SOME})
            if list(kv) != ["gaps"]:
                raise ScenarioParseError(line, "ispec needs 'gaps M1 [M2 ...]'")
            gaps = tuple(_integer(t, line) for t in kv["gaps"])
        elif tokens[1:]:
            raise ScenarioParseError(line, "unexpected tokens after spec name")
        segments = []
        for segline, segtokens in body:
            if segtokens[0] != "segment":
                raise ScenarioParseError(segline, "spec blocks hold 'segment ...' lines")
            kv = _keyvals(segtokens[2:], segline, {"k": ONE, "l": ONE})
            if initial:
                if list(kv) != ["l"]:
                    raise ScenarioParseError(segline, "initial segment needs 'BASE l L'")
                segments.append((segtokens[1], None, _integer(kv["l"][0], segline), segline))
            else:
                if list(kv) != ["k", "l"]:
                    raise ScenarioParseError(segline, "segment needs 'BASE k K l L'")
                segments.append(
                    (segtokens[1], _integer(kv["k"][0], segline), _integer(kv["l"][0], segline), segline)
                )
        if not segments:
            raise ScenarioValidationError(line, "a specification needs at least one segment")
        self.raw_specs.append((line, name, initial, tuple(segments), gaps))

    def seq_line(self, line, tokens):
        if not tokens:
            raise ScenarioParseError(line, "seq needs a name")
        name = tokens[0]
        kv = _keyvals(tokens[1:], line, {"pre": SOME, "cycle": SOME})
        if "cycle" not in kv:
            raise ScenarioParseError(line, "seq needs '[pre S ...] cycle S [S ...]'")
        pre = tuple(_integer(t, line) for t in kv.get("pre", []))
        cycle = tuple(_integer(t, line) for t in kv["cycle"])
        self.raw_seqs.append((line, name, pre, cycle))

    def mspec_block(self, line, tokens, body):
        if len(tokens) != 1:
            raise ScenarioParseError(line, "mspec needs exactly a name")
        segments = []
        for segline, segtokens in body:
            if segtokens[0] != "segment" or len(segtokens) != 6:
                raise ScenarioParseError(segline, "mspec segments need 'segment SEQ k K l L'")
            kv = _keyvals(segtokens[2:], segline, {"k": ONE, "l": ONE})
            if list(kv) != ["k", "l"]:
                raise ScenarioParseError(segline, "mspec segments need 'segment SEQ k K l L'")
            segments.append(
                (segtokens[1], _integer(kv["k"][0], segline), _integer(kv["l"][0], segline), segline)
            )
        if not segments:
            raise ScenarioValidationError(line, "an mspec needs at least one segment")
        self.raw_mspecs.append((line, tokens[0], tuple(segments)))

    # -- command parsing ----------------------------------------------------

    def command_line(self, line, kind, tokens):
        tokens, expect = _split_expect(tokens, line)
        self.commands.append(Command(line, kind, {"tokens": tuple(tokens)}, expect))

    def refute_block(self, line, tokens, body):
        tokens, expect = _split_expect(tokens, line)
        if not tokens or tokens[0] not in PROPERTIES:
            raise ScenarioParseError(line, f"refute needs a property: {', '.join(PROPERTIES)}")
        prop = tokens[0]
        kv = _keyvals(tokens[1:], line, {"eps": ONE, "n": TWO, "gaps": TWO})
        range_key = "gaps" if prop in INITIAL_PROPERTIES else "n"
        if set(kv) != {"eps", range_key}:
            raise ScenarioParseError(
                line, f"refute {prop} needs 'eps Q {range_key} LO HI'"
            )
        eps = _rational(kv["eps"][0], line)
        lo = _integer(kv[range_key][0], line)
        hi = _integer(kv[range_key][1], line)
        if lo < 1 or hi < lo:
            raise ScenarioValidationError(line, "range bounds must satisfy 1 <= LO <= HI")
        segments = []
        for segline, segtokens in body:
            if segtokens[0] != "segment" or len(segtokens) < 2:
                raise ScenarioParseError(segline, "refute blocks hold 'segment BASE ...' lines")
            kv_seg = _keyvals(segtokens[2:], segline, {"k": ONE, "l": ONE, "len": ONE})
            segments.append((segtokens[1], kv_seg, segline))
        if not segments:
            raise ScenarioValidationError(line, "a refutation template needs segments")
        self.commands.append(
            Command(
                line,
                "refute",
                {
                    "property": prop,
                    "eps": eps,
                    "range": (lo, hi),
                    "segments": tuple(segments),
                },
                expect,
            )
        )

    # -- assembly -----------------------------------------------------------

    def _point(self, token: str, line: int, relation):
        if isinstance(relation, FiniteRelation):
            idx = _integer(token, line)
            if not 0 <= idx < relation.space.n:
                raise ScenarioValidationError(line, f"point index {idx} out of range")
            return idx
        value = _rational(token, line)
        if not relation.space.contains(value):
            raise ScenarioValidationError(line, f"point {value} outside the ambient interval")
        return value

    def build(self) -> Scenario:
        if self.ambient is None:
            raise ScenarioParseError(0, "scenario declares no ambient space")
        if isinstance(self.ambient, IntervalSpace):
            if not self.boxes:
                raise ScenarioValidationError(0, "interval scenarios need at least one box")
            try:
                relation = BoxRelation(self.ambient, tuple(self.boxes))
            except ValueError as exc:
                raise ScenarioValidationError(0, str(exc)) from None
        else:
            if self.metric_rows is None or self.adjacency_rows is None:
                raise ScenarioValidationError(
                    0, "finite scenarios need both a metric and an adjacency matrix"
                )
            space = FiniteMetricSpace(tuple(tuple(row) for row in self.metric_rows))
            check = validate_metric(space)
            if not check.ok:
                raise ScenarioValidationError(
                    0, f"metric axiom violated: {check.axiom} at {check.witness}"
                )
            relation = FiniteRelation(
                space, tuple(tuple(row) for row in self.adjacency_rows)
            )
        scenario = Scenario(relation)

        for line, name, initial, segments, gaps in self.raw_specs:
            if name in scenario.specs:
                raise ScenarioValidationError(line, f"duplicate specification name {name!r}")
            try:
                if initial:
                    pairs = [(self._point(b, sl, relation), l) for b, _, l, sl in segments]
                    scenario.specs[name] = InitialSpecification.build(relation, pairs, gaps)
                else:
                    triples = [(self._point(b, sl, relation), k, l) for b, k, l, sl in segments]
                    scenario.specs[name] = Specification.build(relation, triples)
            except (CRSpecError, ValueError) as exc:
                raise ScenarioValidationError(line, str(exc)) from None

        if self.raw_seqs or self.raw_mspecs or any(
            c.kind == "mahavier" for c in self.commands
        ):
            if not isinstance(relation, FiniteRelation):
                raise ScenarioValidationError(
                    0, "shift-space declarations need a finite ambient"
                )
            scenario.shift_space = ShiftSpace.of(relation)
        for line, name, pre, cycle in self.raw_seqs:
            if name in scenario.sequences:
                raise ScenarioValidationError(line, f"duplicate sequence name {name!r}")
            bad = [s for s in pre + cycle if not 0 <= s < relation.space.n]
            if bad:
                raise ScenarioValidationError(line, f"symbol {bad[0]} out of range")
            try:
                scenario.sequences[name] = scenario.shift_space.sequence(pre, cycle)
            except ValueError as exc:
                raise ScenarioValidationError(line, str(exc)) from None
        for line, name, segments in self.raw_mspecs:
            if name in scenario.mspecs:
                raise ScenarioValidationError(line, f"duplicate mspec name {name!r}")
            resolved = []
            for seqname, first, last, segline in segments:
                if seqname not in scenario.sequences:
                    raise ScenarioValidationError(segline, f"unknown sequence {seqname!r}")
                if not 0 <= first <= last:
                    raise ScenarioValidationError(segline, "segment needs 0 <= k <= l")
                resolved.append((scenario.sequences[seqname], first, last))
            scenario.mspecs[name] = tuple(resolved)

        scenario.commands = [self._finish_command(c, scenario) for c in self.commands]
        return scenario

    def _finish_command(self, command: Command, scenario: Scenario) -> Command:
        relation = scenario.relation
        line = command.line
        if command.kind == "refute":
            prop = command.params["property"]
            initial = prop in INITIAL_PROPERTIES
            head = None
            tail = []
            for idx, (base_tok, kv, segline) in enumerate(command.params["segments"]):
                base = self._point(base_tok, segline, relation)
                if initial:
                    if list(kv) != ["l"]:
                        raise ScenarioParseError(segline, "initial template segments need 'BASE l L'")
                    tail.append((base, _integer(kv["l"][0], segline)))
                elif idx == 0:
                    if list(kv) != ["k", "l"]:
                        raise ScenarioParseError(segline, "the head segment needs 'BASE k K l L'")
                    head = (base, _integer(kv["k"][0], segline), _integer(kv["l"][0], segline))
                else:
                    if list(kv) != ["len"]:
                        raise ScenarioParseError(segline, "tail segments need 'BASE len L'")
                    tail.append((base, _integer(kv["len"][0], segline)))
            if initial:
                if len(tail) < 2:
                    raise ScenarioValidationError(line, "an initial template needs two segments")
                template = InitialTemplate(tuple(tail))
            else:
                if head is None or not tail:
                    raise ScenarioValidationError(line, "a spaced template needs a head and a tail")
                template = SpacedTemplate(head, tuple(tail))
            params = {
                "property": prop,
                "eps": command.params["eps"],
                "range": command.params["range"],
                "template": template,
            }
            return Command(line, "refute", params, command.expect)

        tokens = list(command.params["tokens"])
        if command.kind == "trace":
            if not tokens or tokens[0] not in scenario.specs:
                raise ScenarioValidationError(line, f"unknown specification {tokens[:1]}")
            name = tokens[0]
            kv = _keyvals(tokens[1:], line, {"y": ONE, "eps": ONE, "mode": ONE})
            if "eps" not in kv or "mode" not in kv:
                raise ScenarioParseError(line, "trace needs '[y P] eps Q mode M'")
            mode = kv["mode"][0]
            if mode not in MODES:
                raise ScenarioParseError(line, f"mode must be one of {MODES}")
            params = {
                "spec": name,
                "eps": _rational(kv["eps"][0], line),
                "mode": mode,
                "y": self._point(kv["y"][0], line, relation) if "y" in kv else None,
            }
            return Command(line, "trace", params, command.expect)
        if command.kind == "certify":
            if not tokens:
                raise ScenarioParseError(line, "certify needs a condition name")
            condition = tokens[0]
            kv = _keyvals(tokens[1:], line, {"eps": ONE, "n0max": ONE})
            if condition in ("common-image", "full-image"):
                if list(kv) != ["n0max"]:
                    raise ScenarioParseError(line, f"certify {condition} needs 'n0max N'")
                params = {"condition": condition, "n0_max": _integer(kv["n0max"][0], line)}
            elif condition == "eventual-hausdorff":
                if set(kv) != {"eps", "n0max"}:
                    raise ScenarioParseError(line, "certify eventual-hausdorff needs 'eps Q n0max N'")
                params = {
                    "condition": condition,
                    "eps": _rational(kv["eps"][0], line),
                    "n0_max": _integer(kv["n0max"][0], line),
                }
            elif condition == "trivial-fiber":
                if kv:
                    raise ScenarioParseError(line, "certify trivial-fiber takes no parameters")
                params = {"condition": condition}
            else:
                raise ScenarioParseError(line, f"unknown certify condition {condition!r}")
            return Command(line, "certify", params, command.expect)
        if command.kind == "mahavier":
            if not tokens:
                raise ScenarioParseError(line, "mahavier needs a subcommand")
            sub = tokens[0]
            kv_tokens = tokens[1:]
            if sub == "words":
                kv = _keyvals(kv_tokens, line, {"maxlen": ONE})
                if list(kv) != ["maxlen"]:
                    raise ScenarioParseError(line, "mahavier words needs 'maxlen L'")
                params = {"sub": sub, "max_len": _integer(kv["maxlen"][0], line)}
            elif sub == "mixing":
                kv = _keyvals(kv_tokens, line, {"tmax": ONE})
                if list(kv) != ["tmax"]:
                    raise ScenarioParseError(line, "mahavier mixing needs 'tmax T'")
                params = {"sub": sub, "t_max": _integer(kv["tmax"][0], line)}
            elif sub == "surjectivity":
                if kv_tokens:
                    raise ScenarioParseError(line, "mahavier surjectivity takes no parameters")
                params = {"sub": sub}
            elif sub == "trace":
                if not kv_tokens or kv_tokens[0] not in scenario.mspecs:
                    raise ScenarioValidationError(line, f"unknown mspec {kv_tokens[:1]}")
                kv = _keyvals(kv_tokens[1:], line, {"y": ONE, "eps": ONE})
                if set(kv) != {"y", "eps"}:
                    raise ScenarioParseError(line, "mahavier trace needs 'MSPEC y SEQ eps Q'")
                if kv["y"][0] not in scenario.sequences:
                    raise ScenarioValidationError(line, f"unknown sequence {kv['y'][0]!r}")
                params = {
                    "sub": sub,
                    "mspec": kv_tokens[0],
                    "y": kv["y"][0],
                    "eps": _rational(kv["eps"][0], line),
                }
            else:
                raise ScenarioParseError(line, f"unknown mahavier subcommand {sub!r}")
            return Command(line, "mahavier", params, command.expect)
        if command.kind == "suite":
            kv = _keyvals(tokens, line, {"count": ONE, "seed": ONE})
            if "count" not in kv:
                raise ScenarioParseError(line, "suite needs 'count N [seed S]'")
            params = {
                "count": _integer(kv["count"][0], line),
                "seed": _integer(kv["seed"][0], line) if "seed" in kv else None,
            }
            return Command(line, "suite", params, command.expect)
        raise ScenarioParseError(line, f"unknown command {command.kind!r}")


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario; no command is executed."""
    builder = _Builder()
    lines = _Lines(text)
    while not lines.done():
        lineno, tokens = lines.take()
        keyword, rest = tokens[0], tokens[1:]
        if keyword == "ambient":
            builder.ambient_line(lineno, rest)
        elif keyword == "box":
            builder.box_line(lineno, rest)
        elif keyword == "matrix":
            builder.matrix_block(lineno, rest, lines.take_block(lineno))
        elif keyword == "spec":
            builder.spec_block(lineno, rest, lines.take_block(lineno), initial=False)
        elif keyword == "ispec":
            builder.spec_block(lineno, rest, lines.take_block(lineno), initial=True)
        elif keyword == "seq":
            builder.seq_line(lineno, rest)
        elif keyword == "mspec":
            builder.mspec_block(lineno, rest, lines.take_block(lineno))
        elif keyword == "refute":
            builder.refute_block(lineno, rest, lines.take_block(lineno))
        elif keyword in ("trace", "certify", "mahavier", "suite"):
            builder.command_line(lineno, keyword, rest)
        else:
            raise ScenarioParseError(lineno, f"unknown keyword {keyword!r}")
    return builder.build()
