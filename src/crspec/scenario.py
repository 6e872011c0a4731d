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
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator

from .errors import BadRangeError, CRSpecError, ScenarioParseError, ScenarioValidationError
from .mahavier import EPSequence, ShiftSpace
from .relations import MODES, BoxRelation, FiniteRelation, check_range
from .sets import FiniteMetricSpace, Interval, IntervalSpace, validate_metric
from .specifications import InitialSpecification, Specification
from .verdicts import PROPERTIES, InitialTemplate, SpacedTemplate

# ASCII digits only: "\d" also matches every other Unicode decimal digit, which int() reads
_RATIONAL = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")

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
    specs: dict[str, Specification] = field(default_factory=dict)
    sequences: dict[str, EPSequence] = field(default_factory=dict)
    mspecs: dict[str, tuple] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)
    shift_space: ShiftSpace | None = None


def _check_digits(token: str, line: int) -> None:
    """Refuse a literal with a numerator or denominator of more than D = (L - 1) // 4
    digits, L being the most digits Python prints in an int (no cap when L is 0).

    A printed value combines at most four literals: a witness midpoint of a cell
    end c and x_j + eps, measured against another base x_k, is
    |c + x_j + eps - 2 x_k| / 2.  Its numerator and denominator stay below
    10^(4 D + 1), so they print.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() = 0 where Python has no limit
    cap = (limit - 1) // 4
    if limit and len(token) > cap and max(map(len, token.lstrip("-").split("/"))) > cap:
        raise ScenarioParseError(line, f"numeric literal of {len(token)} characters has too many digits")


def _check_seq_length(symbols: int, line: int) -> None:
    """Refuse a ``seq`` of more than S symbols (preperiod plus cycle), S being the
    largest with 2^(2S - 1) <= 10^(L - 3D): L is the most digits Python prints in
    an int and D = (L - 1) // 4 the cap of :func:`_check_digits` (no cap when L is 0).

    Every distance the shift metric returns between two such sequences then
    prints.  A trace shifts them, which only shortens their preperiods.  If
    they differ, they differ within max(p, p') + q + q' - gcd(q, q') <= 2S - 1
    positions, p and q being preperiod and cycle lengths: past the longer
    preperiod both are periodic, and two sequences of periods q and q' that
    agree on q + q' - gcd(q, q') symbols agree forever (Fine and Wilf).  Let
    m0 be that first difference.  The distance is d / (c * 2^m) at the
    position m of the largest term, with d = a/b a metric entry and c = e/f
    the diameter.  It is at least the term at m0, and that term is at least
    d' / (c * 2^m0), with d' = a'/b' the least positive entry, so
    2^(m - m0) <= d / d' = a b' / (b a').  Every literal has at most D digits,
    so the numerator a f is below 10^(2D) and the denominator divides
    b e 2^m <= e a b' 2^m0 < 10^(3D) * 2^(2S - 1) <= 10^L.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()
    cap = (10 ** (limit - 3 * ((limit - 1) // 4))).bit_length() // 2
    if limit and symbols > cap:
        raise ScenarioParseError(line, f"a seq holds at most {cap} symbols")


def _rational(token: str, line: int) -> Fraction:
    """The literal as a ``Fraction``, built from the numerator and denominator that
    ``_RATIONAL`` matched, so the text is parsed once."""
    match = _RATIONAL.match(token)
    if not match:
        raise ScenarioParseError(line, f"not an integer or fraction literal: {token!r}")
    _check_digits(token, line)
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    if not int(den):
        raise ScenarioParseError(line, f"zero denominator in {token!r}")
    return Fraction(int(num), int(den))


def _integer(token: str, line: int) -> int:
    if not re.match(r"^-?[0-9]+$", token):
        raise ScenarioParseError(line, f"not an integer literal: {token!r}")
    _check_digits(token, line)
    return int(token)


def _rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """The comment-stripped, tokenized lines that are not blank, with their numbers."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def _block(rows: Iterator[tuple[int, list[str]]], line: int) -> list[tuple[int, list[str]]]:
    """The rows up to the matching 'end' line, read from the same iterator."""
    body = []
    for lineno, tokens in rows:
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


def _fields(
    tokens: list[str], line: int, usage: str, arity: dict[str, str], optional=()
) -> dict[str, list[str]]:
    """Parse `key value [value ...]` runs into each key's values.

    ``arity`` names every key the line may give and how many values each
    takes; every key not listed in ``optional`` must be given.  A line that
    does not fit raises ScenarioParseError.
    """
    out: dict[str, list[str]] = {}
    key = None
    for tok in tokens:
        if tok in arity:
            key = tok
            if key in out:
                raise ScenarioParseError(line, f"duplicate key {key!r}")
            out[key] = []
        elif key is None:
            raise ScenarioParseError(line, f"unexpected token {tok!r}: {usage}")
        else:
            out[key].append(tok)
    for key, values in out.items():
        if not values or len(values) != _EXACT.get(arity[key], len(values)):
            raise ScenarioParseError(line, f"{key!r} needs {arity[key]}")
    if any(key not in out and key not in optional for key in arity):
        raise ScenarioParseError(line, usage)
    return out


# `mahavier words` prints every count in full, and Python prints no int of more
# than 4,300 digits; n^1000 stays within that on any space of fewer than 10^4 points.
MAX_WORD_LENGTH = 1000
# A refutation reports a table per tested value, a suite runs every instance, a
# check reports one entry per (segment, step), and a certificate tries each n0 up
# to n0max; these keep one line's time and memory bounded (see the README).
MAX_REFUTED_VALUES = 10_000
MAX_SUITE_COUNT = 10_000
MAX_SPEC_ENTRIES = 10_000
MAX_N0 = 10_000


def _count(kv: dict[str, list[str]], key: str, line: int) -> int:
    """The value of a count key (maxlen, tmax, n0max, count), which is never negative."""
    value = _integer(kv[key][0], line)
    if value < 0:
        raise ScenarioParseError(line, f"{key!r} must be non-negative")
    return value


def _eps(kv: dict[str, list[str]], line: int) -> Fraction:
    """The value of an eps key, which is never negative; eps 0 asks for exact tracing."""
    value = _rational(kv["eps"][0], line)
    if value < 0:
        raise ScenarioParseError(line, "'eps' must be non-negative")
    return value


def _segment(tokens: list[str], line: int, keys: tuple[str, ...]) -> tuple[str, list[int]]:
    """The base token and the exponents of `segment BASE KEY N ...`, keys in this order."""
    if len(tokens) != 2 + 2 * len(keys) or tokens[0] != "segment" or tuple(tokens[2::2]) != keys:
        usage = " ".join(f"{key} {key.upper()}" for key in keys)
        raise ScenarioParseError(line, f"expected 'segment BASE {usage}'")
    exponents = [_integer(token, line) for token in tokens[3::2]]
    if min(exponents) < 0:
        raise ScenarioParseError(line, "segment exponents must be non-negative")
    try:
        check_range(exponents[0], exponents[-1])
    except BadRangeError as exc:
        raise ScenarioParseError(line, str(exc)) from None
    return tokens[1], exponents


def _segments(body, line: int, keys: tuple[str, ...], tail_keys: tuple[str, ...] = ()) -> list:
    """The (base, exponents, line) of each segment row of the block headed at ``line``.

    Rows after the first take ``tail_keys`` when given.  A segment `k K l L`
    holds the steps K..L, and `l L` or `len L` the steps 0..L; a block whose
    segments hold more than MAX_SPEC_ENTRIES (segment, step) entries in all
    is refused at its head line.
    """
    segments = [
        (*_segment(seg, segline, tail_keys if idx and tail_keys else keys), segline)
        for idx, (segline, seg) in enumerate(body)
    ]
    entries = sum(exps[-1] - (exps[0] if len(exps) == 2 else 0) + 1 for _, exps, _ in segments)
    if entries > MAX_SPEC_ENTRIES:
        raise ScenarioParseError(
            line, f"a block's segments hold at most {MAX_SPEC_ENTRIES} (segment, step) entries"
        )
    return segments


def _point(token: str, line: int, relation):
    if isinstance(relation, FiniteRelation):
        idx = _integer(token, line)
        if not 0 <= idx < relation.space.n:
            raise ScenarioValidationError(line, f"point index {idx} out of range")
        return idx
    value = _rational(token, line)
    if not relation.space.contains(value):
        raise ScenarioValidationError(line, f"point {value} outside the ambient interval")
    return value


def _known(table: dict, name: str, line: int, what: str) -> None:
    if name not in table:
        raise ScenarioValidationError(line, f"unknown {what} {name!r}")


class _Builder:
    def __init__(self):
        self.ambient = None
        self.boxes: list[tuple[Interval, Interval]] = []
        self.metric_rows: list[list[Fraction]] | None = None
        self.metric_line = 0
        self.adjacency_rows: list[list[bool]] | None = None
        self.finite_size: int | None = None
        self.raw_specs: list = []
        self.raw_seqs: list = []
        self.raw_mspecs: list = []
        # (command, resolve): resolve(scenario) checks the names the command
        # refers to and returns the parameters that need the relation
        self.commands: list[tuple[Command, Callable[[Scenario], dict] | None]] = []

    # -- declaration parsing ------------------------------------------------

    def ambient_line(self, line, tokens):
        if self.ambient is not None:
            raise ScenarioParseError(line, "ambient already declared")
        if len(tokens) == 3 and tokens[0] == "interval":
            try:
                self.ambient = IntervalSpace(_rational(tokens[1], line), _rational(tokens[2], line))
            except ValueError as exc:
                raise ScenarioValidationError(line, str(exc)) from None
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
            a, b = Interval(vals[0], vals[1]), Interval(vals[2], vals[3])
        except ValueError as exc:
            raise ScenarioValidationError(line, str(exc)) from None
        # each side is ordered, so its low end against lo and its high end against hi suffice
        lo, hi = self.ambient.lo, self.ambient.hi
        if not (lo <= a.lo and a.hi <= hi and lo <= b.lo and b.hi <= hi):
            raise ScenarioValidationError(line, f"box {a} x {b} leaves the ambient space {self.ambient}")
        self.boxes.append((a, b))

    def matrix_block(self, line, tokens, body):
        if self.finite_size is None:
            raise ScenarioValidationError(line, "matrix needs a finite ambient declared first")
        if tokens not in (["metric"], ["adjacency"]):
            raise ScenarioParseError(line, "matrix kind must be 'metric' or 'adjacency'")
        n = self.finite_size
        if len(body) != n:
            raise ScenarioValidationError(line, f"matrix needs exactly {n} rows")
        if tokens == ["metric"]:
            self.metric_line = line
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
        gaps = None
        if initial:
            kv = _fields(tokens[1:], line, "ispec needs 'gaps M1 [M2 ...]'", {"gaps": SOME})
            gaps = tuple(_integer(t, line) for t in kv["gaps"])
        elif tokens[1:]:
            raise ScenarioParseError(line, "unexpected tokens after spec name")
        # an empty block is refused by Specification when build() makes it
        segments = _segments(body, line, ("l",) if initial else ("k", "l"))
        self.raw_specs.append((line, tokens[0], initial, segments, gaps))

    def seq_line(self, line, tokens):
        if not tokens:
            raise ScenarioParseError(line, "seq needs a name")
        kv = _fields(
            tokens[1:],
            line,
            "seq needs '[pre S ...] cycle S [S ...]'",
            {"pre": SOME, "cycle": SOME},
            optional=("pre",),
        )
        _check_seq_length(len(kv.get("pre", [])) + len(kv["cycle"]), line)
        pre = tuple(_integer(t, line) for t in kv.get("pre", []))
        cycle = tuple(_integer(t, line) for t in kv["cycle"])
        self.raw_seqs.append((line, tokens[0], pre, cycle))

    def mspec_block(self, line, tokens, body):
        if len(tokens) != 1:
            raise ScenarioParseError(line, "mspec needs exactly a name")
        segments = _segments(body, line, ("k", "l"))
        if not segments:
            raise ScenarioValidationError(line, "an mspec needs at least one segment")
        self.raw_mspecs.append((line, tokens[0], segments))

    # -- command parsing: each returns the parameters and their resolver -----

    def trace(self, line, tokens):
        kv = _fields(
            tokens[1:],
            line,
            "trace needs 'SPEC [y P] eps Q mode M'",
            {"y": ONE, "eps": ONE, "mode": ONE},
            optional=("y",),
        )
        mode = kv["mode"][0]
        if mode not in MODES:
            raise ScenarioParseError(line, f"mode must be one of {MODES}")
        name, y = tokens[0], kv.get("y")

        def resolve(scenario):
            _known(scenario.specs, name, line, "specification")
            return {"y": None if y is None else _point(y[0], line, scenario.relation)}

        return {"spec": name, "eps": _eps(kv, line), "mode": mode}, resolve

    def certify(self, line, tokens):
        condition, rest = (tokens[0], tokens[1:]) if tokens else (None, [])
        if condition in ("common-image", "full-image"):
            kv = _fields(rest, line, f"certify {condition} needs 'n0max N'", {"n0max": ONE})
        elif condition == "eventual-hausdorff":
            usage = "certify eventual-hausdorff needs 'eps Q n0max N'"
            kv = _fields(rest, line, usage, {"eps": ONE, "n0max": ONE})
        elif condition == "trivial-fiber":
            kv = _fields(rest, line, "certify trivial-fiber takes no parameters", {})
        else:
            raise ScenarioParseError(line, f"unknown certify condition {condition!r}")
        params = {"condition": condition}
        if "eps" in kv:
            params["eps"] = _eps(kv, line)
        if "n0max" in kv:
            params["n0max"] = _count(kv, "n0max", line)
            if params["n0max"] > MAX_N0:
                raise ScenarioParseError(line, f"'n0max' must be at most {MAX_N0}")
        return params, None

    def mahavier(self, line, tokens):
        sub, rest = (tokens[0], tokens[1:]) if tokens else (None, [])
        if sub == "words":
            kv = _fields(rest, line, "mahavier words needs 'maxlen L'", {"maxlen": ONE})
            maxlen = _count(kv, "maxlen", line)
            if maxlen > MAX_WORD_LENGTH:
                raise ScenarioParseError(line, f"'maxlen' must be at most {MAX_WORD_LENGTH}")
            return {"sub": sub, "maxlen": maxlen}, None
        if sub == "mixing":
            kv = _fields(rest, line, "mahavier mixing needs 'tmax T'", {"tmax": ONE})
            return {"sub": sub, "tmax": _count(kv, "tmax", line)}, None
        if sub == "surjectivity":
            _fields(rest, line, "mahavier surjectivity takes no parameters", {})
            return {"sub": sub}, None
        if sub != "trace":
            raise ScenarioParseError(line, f"unknown mahavier subcommand {sub!r}")
        usage = "mahavier trace needs 'MSPEC y SEQ eps Q'"
        kv = _fields(rest[1:], line, usage, {"y": ONE, "eps": ONE})
        mspec, y = rest[0], kv["y"][0]

        def resolve(scenario):
            _known(scenario.mspecs, mspec, line, "mspec")
            _known(scenario.sequences, y, line, "sequence")
            return {}

        return {"sub": sub, "mspec": mspec, "y": y, "eps": _eps(kv, line)}, resolve

    def suite(self, line, tokens):
        usage = "suite needs 'count N [seed S]'"
        kv = _fields(tokens, line, usage, {"count": ONE, "seed": ONE}, optional=("seed",))
        seed = _integer(kv["seed"][0], line) if "seed" in kv else None
        count = _count(kv, "count", line)
        if count > MAX_SUITE_COUNT:
            raise ScenarioParseError(line, f"'count' must be at most {MAX_SUITE_COUNT}")
        return {"count": count, "seed": seed}, None

    def refute(self, line, tokens, body):
        prop = tokens[0] if tokens else None
        if prop not in PROPERTIES:
            raise ScenarioParseError(line, f"refute needs a property: {', '.join(PROPERTIES)}")
        initial = PROPERTIES[prop][1] is InitialTemplate
        range_key = "gaps" if initial else "n"
        usage = f"refute {prop} needs 'eps Q {range_key} LO HI'"
        kv = _fields(tokens[1:], line, usage, {"eps": ONE, range_key: TWO})
        lo, hi = (_integer(t, line) for t in kv[range_key])
        if lo < 1 or hi < lo:
            raise ScenarioValidationError(line, "range bounds must satisfy 1 <= LO <= HI")
        if hi - lo >= MAX_REFUTED_VALUES:
            raise ScenarioParseError(line, f"a refuted range holds at most {MAX_REFUTED_VALUES} values")
        # initial: every segment 'BASE l L'; spaced: the head 'BASE k K l L', then tails 'BASE len L'
        segments = _segments(body, line, ("l",)) if initial else _segments(body, line, ("k", "l"), ("len",))
        if len(segments) < 2:
            raise ScenarioValidationError(line, "a refutation template needs two segments")

        def resolve(scenario):
            parts = [(_point(b, sl, scenario.relation), *exps) for b, exps, sl in segments]
            if initial:
                return {"template": InitialTemplate(tuple(parts))}
            return {"template": SpacedTemplate(parts[0], tuple(parts[1:]))}

        return {"property": prop, "eps": _eps(kv, line), "range": (lo, hi)}, resolve

    # -- assembly -----------------------------------------------------------

    def build(self) -> Scenario:
        if self.ambient is None:
            raise ScenarioParseError(0, "scenario declares no ambient space")
        if isinstance(self.ambient, IntervalSpace):
            if not self.boxes:
                raise ScenarioValidationError(0, "interval scenarios need at least one box")
            # box_line has checked every box against the ambient
            relation = BoxRelation(self.ambient, tuple(self.boxes))
        else:
            if self.metric_rows is None or self.adjacency_rows is None:
                raise ScenarioValidationError(
                    0, "finite scenarios need both a metric and an adjacency matrix"
                )
            space = FiniteMetricSpace(tuple(tuple(row) for row in self.metric_rows))
            check = validate_metric(space)
            if not check.ok:
                raise ScenarioValidationError(
                    self.metric_line, f"metric axiom violated: {check.axiom} at {check.witness}"
                )
            relation = FiniteRelation(
                space, tuple(tuple(row) for row in self.adjacency_rows)
            )
        scenario = Scenario(relation)

        for line, name, initial, segments, gaps in self.raw_specs:
            if name in scenario.specs:
                raise ScenarioValidationError(line, f"duplicate specification name {name!r}")
            items = [(_point(b, sl, relation), *exps) for b, exps, sl in segments]
            try:
                if initial:
                    scenario.specs[name] = InitialSpecification.build(relation, items, gaps)
                else:
                    scenario.specs[name] = Specification.build(relation, items)
            except (CRSpecError, ValueError) as exc:
                raise ScenarioValidationError(line, str(exc)) from None

        shift_lines = [row[0] for row in self.raw_seqs + self.raw_mspecs]
        shift_lines += [c.line for c, _ in self.commands if c.kind == "mahavier"]
        if shift_lines:
            if not isinstance(relation, FiniteRelation):
                raise ScenarioValidationError(
                    min(shift_lines), "shift-space declarations need a finite ambient"
                )
            scenario.shift_space = ShiftSpace(relation)
        for line, name, pre, cycle in self.raw_seqs:
            if name in scenario.sequences:
                raise ScenarioValidationError(line, f"duplicate sequence name {name!r}")
            try:
                scenario.sequences[name] = scenario.shift_space.sequence(pre, cycle)
            except ValueError as exc:
                raise ScenarioValidationError(line, str(exc)) from None
        for line, name, segments in self.raw_mspecs:
            if name in scenario.mspecs:
                raise ScenarioValidationError(line, f"duplicate mspec name {name!r}")
            resolved = []
            for seqname, (first, last), segline in segments:
                _known(scenario.sequences, seqname, segline, "sequence")
                resolved.append((scenario.sequences[seqname], first, last))
            scenario.mspecs[name] = tuple(resolved)

        for command, resolve in self.commands:
            if resolve is not None:
                command = replace(command, params={**command.params, **resolve(scenario)})
            scenario.commands.append(command)
        return scenario


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario; no command is executed."""
    builder = _Builder()
    rows = _rows(text)
    commands = {
        "trace": builder.trace,
        "certify": builder.certify,
        "refute": lambda line, tokens: builder.refute(line, tokens, _block(rows, line)),
        "mahavier": builder.mahavier,
        "suite": builder.suite,
    }
    for lineno, tokens in rows:
        keyword, rest = tokens[0], tokens[1:]
        if keyword == "ambient":
            builder.ambient_line(lineno, rest)
        elif keyword == "box":
            builder.box_line(lineno, rest)
        elif keyword == "matrix":
            builder.matrix_block(lineno, rest, _block(rows, lineno))
        elif keyword == "spec":
            builder.spec_block(lineno, rest, _block(rows, lineno), initial=False)
        elif keyword == "ispec":
            builder.spec_block(lineno, rest, _block(rows, lineno), initial=True)
        elif keyword == "seq":
            builder.seq_line(lineno, rest)
        elif keyword == "mspec":
            builder.mspec_block(lineno, rest, _block(rows, lineno))
        elif keyword in commands:
            rest, expect = _split_expect(rest, lineno)
            params, resolve = commands[keyword](lineno, rest)
            builder.commands.append((Command(lineno, keyword, params, expect), resolve))
        else:
            raise ScenarioParseError(lineno, f"unknown keyword {keyword!r}")
    return builder.build()
