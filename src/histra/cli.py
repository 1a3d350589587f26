"""Textual file formats and the command-line interface.

Automaton files are line-oriented (`#` starts a comment):

    HRA <m> <n>
    STATE <id> [INITIAL] [FINAL]
    INIT <place> <name>
    TRANS <src> <dst> ACC <X> : <X'>
    TRANS <src> <dst> RST <X>

where X and X' are comma-separated 1-based place indices, or `-` for the
empty set, and INIT puts one name in one place.  Counter-machine files:

    TRVASS|RVASS|VASS <m>
    STATE <id>
    TRANS <src> <dst> [ADD <v1> ... <vm>] (TRANSFER <i> <j> | RESET <i>)* [ADD <v1> ... <vm>]
    QUERY <q0> <v1> ... <vm> <target>

A machine's states are those on some edge, in the QUERY line, or on a
STATE line; the printer writes a STATE line only for a state that is on
no edge and not in the query.

Each TRANS line is one edge, read left to right.  A lone ADD adds its
vector, which must leave every counter non-negative; its entries may be
any integers.  Otherwise the first ADD, if it comes before everything
else, must have no positive entries and is taken away first; then the
transfers and resets act together; then the last ADD, which must have no
negative entries, is added.  `TRANSFER i j` needs 1 <= i, j <= m and
i != j, and a transfer may not pour into a counter that the same line moves
or resets.

Both readers take the header from the first line that is not blank or a
comment, then read the rest line by line, each TRANS line phase by phase.
The first fault met in that order is raised as a HistraError (ParseError,
or BadPlaceIndex for a place out of range) whose message names its line.
Faults of the whole file name no line: a missing header, other than one
INITIAL state, and what `core.validate` finds in the finished automaton.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

from .constructions import (
    complement_deterministic,
    concatenation,
    intersection,
    kleene_star,
    union,
)
from .core import (
    Accept,
    Assignment,
    Hra,
    Label,
    Reset,
    Transition,
    classify,
    membership,
    trace,
    validate,
)
from .counters import Add, CounterMachine, CTransition, Effect, Units, backward_coverability
from .errors import BadPlaceIndex, HistraError
from .oracles import bounded_emptiness
from .reductions import (
    emptiness,
    hra_to_trvass,
    nonreset_to_vass,
    restricted_hra_to_rvass,
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ParseError(HistraError):
    pass


@dataclass
class NameTable:
    """Bidirectional interning of name identifiers to integer atoms."""

    by_token: dict[str, int] = field(default_factory=dict)
    by_name: dict[int, str] = field(default_factory=dict)
    _free = 0  # not a field: every number below it is taken

    def intern(self, token: str) -> int:
        """The number of `token`; a new token takes the least free number.
        Numbers are never freed, so the search resumes where the last one
        stopped."""
        if token in self.by_token:
            return self.by_token[token]
        if not _IDENT.fullmatch(token):
            raise ParseError(f"bad name token {token!r}")
        name = self._free
        while name in self.by_name:
            name += 1
        self._free = name + 1
        self.by_token[token] = name
        self.by_name[name] = token
        return name

    def token(self, name: int) -> str:
        if name not in self.by_name:
            tok = f"n{name}"
            while tok in self.by_token:
                tok += "_"
            self.by_token[tok] = name
            self.by_name[name] = tok
        return self.by_name[name]


@dataclass
class HraDocument:
    hra: Hra
    names: NameTable


@dataclass
class CounterDocument:
    machine: CounterMachine
    query: Optional[tuple[object, tuple[int, ...], object]] = None  # (q0, v0, target)


def _lines(text: str):
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line.split()


def _ints(tokens: Sequence[str], ln: int) -> tuple[int, ...]:
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise ParseError(f"line {ln}: expected integers, got {' '.join(tokens)}") from None


def _parse_placeset(tok: str, size: int, ln: int) -> frozenset[int]:
    if tok == "-":
        return frozenset()
    out = set()
    for piece in tok.split(","):
        try:
            p = int(piece)
        except ValueError:
            raise ParseError(f"line {ln}: bad place index {piece!r}") from None
        if not 1 <= p <= size:
            raise BadPlaceIndex(f"line {ln}: place {p} out of range 1..{size}")
        out.add(p)
    return frozenset(out)


def _header(lines, heads: dict[str, int], least: int, what: str) -> tuple[str, tuple[int, ...]]:
    """The keyword and entries of the first line of `lines` (from `_lines`),
    which must be a keyword of `heads` followed by as many integers as it
    maps to, each at least `least`; `what` names the header in faults."""
    ln, toks = next(lines, (0, None))
    if toks is None:
        raise ParseError(f"missing {what} header")
    kind = toks[0].upper()
    arity = heads.get(kind)
    if arity is None:
        raise ParseError(f"line {ln}: {what} header must come first")
    if len(toks) != 1 + arity:
        raise ParseError(f"line {ln}: {kind} expects {arity} entries")
    entries = _ints(toks[1:], ln)
    if min(entries) < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ParseError(f"line {ln}: {kind} entries must be {bound}")
    return kind, entries


def _stray(ln: int, word: str, heads: dict[str, int], what: str) -> ParseError:
    """The fault of a line after the header that starts with `word`, which
    is no directive of the file: a second header, or an unknown word."""
    if word.upper() in heads:
        return ParseError(f"line {ln}: duplicate {what} header")
    return ParseError(f"line {ln}: unknown directive {word}")


_HRA = {"HRA": 2}


def parse_hra_document(text: str, names: Optional[NameTable] = None) -> HraDocument:
    names = names if names is not None else NameTable()
    lines = _lines(text)
    _, (m, n) = _header(lines, _HRA, 0, "HRA")
    states: dict[str, tuple[bool, bool]] = {}
    contents: dict[int, set[int]] = {}  # the initial assignment, by place
    transitions: list[Transition] = []
    for ln, toks in lines:
        kind = toks[0].upper()
        if kind == "STATE":
            if len(toks) < 2:
                raise ParseError(f"line {ln}: expected STATE <id> [INITIAL] [FINAL]")
            flags = [t.upper() for t in toks[2:]]
            bad = [f for f in flags if f not in ("INITIAL", "FINAL")]
            if bad:
                raise ParseError(f"line {ln}: unknown state flag {bad[0]}")
            if toks[1] in states:
                raise ParseError(f"line {ln}: duplicate state {toks[1]}")
            states[toks[1]] = ("INITIAL" in flags, "FINAL" in flags)
        elif kind == "INIT":
            if len(toks) != 3:
                raise ParseError(f"line {ln}: expected INIT <place> <name>")
            (place,) = _ints(toks[1:2], ln)
            if not 1 <= place <= m + n:
                raise BadPlaceIndex(f"line {ln}: place {place} out of range 1..{m + n}")
            try:
                contents.setdefault(place, set()).add(names.intern(toks[2]))
            except ParseError as exc:
                raise ParseError(f"line {ln}: {exc}") from None
        elif kind == "TRANS":
            if len(toks) < 4:
                raise ParseError(f"line {ln}: truncated TRANS line")
            src, dst, op = toks[1], toks[2], toks[3].upper()
            for sid in (src, dst):
                if sid not in states:
                    raise ParseError(f"line {ln}: undeclared state {sid}")
            if op == "ACC":
                if len(toks) != 7 or toks[5] != ":":
                    raise ParseError(f"line {ln}: expected TRANS <src> <dst> ACC <X> : <X'>")
                pre = _parse_placeset(toks[4], m + n, ln)
                label = Accept(pre, _parse_placeset(toks[6], m + n, ln))
            elif op == "RST":
                if len(toks) != 5:
                    raise ParseError(f"line {ln}: expected TRANS <src> <dst> RST <X>")
                label = Reset(_parse_placeset(toks[4], m + n, ln))
            else:
                raise ParseError(f"line {ln}: unknown label kind {op}")
            transitions.append(Transition(src, label, dst))
        else:
            raise _stray(ln, toks[0], _HRA, "HRA")
    initials = [s for s, (i, _) in states.items() if i]
    if len(initials) != 1:
        raise ParseError(f"expected exactly one INITIAL state, found {len(initials)}")
    a = Hra(
        m=m,
        n=n,
        states=frozenset(states),
        initial=initials[0],
        initial_assignment=Assignment.of(m + n, contents),
        transitions=frozenset(transitions),
        finals=frozenset(s for s, (_, f) in states.items() if f),
    )
    validate(a)
    return HraDocument(a, names)


def parse_hra(text: str) -> Hra:
    return parse_hra_document(text).hra


def _state_tokens(states) -> dict:
    """Deterministic printable identifiers for arbitrary state objects."""
    ordered = sorted(states, key=repr)
    toks: dict = {s: s for s in ordered if isinstance(s, str) and _IDENT.fullmatch(s)}
    used = set(toks)
    serial = 0
    for s in ordered:
        if s not in toks:
            while f"s{serial}" in used:
                serial += 1
            toks[s] = f"s{serial}"
            serial += 1
    return toks


def _fmt_set(x: frozenset[int]) -> str:
    return ",".join(str(p) for p in sorted(x)) if x else "-"


def _fmt_label(lab: Label) -> str:
    """A label as the tail of a TRANS line: `ACC X : X'` or `RST X`."""
    if isinstance(lab, Accept):
        return f"ACC {_fmt_set(lab.pre)} : {_fmt_set(lab.post)}"
    return f"RST {_fmt_set(lab.targets)}"


def print_hra(a: Hra, names: Optional[NameTable] = None) -> str:
    names = names if names is not None else NameTable()
    tok = _state_tokens(a.states)
    out = [f"HRA {a.m} {a.n}"]
    for s in sorted(a.states, key=lambda s: tok[s]):
        flags = (" INITIAL" if s == a.initial else "") + (" FINAL" if s in a.finals else "")
        out.append(f"STATE {tok[s]}{flags}")
    h0 = a.initial_assignment
    out.extend(f"INIT {place} {names.token(name)}"
               for place in range(1, a.m + a.n + 1) for name in sorted(h0.place(place)))
    out.extend(sorted(f"TRANS {tok[t.src]} {tok[t.dst]} {_fmt_label(t.label)}"
                      for t in a.transitions))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# counter-machine files


_CLASSES = {"TRVASS": 1, "RVASS": 1, "VASS": 1}


def parse_counters(text: str) -> CounterDocument:
    lines = _lines(text)
    klass, (dims,) = _header(lines, _CLASSES, 1, "machine")
    states: set = set()
    transitions: list[CTransition] = []
    query: Optional[tuple[object, tuple[int, ...], object]] = None
    effects: dict[tuple[str, ...], Effect] = {}  # one parse per distinct spelling
    shared: dict[Effect, Effect] = {}  # one object per distinct effect, as in `make`
    for ln, toks in lines:
        kind = toks[0].upper()
        if kind == "STATE":
            if len(toks) != 2:
                raise ParseError(f"line {ln}: expected STATE <id>")
            states.add(toks[1])
        elif kind == "TRANS":
            if len(toks) < 4:
                raise ParseError(f"line {ln}: truncated TRANS line")
            words = tuple(toks[3:])
            eff = effects.get(words)
            if eff is None:
                eff = _parse_effect(words, klass, dims, ln)
                eff = effects[words] = shared.setdefault(eff, eff)
            transitions.append(CTransition(toks[1], eff, toks[2]))
        elif kind == "QUERY":
            if len(toks) != 3 + dims:
                raise ParseError(f"line {ln}: QUERY expects <q0> <{dims} entries> <target>")
            if query is not None:
                raise ParseError(f"line {ln}: duplicate QUERY")
            vec = _ints(toks[2:-1], ln)
            if min(vec) < 0:
                raise ParseError(f"line {ln}: QUERY entries must be non-negative")
            query = (toks[1], vec, toks[-1])
            states.update((toks[1], toks[-1]))
        else:
            raise _stray(ln, toks[0], _CLASSES, "machine")
    # every effect is canonical already: build the machine without `make`,
    # which would validate each one a second time
    mc = CounterMachine(dims, frozenset(states), frozenset(transitions))
    return CounterDocument(mc, query)


_ARITY = {"ADD": None, "TRANSFER": 2, "RESET": 1}


def _parse_effect(toks: Sequence[str], klass: str, dims: int, ln: int) -> Effect:
    """The effect of one TRANS line from its phases (the words after the
    two states).  The words are split into phases at the keywords, and each
    phase is checked in turn: the class allows it, it has its number of
    entries, they are integers, and a move names counters 1..dims.  The
    first fault met is reported; then the phase order; then the checks of
    `Effect.canonical`."""
    split: list[tuple[str, list[str]]] = []
    for tok in toks:
        op = tok.upper()
        if op in _ARITY:
            split.append((op, []))
        elif split:
            split[-1][1].append(tok)
        else:
            raise ParseError(f"line {ln}: unknown effect {tok}")
    phases: list[tuple[str, tuple[int, ...]]] = []
    for op, args in split:
        if op == "TRANSFER" and klass != "TRVASS" or op == "RESET" and klass == "VASS":
            raise ParseError(f"line {ln}: {op} not allowed in a {klass} file")
        arity = _ARITY[op] or dims
        if len(args) != arity:
            raise ParseError(f"line {ln}: {op} expects {arity} entries")
        ints = _ints(args, ln)
        out = [i for i in ints if not 1 <= i <= dims] if op != "ADD" else ()
        if out:
            raise ParseError(f"line {ln}: counter {out[0]} out of range for {dims} dims")
        phases.append((op, ints))
    if len(phases) == 1 and phases[0][0] == "ADD":
        eff = Add(phases[0][1])
    else:
        head = tail = Add(())
        if phases[0][0] == "ADD":
            head = Add(phases.pop(0)[1])
        if phases and phases[-1][0] == "ADD":
            tail = Add(phases.pop()[1])
        if head.post or tail.pre or any(op == "ADD" for op, _ in phases):
            raise ParseError(
                f"line {ln}: out of phase: expected [ADD <no positive entries>] "
                "(TRANSFER <i> <j> | RESET <i>)* [ADD <no negative entries>]"
            )
        moves = tuple(args if op == "TRANSFER" else (args[0], 0) for op, args in phases)
        eff = Effect(head.pre, moves, tail.post)
    try:
        return eff.canonical(dims)
    except HistraError as exc:
        raise ParseError(f"line {ln}: {exc}") from None


def _print_effect(e: Effect, dims: int) -> str:
    """An effect of a `dims`-counter machine as the phases of a TRANS line:
    a lone ADD when it has no moves and no counter that it both takes from
    and adds to.  Each ADD spells its vector out over every counter."""
    def add(*signed: tuple[int, Units]) -> str:
        v = [0] * dims
        for sign, units in signed:
            for i, x in units:
                v[i - 1] += sign * x
        return "ADD " + " ".join(map(str, v))

    if not e.dest and not {i for i, _ in e.pre} & {i for i, _ in e.post}:
        return add((-1, e.pre), (1, e.post))
    phases = [add((-1, e.pre))] if e.pre else []
    phases += [f"TRANSFER {i} {j}" if j else f"RESET {i}" for i, j in e.dest]
    if e.post:
        phases.append(add((1, e.post)))
    return " ".join(phases)


def print_counters(doc: CounterDocument) -> str:
    mc = doc.machine
    klass = "VASS" if mc.is_vass() else ("RVASS" if mc.is_rvass() else "TRVASS")
    tok = _state_tokens(mc.states)
    out = [f"{klass} {mc.dims}"]
    listed = {q for t in mc.transitions for q in (t.src, t.dst)}
    if doc.query is not None:
        listed.update((doc.query[0], doc.query[2]))
    out.extend(sorted(f"STATE {tok[q]}" for q in mc.states - listed))
    out.extend(sorted(f"TRANS {tok[t.src]} {tok[t.dst]} {_print_effect(t.effect, mc.dims)}"
                      for t in mc.transitions))
    if doc.query is not None:
        q0, vec, target = doc.query
        out.append(f"QUERY {tok[q0]} {' '.join(str(x) for x in vec)} {tok[target]}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# commands


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load(path: str, names: Optional[NameTable] = None) -> HraDocument:
    return parse_hra_document(_read(path), names)


def _word(doc: HraDocument, tokens: Sequence[str]) -> tuple[int, ...]:
    try:
        return tuple(doc.names.intern(t) for t in tokens)
    except ParseError as exc:
        raise ParseError(f"word on the command line: {exc}") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_member(args) -> int:
    doc = _load(args.file)
    ok = membership(doc.hra, _word(doc, args.word))
    print(f"member: {'true' if ok else 'false'}")
    return 0 if ok else 1


def _cmd_run(args) -> int:
    doc = _load(args.file)
    word = _word(doc, args.word)
    # one search: `trace` finds no run exactly when `membership` is false
    steps = trace(doc.hra, word) if args.trace else None
    accepted = steps is not None if args.trace else membership(doc.hra, word)
    print(f"accepted: {'true' if accepted else 'false'}")
    if accepted and args.trace:
        tok = _state_tokens(doc.hra.states)
        print(f"  {tok[doc.hra.initial]}")
        for s in steps:
            letter = doc.names.token(s.letter) if s.letter is not None else "eps"
            print(f"  --[{letter}]--> {tok[s.transition.dst]} via {_fmt_label(s.transition.label)}")
    return 0 if accepted else 1


def _cmd_empty(args) -> int:
    doc = _load(args.file)
    if args.engine == "bounded":
        kind = bounded_emptiness(doc.hra, args.bound).kind
        if kind == "bound_exhausted":
            print("empty: unknown (engine: bounded, bound exhausted)")
            return 2
        is_empty, engine = kind == "empty_within_bound", "bounded"
    else:
        is_empty, engine = emptiness(doc.hra).is_empty, "restricted"
    print(f"empty: {'true' if is_empty else 'false'} (engine: {engine})")
    return 0 if is_empty else 1


# the constructions that write a new automaton file, by command or `--op`
_BUILDS = {
    "complement": complement_deterministic,
    "union": union,
    "inter": intersection,
    "concat": concatenation,
    "star": kleene_star,
}


def _cmd_build(args) -> int:
    names = NameTable()  # shared by all the input files
    docs = [_load(getattr(args, dest), names) for dest in args.inputs]
    _write(args.output, print_hra(_BUILDS[args.op](*(doc.hra for doc in docs)), names))
    print(f"wrote {args.output}")
    return 0


# the translations that write a counter-machine file, by `--target`
_TARGETS = {
    "restricted": restricted_hra_to_rvass,
    "trvass": hra_to_trvass,
    "vass": nonreset_to_vass,
}


def _cmd_to_counters(args) -> int:
    red = _TARGETS[args.target](_load(args.file).hra)
    _write(args.output, print_counters(CounterDocument(red.machine, (*red.init, red.target))))
    print(f"wrote {args.output}")
    return 0


def _cmd_cover(args) -> int:
    doc = parse_counters(_read(args.file))
    if doc.query is None:
        raise ParseError("file has no QUERY line")
    q0, v0, target = doc.query
    ok = backward_coverability(doc.machine, (q0, v0), target)
    print(f"coverable: {'true' if ok else 'false'}")
    return 0 if ok else 1


def _cmd_classify(args) -> int:
    flags = classify(_load(args.file).hra)
    print(" ".join(f"{f.name}:{str(getattr(flags, f.name)).lower()}" for f in fields(flags)))
    return 0


def _bound(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="histra", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("member", help="decide word membership")
    sp.add_argument("file")
    sp.add_argument("word", nargs="*")
    sp.set_defaults(func=_cmd_member)

    sp = sub.add_parser("run", help="run a word, optionally printing the trace")
    sp.add_argument("file")
    sp.add_argument("word", nargs="*")
    sp.add_argument("--trace", action="store_true")
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("empty", help="decide language emptiness")
    sp.add_argument("file")
    sp.add_argument("--engine", choices=["auto", "bounded"], default="auto")
    sp.add_argument("--bound", type=_bound, default=8, help="letters for --engine=bounded")
    sp.set_defaults(func=_cmd_empty)

    for command, help_text, inputs in [
        ("complement", "complement a deterministic automaton", ("file",)),
        ("product", "union or intersection of two automata", ("left", "right")),
        ("concat", "concatenation of two automata", ("left", "right")),
        ("star", "Kleene star of an automaton", ("file",)),
    ]:
        sp = sub.add_parser(command, help=help_text)
        if command == "product":
            sp.add_argument("--op", choices=["union", "inter"], required=True)
        else:
            sp.set_defaults(op=command)
        for dest in inputs:
            sp.add_argument(dest)
        sp.add_argument("-o", "--output", required=True)
        sp.set_defaults(func=_cmd_build, inputs=inputs)

    sp = sub.add_parser("to-counters", help="translate to a counter machine")
    sp.add_argument("file")
    sp.add_argument("--target", choices=_TARGETS, default="restricted",
                    help="restricted (default) is the machine `histra empty` solves")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_to_counters)

    sp = sub.add_parser("cover", help="decide coverability for a counter-machine file")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_cover)

    sp = sub.add_parser("classify", help="report subclass flags")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_classify)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HistraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted: no answer", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
