"""File formats and the command-line entry points."""

from pathlib import Path

import pytest

from histra import (
    Add,
    BadPlaceIndex,
    CounterMachine,
    Effect,
    HistraError,
    NonUnitEffect,
    SelfTransfer,
    Transfer,
    apply_effect,
    backward_coverability,
    classify,
    colouring_scope_ok,
    emptiness,
    hra_to_trvass,
    kleene_star,
    membership,
    nonreset_to_vass,
    registers_to_histories,
    restricted_hra_to_rvass,
    rvass_to_hra,
    trace,
    union,
)
from histra.cli import (
    CounterDocument,
    NameTable,
    ParseError,
    _state_tokens,
    main,
    parse_counters,
    parse_hra,
    parse_hra_document,
    print_counters,
    print_hra,
)
from histra.oracles import enumerate_words, random_counter_machine, random_hra
from histra.zoo import generate_then_consume_hra, two_tracks_hra

DISTINCT = """\
HRA 1 0
STATE q INITIAL FINAL
TRANS q q ACC - : 1
"""

# two histories that both take fresh names: a nondeterministic choice per
# letter, which a walk keeping every name doubles on each distinct letter
TWOFOLD = """\
HRA 2 0
STATE q INITIAL FINAL
TRANS q q ACC - : 1
TRANS q q ACC - : 2
"""

CONSUME = """\
# names are produced fresh, then eaten one by one
HRA 1 0
STATE p INITIAL
STATE f FINAL
TRANS p p ACC - : 1
TRANS p f ACC 1 : -
TRANS f f ACC 1 : -
"""

PINNED = """\
HRA 1 1
STATE q INITIAL FINAL
INIT 2 x
TRANS q q ACC 2 : 2
"""

ONE_FRESH = """\
HRA 1 0
STATE p INITIAL
STATE f FINAL
TRANS p f ACC - : 1
"""

TWO_FRESH = """\
HRA 1 0
STATE p INITIAL
STATE q
STATE f FINAL
TRANS p q ACC - : 1
TRANS q f ACC - : 1
"""

NEVER_ACCEPTS = """\
HRA 1 0
STATE p INITIAL
STATE f FINAL
TRANS p p ACC - : 1
"""

TRVASS_FILE = """\
TRVASS 2
TRANS a b ADD 1 0
TRANS b a TRANSFER 1 2
QUERY a 0 0 b
"""


def _file(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# automaton files


def test_parse_simple_automaton():
    a = parse_hra(CONSUME)
    assert (a.m, a.n) == (1, 0)
    assert a.initial == "p" and a.finals == frozenset({"f"})
    assert len(a.transitions) == 3
    assert membership(a, (0, 1, 0))
    assert not membership(a, (0, 1))  # nothing consumed, stuck outside finals


def test_parse_print_round_trip_is_stable():
    for text in (DISTINCT, CONSUME, PINNED):
        doc = parse_hra_document(text)
        printed = print_hra(doc.hra, doc.names)
        doc2 = parse_hra_document(printed)
        assert print_hra(doc2.hra, doc2.names) == printed


def test_print_covers_generated_automata():
    for a in (generate_then_consume_hra(), two_tracks_hra()):
        text = print_hra(a)
        b = parse_hra(text)
        assert (b.m, b.n) == (a.m, a.n)
        assert len(b.transitions) == len(a.transitions)
        assert print_hra(parse_hra(print_hra(b))) == print_hra(b)


def _random_automata(seeds):
    for seed in seeds:
        a = random_hra(seed, max_m=2, max_n=2)
        yield seed, a
        yield seed, kleene_star(a)
        yield seed, union(a, random_hra(seed + 10_000, max_m=2, max_n=2))


@pytest.mark.parametrize("chunk", range(4))
def test_print_parse_round_trip_on_random_automata(chunk):
    words = list(enumerate_words((0, 1, 2, 3), 3))
    for seed, a in _random_automata(range(50 * chunk, 50 * chunk + 50)):
        names = NameTable()
        text = print_hra(a, names)
        b = parse_hra_document(text, names).hra
        assert (b.m, b.n) == (a.m, a.n), seed
        assert len(b.states) == len(a.states), seed
        assert len(b.transitions) == len(a.transitions), seed
        assert len(b.finals) == len(a.finals), seed
        assert b.initial_assignment == a.initial_assignment, seed
        assert print_hra(b, names) == text, seed
        assert all(membership(b, w) == membership(a, w) for w in words), seed


def test_initial_contents_survive_round_trip():
    doc = parse_hra_document(PINNED)
    x = doc.names.intern("x")
    assert doc.hra.initial_assignment.at(frozenset({2})) == frozenset({x})
    printed = print_hra(doc.hra, doc.names)
    assert "INIT 2 x" in printed


def test_exactly_one_initial_state_required():
    with pytest.raises(ParseError, match="exactly one INITIAL"):
        parse_hra("HRA 1 0\nSTATE a FINAL\nSTATE b FINAL\n")
    with pytest.raises(ParseError, match="exactly one INITIAL"):
        parse_hra("HRA 1 0\nSTATE a INITIAL\nSTATE b INITIAL\n")


def test_place_indexes_are_checked_with_line_numbers():
    bad = "HRA 1 1\nSTATE q INITIAL\nSTATE r FINAL\nTRANS q r ACC 5 : -\n"
    with pytest.raises(BadPlaceIndex, match="line 4"):
        parse_hra(bad)
    with pytest.raises(BadPlaceIndex, match="line 2"):
        parse_hra("HRA 1 0\nINIT 2 x\nSTATE q INITIAL\n")


def test_parse_errors_carry_context():
    with pytest.raises(ParseError, match="header must come first"):
        parse_hra("STATE q INITIAL\n")
    with pytest.raises(ParseError, match="duplicate HRA header"):
        parse_hra("HRA 1 0\nHRA 1 0\n")
    with pytest.raises(ParseError, match="undeclared state"):
        parse_hra("HRA 1 0\nSTATE q INITIAL FINAL\nTRANS q z ACC - : 1\n")
    with pytest.raises(ParseError, match="unknown directive"):
        parse_hra("HRA 1 0\nSTATE q INITIAL FINAL\nJUMP q q\n")
    with pytest.raises(ParseError, match="unknown state flag"):
        parse_hra("HRA 1 0\nSTATE q START\n")
    with pytest.raises(ParseError, match="duplicate state"):
        parse_hra("HRA 1 0\nSTATE q INITIAL\nSTATE q FINAL\n")
    with pytest.raises(ParseError, match="unknown label kind"):
        parse_hra("HRA 1 0\nSTATE q INITIAL FINAL\nTRANS q q POP 1\n")


def test_comments_and_blank_lines_are_ignored():
    a = parse_hra("\n# header\nHRA 1 0\n\nSTATE q INITIAL FINAL  # the only state\n")
    assert a.states == frozenset({"q"})


# ---------------------------------------------------------------------------
# counter-machine files


def test_parse_counter_file():
    doc = parse_counters(TRVASS_FILE)
    assert doc.machine.dims == 2
    assert doc.query == ("a", (0, 0), "b")
    effects = {t.effect for t in doc.machine.transitions}
    assert effects == {Add((1, 0)), Transfer(1, 2).canonical(2)}


def test_parse_counters_validates_each_distinct_effect_once(monkeypatch):
    from histra.counters import Effect

    calls = []
    canonical = Effect.canonical
    monkeypatch.setattr(Effect, "canonical", lambda e, dims: calls.append(e) or canonical(e, dims))
    text = TRVASS_FILE + "TRANS b c ADD 1 0\nTRANS c a ADD 0 0 ADD 1 0\nTRANS a a RESET 2\n"
    doc = parse_counters(text)
    assert len(calls) == 4  # four spellings, three distinct effects
    effects = {t.effect for t in doc.machine.transitions}
    assert len(effects) == 3
    shared = [t.effect for t in doc.machine.transitions if t.effect == Add((1, 0))]
    assert len(shared) == 3 and all(e is shared[0] for e in shared)
    assert doc.machine.states == {"a", "b", "c"}


def test_counter_round_trip_is_stable():
    printed = print_counters(parse_counters(TRVASS_FILE))
    assert print_counters(parse_counters(printed)) == printed
    assert printed.startswith("TRVASS 2")


def test_counter_round_trip_keeps_edgeless_states():
    edgeless = 0
    for seed in range(100):
        red = hra_to_trvass(registers_to_histories(random_hra(seed, max_m=2, max_n=1)))
        text = print_counters(CounterDocument(red.machine, (*red.init, red.target)))
        doc = parse_counters(text)
        assert len(doc.machine.states) == len(red.machine.states), seed
        assert print_counters(doc) == text, seed
        edgeless += text.count("\nSTATE ")
    assert edgeless  # some machine has a state on no edge and not in the query


def test_counter_state_lines():
    doc = parse_counters("VASS 1\nSTATE c\nSTATE a\nTRANS a b ADD 1\nQUERY a 0 b\n")
    assert doc.machine.states == {"a", "b", "c"}
    # only the state on no edge and not in the query gets a STATE line
    assert print_counters(doc) == "VASS 1\nSTATE c\nTRANS a b ADD 1\nQUERY a 0 b\n"
    with pytest.raises(ParseError, match="line 2: expected STATE <id>"):
        parse_counters("VASS 1\nSTATE\n")
    with pytest.raises(ParseError, match="line 2: expected STATE <id>"):
        parse_counters("VASS 1\nSTATE c INITIAL\n")


def test_counter_round_trip_on_random_machines():
    for seed in range(200):
        mc = random_counter_machine(seed, klass="trvass", dims=3)
        states = sorted(mc.states)
        text = print_counters(CounterDocument(mc, (states[0], (0, 1, 2), states[-1])))
        doc = parse_counters(text)
        assert doc.machine.dims == mc.dims, seed
        assert len(doc.machine.transitions) == len(mc.transitions), seed
        assert print_counters(doc) == text, seed


_TO_COUNTERS = {
    "restricted": restricted_hra_to_rvass,
    "trvass": lambda a: hra_to_trvass(registers_to_histories(a)),
    "vass": nonreset_to_vass,
}


def _as_printed(red):
    """The machine and query a `to-counters` file holds for `red`: every
    state, named by the printer's token."""
    mc = red.machine
    tok = _state_tokens(mc.states)
    renamed = CounterMachine.make(
        mc.dims, tok.values(),
        [(tok[t.src], t.effect, tok[t.dst]) for t in mc.transitions],
    )
    return renamed, (tok[red.init[0]], red.init[1], tok[red.target])


def test_to_counters_round_trip_and_cover_on_random_automata(tmp_path, capsys):
    written = dict.fromkeys(_TO_COUNTERS, 0)
    for seed in range(100):
        f = _file(tmp_path, "a.hra", print_hra(random_hra(seed, max_m=2, max_n=1)))
        a = parse_hra(Path(f).read_text(encoding="utf-8"))
        empty = emptiness(a).is_empty
        for target, reduce in _TO_COUNTERS.items():
            out = str(tmp_path / f"{target}.cm")
            try:
                red = reduce(a)
            except HistraError:
                assert main(["to-counters", f, "--target", target, "-o", out]) == 2
                continue
            assert main(["to-counters", f, "--target", target, "-o", out]) == 0
            written[target] += 1
            doc = parse_counters(Path(out).read_text(encoding="utf-8"))
            assert (doc.machine, doc.query) == _as_printed(red), (seed, target)
            assert main(["cover", out]) == (1 if empty else 0), (seed, target)
    capsys.readouterr()
    assert min(written.values()) >= 10, written
    # the machine `emptiness` solves exists for every automaton
    assert written["restricted"] == 100, written


def test_to_counters_trvass_round_trip_and_cover_at_1024_counters(tmp_path, capsys):
    # six histories and two registers: the full translation has a counter
    # for each of the 2^10 - 1 non-empty place-sets
    text = print_hra(random_hra(6, max_m=6, max_n=2, max_states=12, max_transitions=40))
    f = _file(tmp_path, "a.hra", text)
    a = parse_hra(text)
    red = hra_to_trvass(registers_to_histories(a))
    assert red.machine.dims == 1023
    out = str(tmp_path / "a.cm")
    assert main(["to-counters", f, "--target", "trvass", "-o", out]) == 0
    doc = parse_counters(Path(out).read_text(encoding="utf-8"))
    assert (doc.machine, doc.query) == _as_printed(red)
    assert main(["cover", out]) == (1 if emptiness(a).is_empty else 0)
    capsys.readouterr()


def test_printer_infers_tightest_class():
    doc = parse_counters("TRVASS 1\nTRANS a b ADD 1\n")
    assert print_counters(doc).startswith("VASS 1")
    doc2 = parse_counters("TRVASS 1\nTRANS a b RESET 1\n")
    assert print_counters(doc2).startswith("RVASS 1")


def test_wide_add_entries_are_one_edge():
    doc = parse_counters("VASS 1\nTRANS a b ADD -2\n")
    assert [t.effect for t in doc.machine.transitions] == [Add((-2,))]
    doc2 = parse_counters("VASS 2\nTRANS a b ADD 2 -3\nTRANS b a ADD -1 1\n")
    assert {t.effect for t in doc2.machine.transitions} == {Add((2, -3)), Add((-1, 1))}
    # the same machine spelled as unit steps, decrements first
    units = [(0, -1)] * 3 + [(1, 0)] * 2
    hops = ["a"] + [f"m{k}" for k in range(len(units) - 1)] + ["b"]
    chain = CounterMachine.make(
        2, [], [(p, Add(u), q) for p, u, q in zip(hops, units, hops[1:])]
        + [("b", Add((-1, 1)), "a")]
    )
    for v in [(x, y) for x in range(4) for y in range(6)]:
        for q0, target in [("a", "b"), ("b", "a"), ("b", "b")]:
            assert backward_coverability(doc2.machine, (q0, v), target) == (
                backward_coverability(chain, (q0, v), target)
            ), (v, q0, target)


def test_trans_line_with_phases_is_one_edge():
    text = "TRVASS 3\nTRANS a b ADD -1 0 0 TRANSFER 2 3 RESET 1 ADD 0 0 2\nQUERY a 1 1 0 b\n"
    doc = parse_counters(text)
    (t,) = doc.machine.transitions
    assert t.effect == Effect((1, 0, 0), ((1, 0), (2, 3)), (0, 0, 2))
    assert apply_effect(t.effect, (1, 1, 0)) == (0, 0, 3)
    printed = print_counters(doc)
    assert "TRANS a b ADD -1 0 0 RESET 1 TRANSFER 2 3 ADD 0 0 2" in printed
    assert parse_counters(printed).machine == doc.machine
    # taking from and putting on the same counter needs two phases
    doc2 = parse_counters("VASS 1\nTRANS a b ADD -1 ADD 1\n")
    assert "TRANS a b ADD -1 ADD 1" in print_counters(doc2)
    assert parse_counters("VASS 1\nTRANS a b ADD 0\n").machine != doc2.machine


@pytest.mark.parametrize("line,reason", [
    ("TRANS a b ADD 1 0 TRANSFER 1 2", "out of phase"),  # increases before the moves
    ("TRANS a b TRANSFER 1 2 ADD 0 -1", "out of phase"),  # decreases after the moves
    ("TRANS a b RESET 1 ADD 0 1 RESET 2", "out of phase"),  # an ADD between moves
    ("TRANS a b ADD 0 0 ADD 0 0 ADD 0 0", "out of phase"),
    ("TRANS a b TRANSFER 1 2 TRANSFER 2 1", "counter 2 is moved and also receives"),
    ("TRANS a b RESET 2 TRANSFER 1 2", "counter 2 is moved and also receives"),
    ("TRANS a b RESET 1 RESET 1", "moved twice"),
    ("TRANS a b TRANSFER 1 2 2", "TRANSFER expects 2 entries"),
])
def test_out_of_phase_trans_lines_are_parse_errors(line, reason, tmp_path, capsys):
    text = f"TRVASS 2\n{line}\nQUERY a 0 0 b\n"
    with pytest.raises(ParseError, match=f"line 2: .*{reason}"):
        parse_counters(text)
    assert main(["cover", _file(tmp_path, "m.cm", text)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_counter_class_violations_rejected():
    with pytest.raises(ParseError, match="TRANSFER not allowed in a VASS"):
        parse_counters("VASS 2\nTRANS a b TRANSFER 1 2\n")
    with pytest.raises(ParseError, match="TRANSFER not allowed in a RVASS"):
        parse_counters("RVASS 2\nTRANS a b TRANSFER 1 2\n")
    with pytest.raises(ParseError, match="RESET not allowed in a VASS"):
        parse_counters("VASS 1\nTRANS a b RESET 1\n")


def test_counter_query_validation():
    with pytest.raises(ParseError, match="QUERY expects"):
        parse_counters("VASS 2\nQUERY a 1 b\n")
    with pytest.raises(ParseError, match="non-negative"):
        parse_counters("VASS 1\nQUERY a -1 b\n")
    with pytest.raises(ParseError, match="duplicate QUERY"):
        parse_counters("VASS 1\nQUERY a 0 b\nQUERY a 0 b\n")
    with pytest.raises(ParseError, match="missing machine header"):
        parse_counters("# nothing here\n")


def test_name_table_prints_unknown_ints_distinctly():
    names = NameTable()
    a = names.intern("alpha")
    assert names.token(a) == "alpha"
    assert names.token(99) != names.token(98)


def test_name_table_numbering_with_interleaved_tokens():
    # token() takes an arbitrary number; intern() then takes the least free one
    names = NameTable()
    calls = [("intern", "a"), ("token", 2), ("intern", "b"), ("intern", "c"),
             ("token", 5), ("intern", "d"), ("intern", "n2"), ("intern", "e"),
             ("token", 0), ("token", 7), ("intern", "n7"), ("intern", "f"),
             ("intern", "n13"), ("token", 13), ("intern", "g"), ("token", 3)]
    got = [getattr(names, op)(arg) for op, arg in calls]
    assert got == [0, "n2", 1, 3, "n5", 4, 2, 6, "a", "n7", 7, 8, 9, "n13_", 10, "c"]
    assert names.by_name == {0: "a", 1: "b", 2: "n2", 3: "c", 4: "d", 5: "n5", 6: "e",
                             7: "n7", 8: "f", 9: "n13", 10: "g", 13: "n13_"}


# ---------------------------------------------------------------------------
# command-line behaviour


def test_member_exit_codes(tmp_path, capsys):
    f = _file(tmp_path, "consume.hra", CONSUME)
    assert main(["member", f, "a", "b", "a"]) == 0
    assert "member: true" in capsys.readouterr().out
    assert main(["member", f, "a", "b"]) == 1
    assert "member: false" in capsys.readouterr().out


def test_member_empty_word(tmp_path, capsys):
    f = _file(tmp_path, "distinct.hra", DISTINCT)
    assert main(["member", f]) == 0


def test_run_trace_prints_transitions(tmp_path, capsys):
    f = _file(tmp_path, "consume.hra", CONSUME)
    assert main(["run", f, "a", "a", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "accepted: true" in out
    assert "--[a]-->" in out
    assert "via ACC" in out
    assert main(["run", f, "a", "b"]) == 1
    assert "accepted: false" in capsys.readouterr().out


def test_run_extracts_a_trace_only_when_printing_an_accepted_run(tmp_path, capsys, monkeypatch):
    import histra.cli as cli

    calls = []

    def counting(a, word):
        calls.append(word)
        return trace(a, word)

    monkeypatch.setattr(cli, "trace", counting)
    f = _file(tmp_path, "consume.hra", CONSUME)
    assert main(["run", f, "a", "a"]) == 0
    assert capsys.readouterr().out == "accepted: true\n"
    assert main(["run", f, "a", "b", "--trace"]) == 1
    assert capsys.readouterr().out == "accepted: false\n"
    assert calls == []
    assert main(["run", f, "a", "a", "--trace"]) == 0
    assert "--[a]-->" in capsys.readouterr().out
    assert len(calls) == 1


def test_member_and_run_decide_long_words_of_distinct_names(tmp_path, capsys):
    f = _file(tmp_path, "twofold.hra", TWOFOLD)
    word = [f"n{i}" for i in range(1, 201)]
    assert main(["member", f, *word]) == 0
    assert main(["run", f, *word]) == 0
    # a name that comes back is still remembered until its last occurrence
    assert main(["run", f, *word, "n7"]) == 1
    assert capsys.readouterr().out == "member: true\naccepted: true\naccepted: false\n"


def test_empty_exit_codes(tmp_path, capsys):
    live = _file(tmp_path, "consume.hra", CONSUME)
    dead = _file(tmp_path, "dead.hra", NEVER_ACCEPTS)
    assert main(["empty", live]) == 1
    assert "empty: false" in capsys.readouterr().out
    assert main(["empty", dead]) == 0
    out = capsys.readouterr().out
    assert "empty: true" in out and "engine: restricted" in out


def test_empty_forced_engine_and_race(tmp_path, capsys):
    f = _file(tmp_path, "consume.hra", CONSUME)
    assert main(["empty", f, "--engine", "bounded"]) == 1
    assert "engine: bounded" in capsys.readouterr().out
    # one pipeline decides everything: there is no engine to pick or race
    for extra in (["--engine", "trvass"], ["--engine", "one_rvass"], ["--race"]):
        with pytest.raises(SystemExit) as exc:
            main(["empty", f, *extra])
        assert exc.value.code == 2
        assert capsys.readouterr().err.strip()


def test_empty_bounded_can_be_indeterminate(tmp_path, capsys):
    f = _file(tmp_path, "dead.hra", NEVER_ACCEPTS)
    assert main(["empty", f, "--engine", "bounded", "--bound", "3"]) == 2
    assert "empty: unknown" in capsys.readouterr().out


def test_empty_bound_must_be_non_negative(tmp_path, capsys):
    f = _file(tmp_path, "dead.hra", NEVER_ACCEPTS)
    with pytest.raises(SystemExit) as exc:
        main(["empty", f, "--engine", "bounded", "--bound", "-3"])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


def test_complement_flips_membership(tmp_path, capsys):
    f = _file(tmp_path, "distinct.hra", DISTINCT)
    out = str(tmp_path / "co.hra")
    assert main(["complement", f, "-o", out]) == 0
    comp = parse_hra(Path(out).read_text(encoding="utf-8"))
    assert not membership(comp, (0, 1))
    assert membership(comp, (0, 0))
    assert membership(comp, (0, 1, 0))


def test_complement_of_a_nondeterministic_file_is_an_input_error(tmp_path, capsys):
    # a fresh name may go to r or to t: two moves match q on the empty place-set
    f = _file(tmp_path, "double.hra",
              "HRA 1 0\nSTATE q INITIAL\nSTATE r FINAL\nSTATE t\n"
              "TRANS q r ACC - : 1\nTRANS q t ACC - : -\n")
    out = tmp_path / "co.hra"
    assert main(["complement", f, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: two transitions match state ")
    assert "Traceback" not in err
    assert not out.exists()


def test_nondeterminism_with_registers_is_reported_in_the_file_s_terms(tmp_path, capsys):
    # q reads the register's name twice: the state and place-set of the
    # file, not of its register-free form
    f = _file(tmp_path, "twice.hra",
              "HRA 1 1\nSTATE p INITIAL\nSTATE q\nSTATE r FINAL\nSTATE t\n"
              "TRANS p q ACC - : 2\nTRANS q r ACC 2 : 2\nTRANS q t ACC 2 : 1,2\n")
    out = tmp_path / "co.hra"
    assert main(["complement", f, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: two transitions match state 'q' on place-set [2]\n"
    assert "Traceback" not in err
    assert not out.exists()


def test_product_intersection(tmp_path):
    left = _file(tmp_path, "distinct.hra", DISTINCT)
    right = _file(tmp_path, "pinned.hra", PINNED)
    out = str(tmp_path / "meet.hra")
    assert main(["product", "--op", "inter", left, right, "-o", out]) == 0
    assert main(["member", out]) == 0  # empty word
    assert main(["member", out, "x"]) == 0
    assert main(["member", out, "x", "x"]) == 1  # repeats violate the left factor
    assert main(["member", out, "y"]) == 1  # wrong name violates the right factor


def test_product_union(tmp_path):
    left = _file(tmp_path, "distinct.hra", DISTINCT)
    right = _file(tmp_path, "pinned.hra", PINNED)
    out = str(tmp_path / "join.hra")
    assert main(["product", "--op", "union", left, right, "-o", out]) == 0
    assert main(["member", out, "x", "x"]) == 0  # right factor
    assert main(["member", out, "a", "b"]) == 0  # left factor
    assert main(["member", out, "a", "a"]) == 1  # neither


def test_concat_command(tmp_path):
    one = _file(tmp_path, "one.hra", ONE_FRESH)
    out = str(tmp_path / "two.hra")
    assert main(["concat", one, one, "-o", out]) == 0
    assert main(["member", out, "a", "b"]) == 0
    assert main(["member", out, "a"]) == 1
    assert main(["member", out, "a", "b", "c"]) == 1


def test_star_command(tmp_path):
    two = _file(tmp_path, "two.hra", TWO_FRESH)
    out = str(tmp_path / "blocks.hra")
    assert main(["star", two, "-o", out]) == 0
    assert main(["member", out]) == 0
    # names may repeat across blocks (iteration wipes the history) ...
    assert main(["member", out, "a", "b", "b", "a"]) == 0
    # ... but not inside one block, and odd lengths never split into pairs
    assert main(["member", out, "a", "a"]) == 1
    assert main(["member", out, "a", "b", "c"]) == 1


def test_to_counters_then_cover(tmp_path, capsys):
    f = _file(tmp_path, "consume.hra", CONSUME)
    out = str(tmp_path / "machine.cm")
    assert main(["to-counters", f, "-o", out]) == 0
    doc = parse_counters(Path(out).read_text(encoding="utf-8"))
    assert doc.query is not None
    assert main(["cover", out]) == 0
    assert "coverable: true" in capsys.readouterr().out


def test_to_counters_one_rvass_target(tmp_path, capsys):
    # on a unary automaton the restricted target is the one-counter R-VASS
    f = _file(tmp_path, "consume.hra", CONSUME)
    out = str(tmp_path / "machine.cm")
    assert main(["to-counters", f, "--target", "restricted", "-o", out]) == 0
    text = Path(out).read_text(encoding="utf-8")
    assert text.split()[1] == "1"  # single counter
    red = restricted_hra_to_rvass(parse_hra(CONSUME))
    assert text == print_counters(CounterDocument(red.machine, (*red.init, red.target)))
    assert main(["cover", out]) == 0


def test_to_counters_uncoverable_when_no_finals(tmp_path, capsys):
    f = _file(tmp_path, "dead.hra", NEVER_ACCEPTS)
    out = str(tmp_path / "machine.cm")
    assert main(["to-counters", f, "-o", out]) == 0
    assert main(["cover", out]) == 1
    assert "coverable: false" in capsys.readouterr().out


def test_cover_requires_query_line(tmp_path, capsys):
    f = _file(tmp_path, "m.cm", "VASS 1\nTRANS a b ADD 1\n")
    assert main(["cover", f]) == 2
    assert "QUERY" in capsys.readouterr().err


def test_classify_command(tmp_path, capsys):
    f = _file(tmp_path, "consume.hra", CONSUME)
    assert main(["classify", f]) == 0
    out = capsys.readouterr().out
    flags = classify(parse_hra(CONSUME))
    assert f"unary:{str(flags.unary).lower()}" in out
    assert f"non_reset:{str(flags.non_reset).lower()}" in out


def test_errors_exit_with_2(tmp_path, capsys):
    assert main(["member", str(tmp_path / "missing.hra"), "a"]) == 2
    assert capsys.readouterr().err.strip()
    f = _file(tmp_path, "bad.hra", "HRA 1 0\nSTATE q\n")
    assert main(["member", f, "a"]) == 2
    assert "INITIAL" in capsys.readouterr().err


def test_non_utf8_automaton_file_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "bad.hra"
    f.write_bytes(b"\xffHRA 1 0\nSTATE q INITIAL\n")
    assert main(["member", str(f), "a"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err


def test_non_utf8_counter_file_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "bad.cm"
    f.write_bytes(b"\xffVASS 1\nQUERY a 0 b\n")
    assert main(["cover", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err


def test_to_counters_keeps_an_edgeless_initial_state(tmp_path, capsys):
    f = _file(tmp_path, "alone.hra", "HRA 1 0\nSTATE q INITIAL\n")
    for target in ("restricted", "trvass", "vass"):
        out = str(tmp_path / f"{target}.cm")
        assert main(["to-counters", f, "--target", target, "-o", out]) == 0
        assert parse_counters(Path(out).read_text(encoding="utf-8")).query is not None
        assert main(["cover", out]) == 1
    assert "coverable: false" in capsys.readouterr().out


def _to_counters_vass_agrees_with_empty(tmp_path, text):
    """`to-counters --target vass` writes the machine of `nonreset_to_vass`,
    a VASS; `cover` exits 0 on coverable and `empty` exits 0 on empty, so
    on a non-empty language they must disagree."""
    f = _file(tmp_path, "reg.hra", text)
    out = str(tmp_path / "vass.cm")
    assert main(["to-counters", f, "--target", "vass", "-o", out]) == 0
    doc = parse_counters(Path(out).read_text(encoding="utf-8"))
    assert doc.machine.is_vass()
    assert (doc.machine, doc.query) == _as_printed(nonreset_to_vass(parse_hra(text)))
    assert main(["cover", out]) == 0
    assert main(["empty", f]) == 1


def test_to_counters_vass_eliminates_registers_in_colouring_scope(tmp_path, capsys):
    # non-reset, register initially empty, one register per label side
    text = (
        "HRA 1 1\nSTATE q INITIAL\nSTATE r\nSTATE f FINAL\n"
        "TRANS q r ACC - : 1,2\nTRANS r f ACC 1,2 : 1\n"
    )
    assert colouring_scope_ok(parse_hra(text))
    _to_counters_vass_agrees_with_empty(tmp_path, text)
    capsys.readouterr()


def test_to_counters_vass_translates_registers_outside_colouring_scope(tmp_path, capsys):
    # the register starts full, which the colouring construction refuses
    text = "HRA 1 1\nSTATE q INITIAL\nSTATE f FINAL\nINIT 2 a\nTRANS q f ACC 2 : 1\n"
    assert not colouring_scope_ok(parse_hra(text))
    _to_counters_vass_agrees_with_empty(tmp_path, text)
    capsys.readouterr()


def test_negative_hra_counts_are_a_parse_error(tmp_path, capsys):
    text = "HRA -1 0\nSTATE q INITIAL\n"
    with pytest.raises(ParseError, match="line 1: .*non-negative"):
        parse_hra(text)
    assert main(["empty", _file(tmp_path, "neg.hra", text)]) == 2
    assert "non-negative" in capsys.readouterr().err


def test_counter_header_dimension_must_be_an_integer(tmp_path, capsys):
    with pytest.raises(ParseError, match="line 1"):
        parse_counters("VASS x\n")
    assert main(["cover", _file(tmp_path, "m.cm", "VASS x\nQUERY a 0 b\n")]) == 2
    assert "line 1" in capsys.readouterr().err


def test_self_transfer_is_a_parse_error(tmp_path, capsys):
    text = "TRVASS 2\nTRANS a b TRANSFER 1 1\nQUERY a 0 0 b\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_counters(text)
    assert main(["cover", _file(tmp_path, "m.cm", text)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_counter_machine_effect_errors_are_histra_errors():
    mc = CounterMachine.make(1, ["q"], [("q", Add((2,)), "q")])
    with pytest.raises(NonUnitEffect) as wide:
        rvass_to_hra(mc, ("q", (0,)), "q")
    with pytest.raises(SelfTransfer) as loop:
        CounterMachine.make(2, ["q"], [("q", Transfer(1, 1), "q")])
    assert isinstance(wide.value, HistraError) and isinstance(loop.value, HistraError)
