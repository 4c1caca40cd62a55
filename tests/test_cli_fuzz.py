"""The command line's exit contract under fuzzed input.

Command lines are drawn from a fixed vocabulary: the five commands, their
options, the sample documents, family and recipe names, small numbers and a
few stray tokens.  Documents are mutated copies of the text of
``samples/pair.json``.  Whatever the input, a run exits 0, 1 or 2 and raises
nothing; an exit 2 prints one ``error:`` line on stderr and nothing on stdout.
"""

import contextlib
import io
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gframes.cli import run_command

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")
PAIR_DOC = os.path.join(SAMPLES, "pair.json")
LIFT_DOC = os.path.join(SAMPLES, "lift.json")
NEAR_CUTOFF_DOC = os.path.join(SAMPLES, "near_cutoff.json")
with open(PAIR_DOC, encoding="utf-8") as _handle:
    PAIR_TEXT = _handle.read()

# placeholders for paths in the run's own directory: the mutated document, a
# document that does not exist, and the output document
DOC, MISSING, OUT = "<doc>", "<missing>", "<out>"

# the families of each document; a name of none of them is a bad word
FAMILIES = {
    DOC: ("lam", "theta", "ortho", "identity"),
    PAIR_DOC: ("lam", "theta", "ortho", "identity"),
    LIFT_DOC: ("f", "g"),
    NEAR_CUTOFF_DOC: ("near",),
}
# recipe: its number of family names and whether it takes --l1/--l2
RECIPES = {
    "gamma": (2, False), "delta": (2, False), "sum-disjoint": (2, True), "sum-strong": (2, True),
    "pseudo-dual": (2, True), "canonical-dual": (1, False), "parseval": (1, False),
    "lift-example": (2, False),
}
# each vocabulary is (good words, bad words)
FILES = (tuple(FAMILIES), (MISSING,))
SEEDS = (("0", "1", "2", "8"), ("-1", "0.5", "x"))
DIMS = (("1", "2", "3", "8"), ("0", "-1", "x"))
TOLERANCES = (("1e-9", "1e-6", "0.5", "8", "1e-300"), ("0", "-1", "nan", "inf", "x"))
FORMATS = (("human", "json"), ("xml",))
OPERATORS = (("[[[1,0]]]", "[[[2,0]]]", "[[[0,1]]]", "[[[1,0],[0,0]],[[0,0],[1,0]]]"),
             ("[[[0,0]]]", "[[[1,0],[0,0]]]", "[]", "[[[NaN,0]]]", "[[[1e200,0]]]", "xx"))
BLOCK_DIMS = (("1", "2", "1,1,2", "3,1", "8,8", "1,2,3,8"), ("0,2", "-1,3", "1,x", ""))
CASES = (("1", "2"), ("0", "-1"))
# tokens out of place: an option of no command, a bare value, the end of options
STRAYS = ("--rank-factor", "--l1", "-o", "--help", "--", "2", "lam", "xml")
# what a mutation writes over a stretch of the document text
FRAGMENTS = ("", "0", "-1", "2", "1e400", "1e-320", "NaN", "-Infinity", "true", "null", '"x"',
             "[", "]", "{", "}", ",", ":", "[1.0, 0.0]", "[[[1.0, 0.0]]]", "é", "\x00")


def _well_formed(draw, command):
    """A command line that the parser accepts, as slots ``(words, vocabulary)``:
    the vocabulary of the slot's last word, or None for a slot that stays as it is."""
    slots = []

    def word(vocabulary, option=None):
        chosen = draw(st.sampled_from(vocabulary[0]))
        slots.append(([chosen] if option is None else [option, chosen], vocabulary))

    if command in ("analyze", "disjoint", "construct"):
        word(FILES)
        names = (FAMILIES[slots[0][0][0]], ("none",))
        if command == "construct":
            recipe = draw(st.sampled_from(sorted(RECIPES)))
            slots.append(([recipe], (tuple(RECIPES), ("none",))))
            arity, takes_operators = RECIPES[recipe]
            for _ in range(arity):
                word(names)
            for option in ("--l1", "--l2") if takes_operators else ():
                if draw(st.booleans()):
                    word(OPERATORS, option)
            slots.append((["-o", OUT], None))
        else:
            for _ in range(1 if command == "analyze" else 2):
                word(names)
    elif command == "generate":
        kind = draw(st.sampled_from(("frame", "strongly-disjoint-pair")))
        slots.append((["--kind", kind], ((kind,), ("none",))))
        word(SEEDS, "--seed")
        word(BLOCK_DIMS, "--block-dims")
        for option in ("--domain-dim",) if kind == "frame" else ("--dim-first", "--dim-second"):
            word(DIMS, option)
        slots.append((["-o", OUT], None))
    else:
        word(SEEDS, "--seed")
    if draw(st.booleans()):
        word(TOLERANCES, "--tol")
    if draw(st.booleans()):
        word(FORMATS, "--format")
    return slots


@st.composite
def command_lines(draw):
    """A well-formed command line with up to two faults, each a bad word for a
    slot, a slot dropped or a stray token put anywhere.  ``verify`` always ends
    with ``--cases`` at most 2, which no fault drops."""
    command = draw(st.sampled_from(("analyze", "disjoint", "construct", "generate", "verify")))
    slots = _well_formed(draw, command)
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(("bad word", "drop", "stray")))
        index = draw(st.integers(0, len(slots) - 1)) if slots else None
        if fault == "stray" or index is None:
            slots.insert(draw(st.integers(0, len(slots))), ([draw(st.sampled_from(STRAYS))], None))
        elif fault == "drop":
            del slots[index]
        elif slots[index][1] is not None:
            words, vocabulary = slots[index]
            slots[index] = (words[:-1] + [draw(st.sampled_from(vocabulary[1]))], vocabulary)
    if command == "verify":
        cases = CASES[draw(st.integers(0, 3)) == 3]
        slots.append((["--cases", draw(st.sampled_from(cases))], None))
    return [command] + [w for words, _ in slots for w in words]


@st.composite
def mutated_documents(draw):
    """The text of ``samples/pair.json`` with up to three stretches of at most
    eight characters each replaced by a fragment (none for an unchanged copy)."""
    text = PAIR_TEXT
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + draw(st.sampled_from(FRAGMENTS)) + text[end:]
    return text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.filterwarnings("error")  # a warning beside the error line breaks the contract
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(argv=command_lines(), text=mutated_documents())
# an argument error ends on one error line, not on the parser's usage text
@example(argv=["analyze"], text=PAIR_TEXT)
@example(argv=["construct", PAIR_DOC, "none", "lam", "-o", OUT], text=PAIR_TEXT)
@example(argv=["verify", "--seed", "x", "--cases", "1"], text=PAIR_TEXT)
# the rank cutoff takes no factor
@example(argv=["analyze", DOC, "lam", "--rank-factor", "10"], text=PAIR_TEXT)
def test_every_command_line_keeps_the_exit_contract(argv, text, workdir):
    doc = workdir / "doc.json"
    doc.write_text(text, encoding="utf-8")
    paths = {DOC: str(doc), MISSING: str(workdir / "missing.json"), OUT: str(workdir / "out.json")}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run_command([paths.get(word, word) for word in argv])
    out, err = out.getvalue(), err.getvalue()
    assert status in (0, 1, 2), (status, out, err)
    lines = err.splitlines()
    if status == 2:
        assert out == "" and len(lines) == 1 and lines[0].startswith("error: "), err
    elif status == 1 and out == "":
        assert len(lines) == 1 and lines[0].startswith("error: failed hypothesis: "), err
    else:
        # a report, whose checks decide between 0 and 1; or --help's text
        assert err == "", err
