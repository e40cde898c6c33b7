"""The routes that check each other share no code, seen by profiling the calls.

Two agreements would be meaningless if the routes behind them met: the rack
complex against the word pipelines, and the integral Smith form against the
field ranks behind universal coefficients.  Under ``sys.setprofile`` the rack
complex and its homology over Z, Q and F3 call no function of ``words`` and
no ``WordSpec`` method; ``ChainComplex.field_rank`` calls no ``_Smith``
method and no ``smith_normal_form``, and ``ChainComplex.snf`` neither
``gaussian_rank`` nor the clearing helper ``clearing_marks``.  Each check
also sees the functions its route does call, so a profile that records
nothing cannot pass it.
"""

import sys

from precrossed import words
from precrossed.homology import (
    _Smith,
    chain_complex,
    clearing_marks,
    gaussian_rank,
    homology,
    smith_normal_form,
)
from precrossed.oracles import rack_complex
from precrossed.simplicial import WordSpec, build_envelope


def called(fn, *args):
    """The code objects of the Python functions that ``fn(*args)`` calls."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(before)
    return seen


def codes(*functions):
    """The code objects of ``functions`` and of every function nested in them."""
    out, todo = set(), [f.__code__ for f in functions]
    while todo:
        code = todo.pop()
        out.add(code)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return out


def methods(cls):
    return [f for f in vars(cls).values() if callable(f)]


WORD_CODE = codes(*methods(WordSpec))
SMITH_CODE = codes(smith_normal_form, *methods(_Smith))
FIELD_CODE = codes(gaussian_rank, clearing_marks)


def test_the_rack_complex_touches_no_word_machinery(registry):
    trans = registry.augracks["TRANS"]

    def run():
        comp = rack_complex(trans, 3)
        for coeff in ("Z", "Q", "F3"):
            for m in range(4):
                homology(comp, m, coeff)

    seen = called(run)
    assert rack_complex.__code__ in seen
    assert SMITH_CODE & seen and FIELD_CODE & seen
    assert not [c for c in seen if c.co_filename == words.__file__]
    assert not WORD_CODE & seen


def test_field_ranks_and_the_smith_form_share_no_code(registry):
    # a rack complex and an envelope, each built afresh so no rank or Smith form is cached
    builds = (lambda: rack_complex(registry.augracks["TRANS"], 3),
              lambda: chain_complex(build_envelope(registry.precrossed["IDS3"]), 2, 3))
    for build in builds:
        for p in (None, 3):
            comp = build()
            seen = set()
            for k in range(comp.max_degree + 1):
                seen |= called(comp.field_rank, k, p)
            assert {gaussian_rank.__code__, clearing_marks.__code__} <= seen
            assert not SMITH_CODE & seen, p
        comp = build()
        seen = set()
        for k in range(comp.max_degree + 1):
            seen |= called(comp.snf, k)
        assert SMITH_CODE & seen
        assert not FIELD_CODE & seen
