import functools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkgrammar import language, orbits, verify
from walkgrammar.language import contract, generate, word_index, words_at_vertex
from walkgrammar.orbits import (
    Pattern,
    complete,
    decompose,
    fundamental_orbits,
    grow,
    orbit_count_lower_bound,
    orbit_index,
    orbits_at_time,
    periodic_point,
    primitive_root,
    read,
)

from helpers import (
    closed_cycles,
    fixed_density_necklaces,
    grow_oracle,
    min_rotation,
    primitive_root_oracle,
    simple_cycles_networkx,
)


def test_canonicalize_rotations():
    assert Pattern("bca") == "abc"
    assert Pattern("aaa") == "aaa"
    assert Pattern("cbd") == Pattern("bdc") == Pattern("dcb")


def test_a_pattern_is_the_str_of_its_least_rotation():
    p = Pattern("cbd")
    assert isinstance(p, str) and p == "bdc"
    assert type(p + p) is str and type(p[1:]) is str
    for t in range(2, 11):
        pats = orbits_at_time(t)
        plain = [str(q) for q in pats]
        assert all(type(q) is Pattern for q in pats)
        assert sorted(pats) == sorted(plain)
        assert [hash(q) for q in pats] == [hash(q) for q in plain]


@functools.lru_cache(maxsize=None)
def _closed_cycles(n):
    return sorted(closed_cycles(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.sampled_from(_closed_cycles(n))), st.integers(0, 9))
def test_canonicalize_is_rotation_invariant_and_idempotent(cycle, offset):
    p = Pattern(cycle)
    assert p == cycle
    r = offset % len(cycle)
    assert Pattern(cycle[r:] + cycle[:r]) == p
    assert Pattern(p) == p


def test_canonicalize_rejects_open_paths():
    with pytest.raises(ValueError, match="open path"):
        Pattern("ab")
    with pytest.raises(ValueError, match="position"):
        Pattern("ba")


def test_pattern_constructor_requires_canonical_form():
    # The constructor brings any rotation to the canonical form it is.
    assert Pattern("bca") == "abc"


def test_pattern_refuses_a_length_past_the_cap_before_any_other_check():
    cap = orbits.PATTERN_MAX_LETTERS
    assert Pattern("a" * cap) == "a" * cap
    # Past the cap the length is refused first, whatever the letters are.
    for letters in ("a" * (cap + 1), "x" * (cap + 1), "ab" * cap):
        with pytest.raises(ValueError) as refused:
            Pattern(letters)
        assert str(refused.value) == f"pattern of {len(letters)} letters exceeds the cap {cap}"


def test_orbit_index_examples():
    assert orbit_index(Pattern("a")) == -1
    assert orbit_index(Pattern("abc")) == -1
    assert orbit_index(Pattern("abdc")) == 0
    assert orbit_index(Pattern("d")) == 1
    assert orbit_index(Pattern("bc")) == 0


def test_orbit_index_rotation_invariant():
    for s in ("abc", "bca", "cab"):
        assert orbit_index(Pattern(s)) == -1


def test_read_examples():
    assert read(Pattern("abc")) == frozenset({"ab", "bc", "ca"})
    assert read(Pattern("bcbc")) == frozenset({"bcb", "cbc"})
    windows = read(Pattern("abdc"))
    assert {contract(w) for w in windows} == {"PPQQ", "PQQP", "QQPP", "QPPQ"}
    with pytest.raises(ValueError):
        read(Pattern("a"))


def test_read_words_share_the_orbit_index():
    for t in range(2, 9):
        for p in orbits_at_time(t):
            for w in read(p):
                assert orbits.orbit_index(p) == word_index(w)


def test_complete_examples():
    assert complete("ab") == Pattern("abc")
    assert complete("aa") == Pattern("aaa")
    assert complete("bd") == Pattern("bdc")
    with pytest.raises(ValueError, match="'ac' breaks at position 0"):
        complete("ac")


def test_completion_preserves_index():
    for t in range(2, 10):
        for w in generate(t):
            assert orbit_index(complete(w)) == word_index(w)


def test_completion_reading_duality():
    for t in range(2, 10):
        for w in generate(t):
            assert w in read(complete(w))


def test_grow_examples():
    assert set(map(Pattern, grow(Pattern("aa")))) == {Pattern("aaa"), Pattern("abc")}
    assert set(map(Pattern, grow(Pattern("dd")))) == {Pattern("ddd"), Pattern("bdc")}
    assert set(map(Pattern, grow(Pattern("abc")))) == {
        Pattern("aabc"), Pattern("bcbc"), Pattern("abdc")
    }


@pytest.mark.parametrize("t", range(2, 11))
def test_grow_equals_per_candidate_canonicalisation(t):
    for p in orbits_at_time(t):
        assert {min_rotation(c) for c in grow(p)} == grow_oracle(p)


def test_trusted_constructions_build_what_the_checking_constructor_builds():
    for t in range(2, 11):
        pats = orbits_at_time(t)
        built = [*pats, *map(complete, generate(t)), *(primitive_root(p)[0] for p in pats)]
        for q in built:
            assert Pattern(q) == q


@settings(max_examples=200, deadline=None)
@given(st.text("abcd", min_size=1, max_size=20))
def test_least_rotation_matches_the_full_scan(s):
    assert orbits.least_rotation(s) == min_rotation(s)


def test_grow_shifts_index_by_one():
    # The coproduct splits one letter of index i into neighbours of index
    # i -+ 1, so each grown pattern sits one vertex away from its parent.
    for t in range(2, 9):
        for p in orbits_at_time(t):
            grown = list(map(Pattern, grow(p)))
            for q in grown:
                assert len(q) == len(p) + 1
                assert abs(orbit_index(q) - orbit_index(p)) == 1
            spread = {orbit_index(q) - orbit_index(p) for q in grown}
            assert spread == {-1, 1}


def test_orbits_at_small_times():
    assert orbits_at_time(2) == {Pattern("aa"), Pattern("bc"), Pattern("dd")}
    assert orbits_at_time(3) == {Pattern("aaa"), Pattern("abc"), Pattern("ddd"), Pattern("bdc")}
    at_zero = {p for p in orbits_at_time(4) if orbit_index(p) == 0}
    assert at_zero == {Pattern("bcbc"), Pattern("abdc")}
    with pytest.raises(ValueError):
        orbits_at_time(1)


def test_growth_matches_closed_walk_enumeration():
    for t in range(2, 10):
        assert orbits_at_time(t) == closed_cycles(t)


@pytest.mark.parametrize("t", range(1, 15))
def test_closed_walks_are_the_closed_cycles(t):
    # closed_walks starts each walk at its least letter; closed_cycles rotates every closed path.
    assert verify.closed_walks(t) == {Pattern(s) for s in closed_cycles(t)}


def test_orbit_checks_catch_a_wrong_completion(monkeypatch):
    true_complete = orbits.complete

    def wrong(w):
        return Pattern("aaaaaa") if w == "bcbcb" else true_complete(w)

    monkeypatch.setattr(orbits, "complete", wrong)
    results = {r.name: r.ok for r in verify.orbit_checks(6)}
    assert results["completion/reading duality"] is False
    assert results["orbit readings cover the words at every vertex"] is True


def test_orbit_checks_catch_a_word_at_the_wrong_vertex(monkeypatch):
    true_word_index = language.word_index

    def moved(w):
        # One word of time 6 moved to the next vertex up.
        return true_word_index(w) + 2 if w == "bcbcb" else true_word_index(w)

    monkeypatch.setattr(language, "word_index", moved)
    results = {r.name: r.ok for r in verify.orbit_checks(6)}
    assert results["orbit readings cover the words at every vertex"] is False
    assert results["completion/reading duality"] is True


def test_orbit_checks_catch_a_dropped_window(monkeypatch):
    true_read = orbits.read
    # "bcbcb" is one window of the one pattern that reads it, bcbcbc.
    monkeypatch.setattr(orbits, "read", lambda p: true_read(p) - {"bcbcb"})
    results = {r.name: r.ok for r in verify.orbit_checks(6)}
    assert results["orbit readings cover the words at every vertex"] is False


def test_orbit_checks_take_each_level_once_in_order(monkeypatch):
    # The benchmark's layer tracer wraps these at their module attributes,
    # and its grow useful_ratio reads the last growth step of each
    # orbits_at_time call: one call per t keeps that step the level checked.
    calls = {"orbits_at_time": [], "closed_walks": [], "generate": []}

    def recording(name, f):
        def recorded(t, *level):
            calls[name].append(t)
            return f(t, *level)

        return recorded

    for module, name in ((orbits, "orbits_at_time"), (verify, "closed_walks"), (language, "generate")):
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    assert all(verify.orbit_checks(8))
    assert calls == {name: list(range(2, 9)) for name in calls}


def test_orbit_checks_catch_a_vertex_with_no_orbits(monkeypatch):
    true_orbits_at_time = orbits.orbits_at_time

    def without_top_vertex(t, shorter=None):
        return frozenset(p for p in true_orbits_at_time(t, shorter) if orbit_index(p) != t)

    monkeypatch.setattr(orbits, "orbits_at_time", without_top_vertex)
    results = {r.name: r.ok for r in verify.orbit_checks(6)}
    assert results["orbit counting bound"] is False


def test_growth_calls_grow_once_per_parent(monkeypatch):
    # The benchmark's layer tracer wraps `orbits.grow` and reads these calls.
    sizes = {s: len(orbits_at_time(s)) for s in range(2, 10)}
    true_grow = orbits.grow
    parents = Counter()

    def counted(p):
        assert isinstance(p, Pattern)
        parents[len(p)] += 1
        return true_grow(p)

    monkeypatch.setattr(orbits, "grow", counted)
    for t in range(3, 11):
        parents.clear()
        orbits_at_time(t)
        assert dict(parents) == {s: sizes[s] for s in range(2, t)}
        shorter = orbits_at_time(t - 1)
        parents.clear()
        orbits_at_time(t, shorter)
        assert dict(parents) == {t - 1: sizes[t - 1]}


def test_growth_from_the_previous_level_is_the_level():
    for t in range(3, 13):
        assert orbits_at_time(t, orbits_at_time(t - 1)) == orbits_at_time(t)


@pytest.mark.parametrize(
    "t, shorter",
    [
        (5, lambda: orbits_at_time(3)),
        (4, lambda: orbits_at_time(3) | orbits_at_time(2)),
        (4, lambda: frozenset(map(str, orbits_at_time(3)))),
    ],
    ids=["level too short", "mixed lengths", "plain strings"],
)
def test_growth_refuses_a_level_of_other_patterns(t, shorter):
    with pytest.raises(ValueError, match=f"length-{t - 1} patterns"):
        orbits_at_time(t, shorter())


def test_orbit_readings_recover_words_at_vertex():
    for t in range(3, 10):
        pats = orbits_at_time(t)
        for k in range(-t, t + 1, 2):
            union = set()
            for p in pats:
                if orbit_index(p) == k:
                    union |= read(p)
            assert tuple(sorted(union)) == words_at_vertex(t, k)


def test_orbit_count_lower_bound_examples():
    assert orbit_count_lower_bound(3, -1) == 1
    assert orbit_count_lower_bound(4, 0) == 2
    assert orbit_count_lower_bound(4, 4) == 1
    for t in range(2, 25):
        for k in language.vertices(t):
            assert orbit_count_lower_bound(t, k) == math.ceil(Fraction(math.comb(t, (t - k) // 2), t))
    with pytest.raises(ValueError):
        orbit_count_lower_bound(4, 1)


@pytest.mark.parametrize("t", range(2, 17))
def test_pattern_counts_are_the_fixed_density_necklace_counts(t):
    # Vertex k holds the orbits with j = (t + k)/2 ones: the length-t binary
    # necklaces of density j, counted exactly.
    counts = Counter(orbit_index(p) for p in orbits_at_time(t))
    assert dict(counts) == {k: fixed_density_necklaces(t, (t + k) // 2) for k in language.vertices(t)}


def test_orbit_count_bound_holds():
    for t in range(2, 10):
        counts = Counter(orbit_index(p) for p in orbits_at_time(t))
        for k, count in counts.items():
            assert count >= orbit_count_lower_bound(t, k)
    # Equality at the two vertices the bound pins down exactly.
    assert Counter(orbit_index(p) for p in orbits_at_time(3))[-1] == 1
    assert Counter(orbit_index(p) for p in orbits_at_time(4))[0] == 2


def test_fundamental_orbits():
    fundamentals = fundamental_orbits()
    assert len(fundamentals) == 6
    assert Pattern("abdc") in fundamentals
    assert fundamentals == {Pattern(s) for s in ("a", "d", "bc", "abc", "bdc", "abdc")}


def test_fundamental_orbits_against_johnson_enumeration():
    assert fundamental_orbits() == simple_cycles_networkx()


def test_orbit_sets_past_the_cap_are_refused_before_growth():
    cap = language.WORD_TIME_MAX
    with pytest.raises(ValueError, match="word-set cap"):
        orbits_at_time(cap + 1)
    with pytest.raises(ValueError, match="word-set cap"):
        verify.orbit_checks(cap + 1)
    # `run_all` refuses past its own, lower cap first.
    with pytest.raises(ValueError, match="verify-all cap"):
        verify.run_all(cap + 1)


def test_decompose_examples():
    dec = decompose(Pattern("abddc"))
    assert Counter(dec.fundamentals()) == Counter({Pattern("abdc"): 1, Pattern("d"): 1})
    assert decompose(Pattern("aaa")).fundamentals() == (Pattern("a"), Pattern("a"), Pattern("a"))


def test_decompose_every_orbit_up_to_length_nine():
    fundamentals = fundamental_orbits()
    for t in range(2, 10):
        for p in orbits_at_time(t):
            dec = decompose(p)
            pieces = dec.fundamentals()
            assert set(pieces) <= fundamentals
            assert sum(map(Counter, pieces), Counter()) == Counter(p)
            assert dec.reglue() == p


def test_decompose_random_length_ten_orbits():
    rng = np.random.default_rng(12)
    pool = sorted(orbits_at_time(10))
    for i in rng.choice(len(pool), size=12, replace=False):
        p = Pattern(pool[i])
        dec = decompose(p)
        assert sum(map(Counter, dec.fundamentals()), Counter()) == Counter(p)
        assert dec.reglue() == p


def test_decomposition_laws_tell_the_letters_from_their_order():
    # abcabc and aabcbc hold the same letters in another cyclic order.
    dec = decompose(Pattern("abcabc"))
    assert dec.laws(Pattern("abcabc")) == {"letters_conserved": True, "reglue_ok": True}
    assert dec.laws(Pattern("aabcbc")) == {"letters_conserved": True, "reglue_ok": False}
    assert decompose(Pattern("abc")).laws(Pattern("abdc")) == {
        "letters_conserved": False,
        "reglue_ok": False,
    }


def test_orbit_checks_catch_a_decomposition_that_drops_a_letter(monkeypatch):
    true_decompose = orbits.decompose

    def dropped(p):
        # abc is a fundamental orbit, so only the decomposition laws see the lost d.
        return true_decompose(Pattern("abc") if p == "abdc" else p)

    monkeypatch.setattr(orbits, "decompose", dropped)
    results = {r.name: r.ok for r in verify.orbit_checks(6)}
    assert results["decomposition into fundamentals with exact regluing"] is False


def test_primitive_root():
    assert primitive_root(Pattern("aa")) == (Pattern("a"), 2)
    assert primitive_root(Pattern("bcbc")) == (Pattern("bc"), 2)
    assert primitive_root(Pattern("abdc")) == (Pattern("abdc"), 1)


@pytest.mark.parametrize("t", range(2, 15))
def test_primitive_root_matches_the_divisor_scan(t):
    for p in orbits_at_time(t):
        root, multiplicity = primitive_root(p)
        assert type(root) is Pattern
        assert (root, multiplicity) == primitive_root_oracle(p)


def test_periodic_point_examples():
    points = [periodic_point(Pattern(s)) for s in ("a", "d", "bc", "abc", "bdc")]
    assert points == [0, 1, Fraction(1, 3), Fraction(1, 7), Fraction(3, 7)]


# First symbol of each letter as a bit: a = PP, b = PQ, c = QP, d = QQ, P = 0, Q = 1.
FIRST_BIT = {"a": "0", "b": "0", "c": "1", "d": "1"}


def _point_of_letters(letters: str) -> Fraction:
    """x of a letter cycle as written, without rotating it to its canonical form."""
    return Fraction(int("".join(FIRST_BIT[x] for x in letters), 2), 2 ** len(letters) - 1)


def _double(x: Fraction) -> Fraction:
    """x -> 2x mod 1 on [0, 1], with 1 its own fixed point."""
    return x if x == 1 else 2 * x % 1


@pytest.mark.parametrize("t", range(2, 11))
def test_doubling_rotates_the_pattern_by_one_letter(t):
    for s in orbits_at_time(t):
        assert periodic_point(s) == _point_of_letters(s)
        for i in range(t):
            rotation, next_rotation = s[i:] + s[:i], s[i + 1 :] + s[: i + 1]
            assert _double(_point_of_letters(rotation)) == _point_of_letters(next_rotation)


def test_a_and_d_cycles_meet_on_the_circle():
    for t in range(2, 15):
        pats = orbits_at_time(t)
        assert len({periodic_point(p) % 1 for p in pats}) == len(pats) - 1


EMBEDDING = "patterns are the periodic orbits of x -> 2x mod 1"
ON_VERTEX = "vertex k holds the orbits with (t + k)/2 ones"


def _doubling_checks() -> dict[str, bool]:
    return {c.name: c.ok for c in verify.orbit_checks(6) if c.name in (EMBEDDING, ON_VERTEX)}


def _fault_power_of_two_denominator(monkeypatch):
    # Read the bits as the terminating fraction m / 2^t instead of m / (2^t - 1).
    point = orbits.periodic_point
    monkeypatch.setattr(orbits, "periodic_point", lambda p: point(p) * (2 ** len(p) - 1) / 2 ** len(p))


def _fault_missing_pattern(monkeypatch):
    at_time = orbits.orbits_at_time
    monkeypatch.setattr(
        orbits,
        "orbits_at_time",
        lambda t, shorter=None: at_time(t, shorter) - {max(at_time(t, shorter))},
    )


def _fault_negated_index(monkeypatch):
    index = orbits.orbit_index
    monkeypatch.setattr(orbits, "orbit_index", lambda p: -index(p))


@pytest.mark.parametrize(
    "fault, expected",
    [
        (_fault_power_of_two_denominator, {EMBEDDING: False, ON_VERTEX: False}),
        (_fault_missing_pattern, {EMBEDDING: False, ON_VERTEX: True}),
        (_fault_negated_index, {EMBEDDING: True, ON_VERTEX: False}),
    ],
)
def test_each_doubling_check_fails_under_its_fault(monkeypatch, fault, expected):
    assert _doubling_checks() == {EMBEDDING: True, ON_VERTEX: True}
    fault(monkeypatch)
    assert _doubling_checks() == expected
