"""Profile enumeration, irresoluteness counting, and witness searching."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from trivote import axioms, cli, core, enumeration, rules
from trivote.core import parse_profile
from trivote.enumeration import (
    FrequencyRow,
    ProfileCursor,
    all_tied_count,
    colex_successor,
    enumerate_profiles,
    irresoluteness,
    profile_count,
    profiles_up_to,
    search,
)


def P(text):
    return parse_profile(text)


# ---------------------------------------------------------------------------
# the cursor and the colex order
# ---------------------------------------------------------------------------


def test_profile_counts():
    assert profile_count(1) == 6
    assert profile_count(4) == 126
    assert profile_count(8) == 1287
    for n in range(9):
        assert profile_count(n) == math.comb(n + 5, 5)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_is_exhaustive_and_duplicate_free(n):
    seen = list(enumerate_profiles(n))
    assert len(seen) == profile_count(n)
    assert len(set(seen)) == len(seen)
    assert all(sum(p) == n for p in seen)
    assert seen == list(ProfileCursor(n))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_cursor_is_colexicographic(n):
    seen = list(enumerate_profiles(n))
    assert seen == sorted(seen, key=lambda p: tuple(reversed(p)))


def test_colex_successor_walks_the_whole_universe():
    profile = (3, 0, 0, 0, 0, 0)
    count = 1
    while (profile := colex_successor(profile)) is not None:
        count += 1
    assert count == profile_count(3)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_cursor_length_and_first_profile(n):
    cursor = ProfileCursor(n)
    assert len(cursor) == profile_count(n) == len(list(cursor))
    assert next(iter(cursor)) == (n, 0, 0, 0, 0, 0)


def test_cursor_rejects_a_negative_voter_count():
    with pytest.raises(ValueError):
        ProfileCursor(-1)


def test_profiles_up_to_orders_by_voter_count_then_colex():
    seen = list(profiles_up_to(3))
    assert len(seen) == 6 + 21 + 56
    assert [sum(p) for p in seen] == sorted(sum(p) for p in seen)


# ---------------------------------------------------------------------------
# margin cells and their profile counts
# ---------------------------------------------------------------------------


def margin_cells(n):
    """Chunks (margins, weights) of the ``n``-voter cells: ``weights[i]``
    profiles have the margins ``margins[i]``."""
    for d in enumeration._surplus_vectors(n):
        j = (n - np.abs(d).sum(axis=1)) // 2
        yield d @ enumeration._SURPLUS_TO_MARGINS.T, (j + 1) * (j + 2) // 2


def cell_histogram(n):
    histogram = Counter()
    for m, weights in margin_cells(n):
        for triple, weight in zip(m.tolist(), weights.tolist()):
            histogram[tuple(triple)] += weight
    return histogram


def test_cell_weights_sum_to_the_profile_count():
    for n in range(13):
        total = sum(int(w.sum()) for _, w in margin_cells(n))
        assert total == profile_count(n), n


@pytest.mark.parametrize("n", range(10))
def test_cell_histogram_matches_brute_force_margins(n):
    brute = Counter(core.margins(p) for p in enumerate_profiles(n))
    assert cell_histogram(n) == brute


def test_cells_arrive_in_bounded_chunks():
    chunks = list(margin_cells(60))
    assert len(chunks) > 1
    slab = 61 * 61
    assert all(len(m) < enumeration._CELL_CHUNK + slab for m, _ in chunks)
    assert sum(len(m) for m, _ in chunks) == len(cell_histogram(60))


@pytest.mark.parametrize("rule_id", rules.PAIRWISE_RULE_IDS)
def test_a_margin_rule_is_constant_on_every_sign_face(rule_id):
    margin_rule = rules.RULES[rule_id].compute
    codes = enumeration._face_codes(margin_rule)
    for n in (15, 16):
        for m, _ in margin_cells(n):
            for triple, face in zip(m.tolist(), enumeration._face_positions(m).tolist()):
                expected = margin_rule(tuple(triple))
                assert core.CHOICE_SETS[codes[face]] == expected, triple


#: every same-parity integer triple in [-24, 24]^3: the images that the axiom
#: checkers read (m - v_o, m + shift, sigma m, 2m, m1 + m2) reach past the
#: cells of n = 15, 16
WIDE_TRIPLES = np.array([
    t for t in itertools.product(range(-24, 25), repeat=3) if t[0] % 2 == t[1] % 2 == t[2] % 2
])


@pytest.mark.parametrize("rule_id", rules.PAIRWISE_RULE_IDS)
def test_a_margin_rule_is_constant_on_every_sign_face_of_a_wide_cube(rule_id):
    margin_rule = rules.RULES[rule_id].compute
    codes = enumeration._face_codes(margin_rule)
    faces = enumeration._face_positions(WIDE_TRIPLES).tolist()
    assert len(WIDE_TRIPLES) == 29449 and len(set(faces)) == 267
    for triple, face in zip(WIDE_TRIPLES.tolist(), faces):
        assert margin_rule(tuple(triple)) == core.CHOICE_SETS[codes[face]], triple


@pytest.mark.parametrize(
    "champions",
    [axioms._condorcet_winner_set, core.intermediate_condorcet_winners],
    ids=["condorcet_winner", "unbeaten"],
)
def test_the_candidates_who_must_win_are_constant_on_every_sign_face(champions):
    assert champions in axioms._CHAMPIONS.values()
    codes = enumeration._face_codes(champions)
    faces = enumeration._face_positions(WIDE_TRIPLES).tolist()
    for triple, face in zip(WIDE_TRIPLES.tolist(), faces):
        assert champions(tuple(triple)) == core.CHOICE_SETS[codes[face]], triple


def test_one_figure4_call_maps_each_cell_of_its_largest_electorate_once(monkeypatch, capsys):
    mapped = []
    face_positions = enumeration._face_positions

    def recording(m):
        mapped.append(m.copy())
        return face_positions(m)

    monkeypatch.setattr(enumeration, "_CELL_CHUNK", 64)  # the 12-voter cells take 14 chunks
    monkeypatch.setattr(enumeration, "_face_positions", recording)
    argv = ["figure4", "--rules", "maximin,artificial,plurality,black", "--max-n", "12"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 5 * 4
    chunks = [m for m, _ in margin_cells(12)]
    assert len(mapped) == len(chunks) == 14
    cells = np.concatenate(chunks)
    assert sum(map(len, mapped)) == len(cells)
    assert sorted(map(tuple, np.concatenate(mapped).tolist())) == sorted(map(tuple, cells.tolist()))


def test_the_count_budget_weighs_the_cells_and_a_bound_on_the_tied_rows():
    maximin = enumeration._face_codes(rules.maximin_margins)
    for n in range(41):
        cells = np.concatenate([m for m, _ in margin_cells(n)])
        assert enumeration._cells_of(n) == len(cells)
        tied = int(enumeration._SEVERAL[maximin[enumeration._face_positions(cells)]].sum())
        bound = enumeration._tied_rows_at_most(n)
        assert tied <= bound and (n % 2 or bound - tied <= n), n  # tight for even n


@pytest.fixture
def keyed_rows(monkeypatch):
    """An empty box for the test; the keyed rows are counted."""
    keyed = []
    face_keys = enumeration._face_keys

    def counting(m):
        keyed.append(len(m))
        return face_keys(m)

    monkeypatch.setattr(enumeration, "_box", enumeration._box._replace(reach=-1))
    monkeypatch.setattr(enumeration, "_face_keys", counting)
    return keyed


def test_the_box_agrees_with_the_face_keys_as_it_grows(keyed_rows):
    inside = WIDE_TRIPLES[np.abs(WIDE_TRIPLES).max(axis=1) <= 10]
    for reach, triples in ((10, inside), (24, WIDE_TRIPLES), (25, WIDE_TRIPLES)):
        enumeration._grow_box(reach)
        assert enumeration._box.positions.size == (2 * reach + 1) * (reach + 1) ** 2
        keyed_rows.clear()
        faces = enumeration._face_positions(triples)
        assert not keyed_rows  # read from the box
        assert (faces == enumeration._keyed_positions(triples)).all()
    enumeration._grow_box(12)  # a smaller box is never asked for
    assert enumeration._box.reach == 25
    keyed_rows.clear()
    enumeration._face_positions(2 * WIDE_TRIPLES)  # past the box: keyed
    assert keyed_rows == [len(WIDE_TRIPLES)]


def test_the_catalogue_holds_one_cell_of_each_of_the_267_faces_in_key_order():
    cells, keys = enumeration._FACE_CELLS, enumeration._FACE_KEYS
    assert isinstance(cells, tuple) and len(cells) == keys.size == 267
    assert (np.diff(keys) > 0).all()
    assert (enumeration._face_keys(np.array(cells)) == keys).all()
    assert all(m[0] % 2 == m[1] % 2 == m[2] % 2 for m in cells)
    assert (enumeration._keyed_positions(np.array(cells)) == np.arange(267)).all()


def test_every_triple_maps_to_the_catalogue_entry_with_its_own_key(keyed_rows):
    enumeration._grow_box(24)  # the positions are read both through the keys and the box
    cells = [m for n in range(17) for m, _ in margin_cells(n)]
    for triples in (WIDE_TRIPLES, *cells):
        for faces in (enumeration._keyed_positions(triples), enumeration._face_positions(triples)):
            assert (enumeration._FACE_KEYS[faces] == enumeration._face_keys(triples)).all()


@pytest.mark.parametrize("removed", [0, 133, 266])
def test_a_key_missing_from_the_catalogue_makes_the_lookup_raise(monkeypatch, removed):
    keys, table = enumeration._FACE_KEYS, enumeration._POSITION_OF_KEY.copy()
    table[keys[removed]] = 0  # the catalogue without that entry
    table[keys[removed + 1 :]] -= 1
    monkeypatch.setattr(enumeration, "_POSITION_OF_KEY", table)
    lost = np.array([enumeration._FACE_CELLS[removed]])
    with pytest.raises(LookupError, match=f"the key {keys[removed]}$"):
        enumeration._keyed_positions(lost)
    with pytest.raises(LookupError):
        enumeration._keyed_positions(WIDE_TRIPLES)
    others = np.array([m for i, m in enumerate(enumeration._FACE_CELLS) if i != removed])
    assert (enumeration._keyed_positions(others) == np.arange(266)).all()


# ---------------------------------------------------------------------------
# completely tied profiles
# ---------------------------------------------------------------------------


def test_all_tied_count_matches_brute_force():
    for n in range(1, 11):
        brute = sum(
            1
            for p in enumerate_profiles(n)
            if core.margins(p) == (0, 0, 0)
        )
        assert all_tied_count(n) == brute
        if n % 2 == 0:
            assert all_tied_count(n) == math.comb(n // 2 + 2, 2)
        else:
            assert all_tied_count(n) == 0


def test_exclusion_convention_only_subtracts_for_the_listed_rules():
    excluding = {r for r, rule in rules.RULES.items() if rule.exclude_all_tied}
    assert excluding == {"maximin", "nanson", "leximin"}
    row = irresoluteness("black", 4)
    raw = sum(1 for p in enumerate_profiles(4) if len(rules.evaluate("black", p)) >= 2)
    assert row.irresolute == raw == 18
    row = irresoluteness("maximin", 4)
    raw = sum(
        1 for p in enumerate_profiles(4) if len(rules.evaluate("maximin", p)) >= 2
    )
    assert row.irresolute == raw - all_tied_count(4) == 42
    # the convention is overridable either way
    assert irresoluteness("black", 4, exclude_all_tied=True).irresolute == 12
    assert irresoluteness("maximin", 4, exclude_all_tied=False).irresolute == 48


# ---------------------------------------------------------------------------
# frequency rows and published data points
# ---------------------------------------------------------------------------


def test_frequency_row_arithmetic_and_csv():
    row = FrequencyRow(4, "maximin", 42, 126)
    assert row.fraction == Fraction(1, 3)
    assert row.fraction_str() == "0.333333"
    assert row.csv() == "4,maximin,42,126,0.333333"
    assert FrequencyRow(2, "x", 1, 3).fraction_str() == "0.333333"
    with pytest.raises(ValueError):
        FrequencyRow(4, "maximin", 127, 126)


# fraction of anonymous profiles with more than one winner, as published in
# the irresoluteness figure (even n up to 30; figure values are truncated,
# so they are matched to 1e-4)
PUBLISHED_FRACTIONS = {
    "maximin": {
        4: "0.333333", 6: "0.264069", 8: "0.219114", 10: "0.18681",
        12: "0.16257", 14: "0.14396", 16: "0.12914", 18: "0.11706",
        20: "0.10705", 22: "0.09862", 24: "0.09141", 26: "0.08519",
        28: "0.07976", 30: "0.07497",
    },
    "nanson": {
        4: "0.142857", 6: "0.134199", 8: "0.121212", 10: "0.10889",
        12: "0.09857", 14: "0.08978", 16: "0.08226", 18: "0.07587",
        20: "0.07035", 22: "0.06555", 24: "0.06135", 26: "0.05764",
        28: "0.05435", 30: "0.05141",
    },
    "leximin": {
        4: "0.09523", 6: "0.06926", 8: "0.05128", 10: "0.0389",
        12: "0.0307", 14: "0.0247", 16: "0.0203", 18: "0.0170",
        20: "0.0144", 22: "0.0124", 24: "0.0107", 26: "0.0094",
        28: "0.0083", 30: "0.0074",
    },
    "black": {
        4: "0.14285", 6: "0.10389", 8: "0.07692", 10: "0.05794",
        12: "0.04686", 14: "0.03869", 16: "0.03228", 18: "0.02775",
        20: "0.02416", 22: "0.02118", 24: "0.01887", 26: "0.01695",
        28: "0.01529", 30: "0.01394",
    },
}


@pytest.mark.parametrize("rule_id", sorted(PUBLISHED_FRACTIONS))
def test_irresoluteness_reproduces_the_published_curves(rule_id):
    for n, printed in PUBLISHED_FRACTIONS[rule_id].items():
        row = irresoluteness(rule_id, n)
        assert abs(float(row.fraction) - float(printed)) <= 1e-4, (rule_id, n)


@pytest.mark.parametrize("rule_id", sorted(PUBLISHED_FRACTIONS))
def test_irresoluteness_fraction_strictly_decreases(rule_id):
    fractions = [irresoluteness(rule_id, n).fraction for n in range(4, 31, 2)]
    assert all(late < early for early, late in zip(fractions, fractions[1:]))


# ---------------------------------------------------------------------------
# every counting method against the scalar rules
# ---------------------------------------------------------------------------

KERNEL_RULE_IDS = rules.PAIRWISE_RULE_IDS + (
    "plurality", "artificial", "scoring:3,2,0", "scoring:1,1/2,0",
)


@pytest.mark.parametrize("rule_id", KERNEL_RULE_IDS)
def test_kernel_count_matches_scalar_sweep(rule_id):
    for n in (3, 4, 6, 7):
        row = irresoluteness(rule_id, n, exclude_all_tied=False)
        scalar = sum(
            1
            for p in enumerate_profiles(n)
            if len(rules.evaluate_uncached(rule_id, p)) >= 2
        )
        assert row.irresolute == scalar, (rule_id, n)


def test_one_pass_over_both_parities_matches_a_profile_sweep(monkeypatch):
    monkeypatch.setattr(enumeration, "_CELL_CHUNK", 64)  # every electorate spans chunks
    capped = [r for r in rules.ALL_RULE_IDS if rules.RULES[r].max_voters < 12]
    uncapped = [r for r in rules.ALL_RULE_IDS if r not in capped] + ["scoring:3,1,0"]
    assert capped == ["dodgson", "young"]
    for rule_ids, ns in ((uncapped, range(1, 13)), (capped, range(1, 10))):
        rows = enumeration.frequency_rows(rule_ids, ns, exclude_all_tied=False)
        assert [(row.n, row.rule) for row in rows] == [(n, r) for n in ns for r in rule_ids]
        for row in rows:
            swept = sum(
                len(rules.evaluate_uncached(row.rule, p)) >= 2 for p in ProfileCursor(row.n)
            )
            assert row.irresolute == swept, (row.rule, row.n)
    swept = [
        sum(core.condorcet_winner(core.margins(p)) is not None for p in ProfileCursor(n))
        for n in range(1, 13)
    ]
    assert enumeration.condorcet_profile_counts(range(1, 13)) == swept


# irresolute profiles (completely tied ones included) at 59 and 60 voters, as
# counted profile by profile by the blocked numpy scan of all C(n+5, 5)
# profiles, which counted these rules before the margin-cell method (the
# plurality, artificial and scoring entries were recorded just before the scan
# was deleted); the top_cycle, stable_voting, ranked_pairs and kemeny entries
# were counted by evaluating the margin function once per margin cell, just
# before the per-face evaluation replaced it
BLOCK_SCAN_COUNTS = {
    "maximin": {59: 74910, 60: 326526},
    "leximin": {59: 3300, 60: 18366},
    "black": {59: 24090, 60: 45426},
    "borda": {59: 126390, 60: 135126},
    "copeland": {59: 474672, 60: 633888},
    "nanson": {59: 3300, 60: 234126},
    "strict_nanson": {59: 3300, 60: 263886},
    "baldwin": {59: 24090, 60: 353586},
    "plurality": {59: 192060, 60: 196176},
    "artificial": {59: 267, 60: 1653},
    "scoring:3,1,0": {59: 76830, 60: 80493},
    "scoring:1,1/3,0": {59: 76830, 60: 80493},
    "top_cycle": {59: 474672, 60: 879408},
    "stable_voting": {59: 74910, 60: 81006},
    "ranked_pairs": {59: 74910, 60: 326526},
    "kemeny": {59: 74910, 60: 326526},
}


@pytest.mark.parametrize("rule_id", sorted(BLOCK_SCAN_COUNTS))
def test_margin_cell_counts_match_the_frozen_block_scan(rule_id):
    for n, expected in BLOCK_SCAN_COUNTS[rule_id].items():
        assert irresoluteness(rule_id, n, exclude_all_tied=False).irresolute == expected


# irresolute profiles (completely tied ones included) at 99 and 100 voters,
# recorded at commit 4c2d04f, where the artificial rule's fibres were
# expanded profile by profile
LARGE_N_COUNTS = {
    "artificial": {99: 1127, 100: 6653},
    "plurality": {99: 1357144, 100: 1413363},
}


def test_large_electorate_counts_stay_pinned():
    for rule_id, expected in LARGE_N_COUNTS.items():
        rows = enumeration.frequency_rows([rule_id], [99, 100], exclude_all_tied=False)
        assert {row.n: row.irresolute for row in rows} == expected, rule_id


def test_search_tree_rules_count_by_scalar_sweep():
    for rule_id in ("dodgson", "young"):
        row = irresoluteness(rule_id, 4, exclude_all_tied=False)
        scalar = sum(
            1 for p in enumerate_profiles(4) if len(rules.evaluate(rule_id, p)) >= 2
        )
        assert row.irresolute == scalar


# gamma = s1 - 2 s2 + s3 > 0, < 0 and = 0, a fractional, two reversed and a
# constant vector
FIBRE_RULE_IDS = (
    "artificial",
    "scoring:3,1,0",
    "scoring:5,2,0",
    "scoring:1,1,0",
    "scoring:2,1,0",
    "scoring:1,1/3,0",
    "scoring:0,1,0",
    "scoring:0,0,1",
    "scoring:1,1,1",
)


@pytest.mark.parametrize("rule_id", FIBRE_RULE_IDS)
def test_fibre_counts_match_a_brute_force_count(rule_id):
    for n in range(1, 13):
        brute = Counter(
            len(rules.evaluate_uncached(rule_id, p)) >= 2 for p in ProfileCursor(n)
        )
        row = irresoluteness(rule_id, n, exclude_all_tied=False)
        assert row.irresolute == brute[True], (rule_id, n)


def fibre_ties_by_enumeration(pair, score, j, winners):
    """Per cell, the points t of the simplex t1 + t2 + t3 = j at which several
    winners share the top score, found point by point."""
    ties = []
    for k, size, competing in zip(score.tolist(), j.tolist(), winners.tolist()):
        count = 0
        for t1 in range(size + 1):
            for t2 in range(size - t1 + 1):
                totals = [k[x] + t1 * pair[0][x] + t2 * pair[1][x] + (size - t1 - t2) * pair[2][x]
                          for x in range(3) if competing[x]]
                count += totals.count(max(totals)) >= 2
        ties.append(count)
    return ties


def test_the_closed_form_fibre_count_matches_an_enumeration_of_the_simplex():
    rng = np.random.default_rng(19)
    masks = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=bool)
    degenerate = three_way = 0
    for trial in range(300):
        pair = rng.integers(-6, 7, size=(3, 3))
        if trial % 3 == 0:  # a pair whose difference is constant on every fibre: a = b = 0
            x, y = rng.choice(3, size=2, replace=False)
            pair[:, y] = pair[:, x] + rng.integers(-3, 4)
        score = rng.integers(-12, 13, size=(40, 3))
        j = rng.integers(0, 9, size=40)
        winners = masks[rng.integers(0, 4, size=40)]
        expected = fibre_ties_by_enumeration(pair.tolist(), score, j, winners)
        assert enumeration._fibre_ties(pair, score, j, winners).tolist() == expected, pair
        differences = [pair[:, x] - pair[:, y] for x, y in ((0, 1), (0, 2), (1, 2))]
        degenerate += any(len(set(d.tolist())) == 1 for d in differences)
        corner = score + pair[2] * j[:, None]  # the scores at t = (0, 0, j)
        three_way += int((winners.all(axis=1) & (corner.min(axis=1) == corner.max(axis=1))).sum())
    assert degenerate >= 100 and three_way > 0


def test_figure4_counts_the_artificial_rule_once_per_score_table(monkeypatch, capsys):
    tables = []
    fibre_ties = enumeration._fibre_ties

    def recording(pair, score, j, winners):
        tables.append(pair.tolist())
        return fibre_ties(pair, score, j, winners)

    monkeypatch.setattr(enumeration, "_fibre_ties", recording)
    argv = ["figure4", "--rules", "maximin,nanson,leximin,black,baldwin,plurality,artificial"]
    assert cli.main(argv + ["--max-n", "30"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 7 * 14
    # n = 4 and 6 share a table, n = 8 has its own, and n >= 10 the default one
    assert len(tables) == len({str(t) for t in tables}) == 3


def test_parallel_and_serial_counts_agree():
    for rule_id in ("maximin", "artificial", "borda"):
        serial = irresoluteness(rule_id, 12, workers=1)
        parallel = irresoluteness(rule_id, 12, workers=4)
        assert serial == parallel


def test_worker_env_override(monkeypatch):
    monkeypatch.setenv("TRIVOTE_WORKERS", "3")
    assert irresoluteness("plurality", 10) == irresoluteness("plurality", 10, workers=1)


def irresoluteness_via_orbits(rule_id, n, exclude_all_tied=None):
    """Recount by scanning one representative per relabelling orbit.

    Each profile is counted through the lexicographically least member of its
    orbit under candidate permutations, weighted by the orbit size.  For a
    neutral rule this must reproduce :func:`irresoluteness` exactly.
    """
    if exclude_all_tied is None:
        exclude_all_tied = rules.resolve(rule_id)[1].exclude_all_tied
    count = 0
    for profile in ProfileCursor(n):
        orbit = {core.permute_profile(profile, sigma) for sigma in core.PERMUTATIONS}
        if profile == min(orbit):
            if len(rules.evaluate(rule_id, profile)) >= 2:
                count += len(orbit)
    tied = all_tied_count(n) if exclude_all_tied else 0
    return FrequencyRow(n, rule_id, count - tied, profile_count(n))


@pytest.mark.parametrize("rule_id", ["maximin", "leximin", "black", "borda"])
def test_orbit_recount_matches_for_neutral_rules(rule_id):
    for n in (4, 7):
        assert irresoluteness_via_orbits(rule_id, n) == irresoluteness(rule_id, n)


# ---------------------------------------------------------------------------
# leximin is resolute whenever possible
# ---------------------------------------------------------------------------


def test_leximin_irresolute_exactly_on_three_margin_classes():
    for profile in profiles_up_to(8):
        irresolute = len(rules.evaluate("leximin", profile)) >= 2
        kind = core.classify(core.margins(profile)).kind
        assert irresolute == (kind in ("A", "B", "E")), profile


def test_leximin_resolute_whenever_possible():
    """Any leximin tie forces a tie in every neutral pairwise rule."""
    table_ids = tuple(rules._TABLE)
    for profile in profiles_up_to(10):
        if len(rules.evaluate("leximin", profile)) >= 2:
            for rule_id in table_ids:
                assert len(rules.evaluate(rule_id, profile)) >= 2, (profile, rule_id)


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------


def test_search_modes_and_determinism():
    def tied_pair(profile):
        return core.margins(profile) == (0, 0, 0)

    first = search(tied_pair, 4, mode="first")
    assert len(first) == 1 and sum(first[0]) == 2
    everything = search(tied_pair, 4, mode="all")
    assert len(everything) == all_tied_count(2) + all_tied_count(4)
    assert everything == search(tied_pair, 4, mode="all")
    assert search(lambda p: False, 5) == []
    with pytest.raises(ValueError):
        search(tied_pair, 4, mode="some")


def test_search_powers_the_homogeneity_witness():
    def doubling_changes_winners(profile):
        return rules.evaluate("artificial", profile) != rules.evaluate(
            "artificial", core.t_fold(profile, 2)
        )

    hits = search(doubling_changes_winners, 8, mode="first")
    assert hits and core.total_voters(hits[0]) <= 8


def test_weak_scoring_override_needs_eleven_voters():
    def cw_loses_every_weak_scoring_rule(profile):
        m = core.margins(profile)
        return core.condorcet_winner(m) == core.A and rules.dominates_all_scoring(
            profile, core.B, "weak"
        )

    assert search(cw_loses_every_weak_scoring_rule, 10, mode="all") == []
    witness = P("4abc+3bca+2bac+2cab")
    assert cw_loses_every_weak_scoring_rule(witness)
    eleven = search(cw_loses_every_weak_scoring_rule, 11, mode="all")
    assert witness in eleven
