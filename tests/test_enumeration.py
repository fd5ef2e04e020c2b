"""Profile enumeration, irresoluteness counting, and witness searching."""

import hashlib
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


def surplus_vectors(n):
    """The oracle of the cells: chunks, of whole d1 slabs, of the surplus
    vectors d of the ``n``-voter cells, one row each.  With u = d2 + d3 and
    v = d2 - d3, |d2| + |d3| = max(|u|, |v|): the cells with a given d1 are
    the grid u = 2q - r, v = 2p - r, q and p in [0, r], r = n - |d1|."""
    lo, cells = -n, 0
    for d1 in range(-n, n + 1):
        cells += (n + 1 - abs(d1)) ** 2
        if cells >= 1 << 16 or d1 == n:
            r = n - np.abs(np.arange(lo, d1 + 1))
            slab = np.repeat(np.arange(r.size), (r + 1) ** 2)
            index = np.arange(slab.size) - (np.cumsum((r + 1) ** 2) - (r + 1) ** 2)[slab]
            side = r[slab] + 1
            q, p = np.divmod(index, side)
            yield np.stack((slab + lo, q + p + 1 - side, q - p), axis=1)
            lo, cells = d1 + 1, 0


def margin_cells(n):
    """Chunks (margins, weights) of the ``n``-voter cells: ``weights[i]``
    profiles have the margins ``margins[i]``."""
    for d in surplus_vectors(n):
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


def one_row(d, size):
    """Whether a chunk is one row (|d|_1, d1)."""
    return len(set(zip(size.tolist(), d[:, 0].tolist()))) == 1


def test_cells_arrive_in_bounded_chunks():
    cells = enumeration._CELL_CHUNK
    for n in (199, 200):
        chunks = list(enumeration._shell_chunks(np.arange(n % 2, n + 1, 2), cells))
        assert len(chunks) > 1
        assert all(len(d) <= cells or one_row(d, size) for d, size in chunks)
        assert sum(len(d) for d, _ in chunks) == enumeration._cells_of(n)
        assert all(d.dtype == size.dtype == np.int16 for d, size in chunks)


@pytest.mark.parametrize("n", range(41))
def test_the_shell_chunks_hold_the_cells_of_the_oracle_each_once(n):
    oracle = sorted(map(tuple, np.concatenate(list(surplus_vectors(n))).tolist()))
    for cells in (1 << 16, 1 << 10, 12):  # whole shells, split shells, a row a chunk
        chunks = list(enumeration._shell_chunks(np.arange(n % 2, n + 1, 2), cells))
        assert all(len(d) <= cells or one_row(d, size) for d, size in chunks)
        rows = [set(zip(size.tolist(), d[:, 0].tolist())) for d, size in chunks]
        assert sum(map(len, rows)) == len(set().union(*rows))  # no row split between chunks
        d, size = (np.concatenate(column) for column in zip(*chunks))
        assert (size == np.abs(d).sum(axis=1)).all()
        assert (np.diff(size) >= 0).all()  # sizes ascending
        assert sorted(map(tuple, d.tolist())) == oracle, cells
    assert len(set(oracle)) == len(oracle)


def shells_in_int64(size, d1):
    """The surplus vectors of the rows (|d|_1, d1) = (``size``, ``d1``) and
    their sizes, by the walk of :func:`enumeration._shells` in int64: per
    row, t in [0, 4r), d2 = |t - 2r| - r and d3 = |(t + 3r) mod 4r - 2r| - r."""
    size, d1 = size.astype(np.int64), d1.astype(np.int64)
    r = size - np.abs(d1)
    around = np.maximum(4 * r, 1)
    row = np.repeat(np.arange(size.size), around)
    t = np.arange(row.size) - (np.cumsum(around) - around)[row]
    r = r[row]
    d2 = np.abs(t - 2 * r) - r
    d3 = np.abs((t + 3 * r) % around[row] - 2 * r) - r
    return np.stack((d1[row], d2, d3), axis=1), size[row]


def test_the_int16_shells_equal_an_int64_walk_at_the_largest_sizes():
    # the CLI refuses a count past 560 voters (maximin), and _tie_counts one of 2^15
    rows = [(size, d1) for size in range(5) for d1 in range(-size, size + 1)]
    for top in (559, 560, (1 << 15) - 1):
        rows += [(top, d1) for d1 in (-top, 1 - top, -2, -1, 0, 1, 2, top - 1, top)]
    size, d1 = np.array(rows, dtype=np.int32).T
    d, cell_size = enumeration._shells(size, d1)
    wide_d, wide_size = shells_in_int64(size, d1)
    assert d.dtype == cell_size.dtype == np.int16
    assert (d == wide_d).all() and (cell_size == wide_size).all()
    assert (np.abs(wide_d).sum(axis=1) == wide_size).all()
    assert len(set(map(tuple, wide_d.tolist()))) == len(wide_d)


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

    monkeypatch.setattr(enumeration, "_CELL_CHUNK", 64)  # the 12-voter cells take 29 chunks
    monkeypatch.setattr(enumeration, "_face_positions", recording)
    argv = ["figure4", "--rules", "maximin,artificial,plurality,black", "--max-n", "12"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 5 * 4
    assert len(mapped) == 29
    cells = np.concatenate([m for m, _ in margin_cells(12)])
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


def same_parity_cube(reach):
    """Every same-parity triple m with |m_i| <= ``reach``."""
    span = np.arange(-reach, reach + 1)
    m = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)
    return m[(m % 2 == m[:, :1] % 2).all(axis=1)]


def test_the_box_agrees_with_the_face_keys_as_it_grows(keyed_rows):
    filled = 0
    for reach in (0, 1, 10, 11, 24, 25):  # both parities of the reach
        keyed_rows.clear()
        enumeration._grow_box(reach)
        filled += sum(keyed_rows)
        assert filled == (reach + 1) ** 3 + reach**3  # each triple keyed once
        assert enumeration._box.positions.size == (2 * reach + 1) ** 3
        triples = same_parity_cube(reach)
        keyed_rows.clear()
        faces = enumeration._face_positions(triples)
        assert not keyed_rows  # read from the box
        assert (faces == enumeration._keyed_positions(triples)).all()
    enumeration._grow_box(12)  # a smaller box is never asked for
    assert enumeration._box.reach == 25
    keyed_rows.clear()
    enumeration._face_positions(2 * WIDE_TRIPLES)  # past the box: keyed
    assert keyed_rows == [len(WIDE_TRIPLES)]


def test_a_pair_of_rows_is_read_through_the_sum_of_their_keys(keyed_rows):
    rng = np.random.default_rng(7)
    for reach in (0, 1, 10, 11):
        enumeration._grow_box(reach)
        rows = same_parity_cube(reach)
        keys, read = enumeration._sum_reader(rows, np.arange(267))  # codes: the positions
        # random pairs whose sum the box holds, and each edge row plus the origin
        i, j = rng.integers(0, len(rows), size=(2, 4000))
        held = np.abs(rows[i] + rows[j]).max(axis=1) <= reach
        edge = np.flatnonzero(np.abs(rows).max(axis=1) == reach)
        origin = np.flatnonzero(~rows.any(axis=1))
        i, j = np.concatenate((i[held], edge)), np.concatenate((j[held], origin.repeat(edge.size)))
        assert (read(keys[i] + keys[j]) == enumeration._keyed_positions(rows[i] + rows[j])).all()


def test_the_catalogue_holds_one_cell_of_each_of_the_267_faces_in_key_order():
    cells, keys = enumeration._FACE_CELLS, enumeration._FACE_KEYS
    assert isinstance(cells, tuple) and len(cells) == keys.size == 267
    assert (np.diff(keys) > 0).all()
    assert (enumeration._face_keys(np.array(cells)) == keys).all()
    assert all(m[0] % 2 == m[1] % 2 == m[2] % 2 for m in cells)
    assert (enumeration._keyed_positions(np.array(cells)) == np.arange(267)).all()


def test_the_faces_refine_the_classes_and_the_class_lookup_is_total():
    # a face key's top nine base-3 digits are the signs that core.classify reads
    for cell, key in zip(enumeration._FACE_CELLS, enumeration._FACE_KEYS.tolist()):
        digits = [key // 3**power % 3 for power in range(11, 2, -1)]
        assert digits == [sign + 1 for sign in core._signs(cell)], cell
    # and every sign pattern without a Condorcet winner has a class
    free = {core._signs(m) for m in enumeration._FACE_CELLS if core.condorcet_winner(m) is None}
    assert set(core._CLASS_OF_SIGNS) == free and len(free) == 60


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


@pytest.mark.parametrize("rule_ids", [["dodgson"], ["maximin", "young"]])
def test_a_swept_rule_above_its_voter_cap_is_refused_before_any_work(monkeypatch, rule_ids):
    def no_work(*args):
        raise AssertionError(f"work on {args} before the voter cap was checked")

    monkeypatch.setattr(rules, "evaluate_uncached", no_work)
    monkeypatch.setattr(enumeration, "_tie_counts", no_work)
    refusal = f"{rule_ids[-1]} supports at most 9 voters, got 30"
    with pytest.raises(rules.BoundExceededError, match=refusal):
        enumeration.frequency_rows(rule_ids, [4, 6, 8, 30])


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


def scoring_ties_cell_by_cell(vector, score, j):
    """Profiles of the cells with base scores ``score`` and ``j`` voter pairs
    on which the scoring rule ties, evaluated cell by cell: per pair (x, y),
    the interval of u_x on the line u_x - u_y = k_xy, cut by "z is not
    above"; a three-way tie is in all three pairwise counts."""
    s1, s2, s3 = rules.integer_scores(vector)
    gamma = s1 - 2 * s2 + s3
    if gamma == 0:
        ranked = np.sort(score, axis=1)
        return int(((j + 1) * (j + 2) // 2)[ranked[:, 1] == ranked[:, 2]].sum())
    count, k, whole = 0, [], []
    for x, y, z in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        k_xy, rest = np.divmod(score[:, x] - score[:, y], gamma)
        k.append(k_xy)
        whole.append(rest == 0)
        lo, hi = np.maximum(k_xy, 0), (j + k_xy) // 2
        top = gamma * (j + k_xy) + score[:, x] - score[:, z]
        if gamma > 0:
            hi = np.minimum(hi, top // (3 * gamma))
        else:
            lo = np.maximum(lo, -(-top // (3 * gamma)))
        count += int(np.maximum(hi - lo + 1, 0)[whole[-1]].sum())
    u3 = j + k[0] + k[1]
    lowest = np.maximum(np.maximum(k[0], k[1]), 0)
    return count - 2 * int((whole[0] & whole[1] & (u3 % 3 == 0) & (u3 // 3 >= lowest)).sum())


def scoring_counts_cell_by_cell(vector, ns):
    points = enumeration._order_points([rules.integer_scores(vector)] * 6)
    counts = {}
    for n in ns:
        d = np.concatenate(list(surplus_vectors(n)))
        score = enumeration._order_surplus(d) @ points
        counts[n] = scoring_ties_cell_by_cell(vector, score, (n - np.abs(d).sum(axis=1)) // 2)
    return counts


#: the largest points of a score vector that the count takes at 8 voters:
#: its intermediates stay within (6 n + 12) of them
POINTS_AT_8 = (2**63 - 1) // (6 * 8 + 12)


def random_score_vectors(count, seed):
    """Score vectors of small fractions of either sign, every third with
    gamma = s1 - 2 s2 + s3 = 0."""
    rng = np.random.default_rng(seed)

    def entry():
        return Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))

    vectors = []
    for trial in range(count):
        s1, s3 = entry(), entry()
        vectors.append((s1, (s1 + s3) / 2 if trial % 3 == 0 else entry(), s3))
    return vectors


def test_the_score_class_count_matches_the_count_cell_by_cell(monkeypatch):
    points = POINTS_AT_8 - 1  # odd: the last vector has gamma = -1
    at_the_bound = [(POINTS_AT_8, 1, 0), (POINTS_AT_8, -POINTS_AT_8, POINTS_AT_8),
                    (points, (points + 1) // 2, 0)]
    vectors = random_score_vectors(40, 21) + [(2, 1, 0), (1, 1, 1), (0, 0, 0)]
    gammas = Counter()
    # classes recur across chunks, and every shell from |d|_1 = 16 on is split
    # (from 4 on at the bound, whose ranked classes are merged between chunks)
    cases = [(v, range(1, 31), 1 << 10) for v in vectors]
    cases += [(v, range(1, 9), 64) for v in at_the_bound]
    for vector, ns, cells in cases:
        monkeypatch.setattr(enumeration, "_CELL_CHUNK", cells)
        s1, s2, s3 = rules.integer_scores(vector)
        gammas[np.sign(s1 - 2 * s2 + s3)] += 1
        counts = {n: c[0] for n, c in enumeration._tie_counts(ns, [vector]).items()}
        assert counts == scoring_counts_cell_by_cell(vector, ns), vector
    assert min(gammas[-1], gammas[0], gammas[1]) >= 8, gammas


def test_figure4_counts_plurality_on_score_classes_not_cells(monkeypatch, capsys):
    rows = []
    scoring_ties = enumeration._scoring_ties

    def recording(gamma, parts, n):
        rows.append(len(parts[0]))
        return scoring_ties(gamma, parts, n)

    monkeypatch.setattr(enumeration, "_scoring_ties", recording)
    assert cli.main(["figure4", "--rules", "plurality", "--max-n", "30"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 14
    # 2,856 classes of the 19,871 cells of 30 voters: 13,048 rows (class, n),
    # where the cells of n = 4, 6, ..., 30 would be 87,276
    assert len(rows) == 14 and sum(rows) <= 13_048


@pytest.mark.parametrize("vector", [(1, 0, 0), (7, 2, -3)], ids=["plurality", "7,2,-3"])
def test_a_score_class_split_between_chunks_is_counted_as_one(monkeypatch, vector):
    ns = range(4, 41, 2)

    def count(cells):
        rows = []
        scoring_ties = enumeration._scoring_ties

        def recording(gamma, parts, n):
            rows.append(len(parts[0]))
            return scoring_ties(gamma, parts, n)

        monkeypatch.setattr(enumeration, "_CELL_CHUNK", cells)
        monkeypatch.setattr(enumeration, "_scoring_ties", recording)
        counts = {n: c[0] for n, c in enumeration._tie_counts(ns, [vector]).items()}
        return counts, sum(rows)

    whole, whole_rows = count(1 << 16)  # the 45,961 cells of 40 voters in one chunk
    assert count(300) == (whole, whole_rows)  # every shell from |d|_1 = 10 on is split
    assert whole == scoring_counts_cell_by_cell(vector, ns)


#: the artificial rule's irresolute profiles at n = 4, ..., 240, in one list
#: (sha256 of its repr) and their sum, as counted before its rows were grouped
ARTIFICIAL_TO_240 = ("05321a59196819e6", 3157156)


def test_the_artificial_rows_reach_the_fibre_count_in_bounded_groups(monkeypatch):
    calls = []
    fibre_ties = enumeration._fibre_ties

    def recording(pair, score, j, winners):
        calls.append(len(j))
        return fibre_ties(pair, score, j, winners)

    monkeypatch.setattr(enumeration, "_fibre_ties", recording)
    counts = [row.irresolute for row in enumeration.frequency_rows(["artificial"], range(4, 241))]
    digest = hashlib.sha256(repr(counts).encode()).hexdigest()[:16]
    assert (digest, sum(counts)) == ARTIFICIAL_TO_240
    assert max(calls) <= enumeration._CELL_CHUNK


def test_a_count_past_the_int16_cells_is_refused_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError(f"work on {args} before the size was checked")

    monkeypatch.setattr(enumeration, "_shell_chunks", no_work)
    with pytest.raises(rules.BoundExceededError, match="int16"):
        enumeration._tie_counts([4, 1 << 15], [(1, 0, 0)])
    with pytest.raises(AssertionError, match="before the size was checked"):
        enumeration._tie_counts([(1 << 15) - 1], [(1, 0, 0)])


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
