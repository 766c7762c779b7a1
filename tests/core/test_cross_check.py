"""The commit-time content cross-check groups winners by stored bytes
(DESIGN.md §28).

``content_groups`` joins a file to a group whose first file holds the
very same record objects, and compares encodings only for a file that
does not.  Its grouping must equal the bytes-keyed grouping it replaced,
kept below as the reference, on every kind of winner set: the same
objects, distinct objects with equal bytes, lookalikes that are ``==``
but differ in bytes, a divergent minority, a 2-2 split, empty and
missing files.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.records import Record
from repro.core.controller import content_groups
from repro.faults.behaviors import tamper

#: Each lookalike and the one it turns into: ``==`` but other bytes.
#: (Pairs, not a dict: ``1``, ``1.0`` and ``True`` are one dict key.)
SWAP = [(1, 1.0), (1.0, True), (True, 1), (0, False), (False, 0)]


def swapped(value):
    if isinstance(value, float) and value == 0.0:
        return -0.0 if repr(value) == "0.0" else 0.0
    for key, other in SWAP:
        if type(key) is type(value) and key == value:
            return other
    return value


def reference_groups(files):
    """The cross-check's grouping before identity came first, verbatim
    but for the DFS reads: one bytes tuple per readable winner."""
    groups: dict[tuple, list[int]] = {}
    for replica in sorted(files):
        if files[replica] is None:
            continue
        content = tuple(map(Record.encoded, files[replica]))
        groups.setdefault(content, []).append(replica)
    return list(groups.values())


def stored(files):
    return [(replica, files[replica]) for replica in sorted(files) if files[replica] is not None]


looks = st.sampled_from([1, 1.0, True, 0, False, 0.0, -0.0])
base_rows = st.lists(st.tuples(st.integers(0, 3), looks), min_size=1, max_size=12)
VARIANTS = ("same", "same-list", "equal", "lookalike", "tampered", "empty", "missing")
variant = st.tuples(st.sampled_from(VARIANTS), st.integers(0, 11))


def make_file(base, kind, index):
    index %= len(base)
    if kind == "same":
        return base
    if kind == "same-list":
        return list(base)
    if kind == "equal":
        return [Record(record.fields) for record in base]
    if kind == "lookalike":
        key, look = base[index].fields
        return base[:index] + [Record((key, swapped(look)))] + base[index + 1 :]
    if kind == "tampered":
        return base[:index] + [tamper(base[index])] + base[index + 1 :]
    if kind == "empty":
        return []
    return None


class TestGroupsMatchTheBytesReference:
    @given(base_rows, st.lists(variant, min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_generated_winner_sets(self, rows, variants):
        base = [Record(row) for row in rows]
        files = {
            replica: make_file(base, kind, index)
            for replica, (kind, index) in enumerate(variants)
        }
        assert content_groups(stored(files)) == reference_groups(files)

    def test_lookalikes_are_equal_records_with_other_bytes(self):
        for look in (1, 1.0, True, 0, False, 0.0, -0.0):
            record, other = Record((0, look)), Record((0, swapped(look)))
            assert record == other and record.encoded() != other.encoded()

    def test_a_two_two_split_has_no_majority_group(self):
        base = [Record((i, 1)) for i in range(5)]
        bad = make_file(base, "tampered", 2)
        files = {0: base, 1: base, 2: bad, 3: list(bad)}
        assert content_groups(stored(files)) == reference_groups(files) == [[0, 1], [2, 3]]

    def test_a_missing_file_is_left_out(self):
        base = [Record((1, 0.0))]
        files = {0: None, 1: base, 2: make_file(base, "lookalike", 0), 3: base}
        assert content_groups(stored(files)) == [[1, 3], [2]]


class TestEncodingsOnlyWhereIdentityFails:
    def count_encodes(self, monkeypatch):
        calls = [0]
        original = Record.encoded

        def counting(record):
            calls[0] += 1
            return original(record)

        monkeypatch.setattr(Record, "encoded", counting)
        return calls

    def test_identical_replicas_build_no_encoding(self, monkeypatch):
        base = [Record((i, "x")) for i in range(50)]
        calls = self.count_encodes(monkeypatch)
        assert content_groups([(r, list(base)) for r in range(4)]) == [[0, 1, 2, 3]]
        assert calls[0] == 0

    def test_a_divergent_minority_encodes_two_files(self, monkeypatch):
        base = [Record((i, "x")) for i in range(50)]
        bad = make_file(base, "tampered", 7)
        calls = self.count_encodes(monkeypatch)
        files = [(0, base), (1, base), (2, bad), (3, base)]
        assert content_groups(files) == [[0, 1, 3], [2]]
        assert calls[0] == 2 * len(base)
