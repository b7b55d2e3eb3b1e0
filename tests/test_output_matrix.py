"""Every row of the committed output matrix prints what it printed when its
hash was written (see ``tests/output_matrix.py``)."""

from output_matrix import output_hashes, read_hashes


def test_output_matrix_matches_its_hashes(tmp_path):
    expected = read_hashes()
    got = output_hashes(tmp_path)
    assert list(got) == list(expected)  # the same rows, in the same order
    assert [label for label, digest in got.items() if digest != expected[label]] == []
