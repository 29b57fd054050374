"""The resident-state digest sizer: arrays are priced at ``nbytes``, never read."""

import resource
import sys

import numpy as np

from repro.runtime.state import state_entry_size


def _peak_rss_bytes() -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024  # Linux reports KiB


class TestStateEntrySize:
    def test_sizes_a_sparse_gib_memmap_without_reading_it(self, tmp_path):
        # 1 GiB on paper, no data blocks on disk: reading or copying it would
        # grow the peak RSS by up to a GiB.
        matrix = np.memmap(
            tmp_path / "costs.npy", dtype=np.float64, mode="w+", shape=(1 << 14, 1 << 13)
        )
        before = _peak_rss_bytes()
        size = state_entry_size({"cost_matrix": matrix, "local_k": 8})
        grown = _peak_rss_bytes() - before
        del matrix
        assert size >= 1 << 30
        assert grown < 64 * 2**20

    def test_array_length_changes_the_size(self):
        short = {"centers": np.arange(10), "objective": "median"}
        longer = {"centers": np.arange(11), "objective": "median"}
        assert state_entry_size(short) != state_entry_size(longer)

    def test_equal_entries_have_equal_sizes(self):
        # A replayed copy is a different object with the same content, and
        # recovery compares the two digests.
        def entry():
            return {"grid": np.arange(6), "costs": np.linspace(0.0, 1.0, 6), "k": 4}

        assert state_entry_size(entry()) == state_entry_size(entry())
