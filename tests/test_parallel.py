import pytest

from resim import model, parallel
from resim.parallel import WorkerPool


class TestRanges:
    def test_single_worker(self):
        with WorkerPool(1) as pool:
            assert pool.ranges(10, 1) == [(0, 10)]

    def test_balanced_split(self):
        with WorkerPool(3) as pool:
            ranges = pool.ranges(10, 1)
        assert [c1 - c0 for c0, c1 in ranges] == [4, 3, 3]
        assert ranges[0][0] == 0 and ranges[-1][1] == 10
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))

    def test_spe10_full_scale_arithmetic(self):
        with WorkerPool(16) as pool:
            ranges = pool.ranges(1_122_000, model.MIN_CELLS)
        assert {c1 - c0 for c0, c1 in ranges} == {70_125}

    def test_more_workers_than_cells(self):
        with WorkerPool(8) as pool:
            assert pool.ranges(3, 1) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("n, min_size, expect", [
        (10, 4, [(0, 5), (5, 10)]),     # at most n // min_size ranges
        (7, 4, [(0, 7)]),               # too small to split
        (3, 4, [(0, 3)]),               # under the floor still gets one range
        (0, 4, [(0, 0)]),
    ])
    def test_floor(self, n, min_size, expect):
        with WorkerPool(3) as pool:
            assert pool.ranges(n, min_size) == expect

    def test_bench_workload_splits(self):
        # 60x220x6 and 60x220x1 two-phase grids with 5 wells, two workers
        with WorkerPool(2) as pool:
            assert pool.ranges(79_200, model.MIN_CELLS) == [(0, 39_600), (39_600, 79_200)]
            assert len(pool.ranges(2 * 79_200 + 5, parallel.MIN_ROWS)) == 2
            assert len(pool.ranges(13_200, model.MIN_CELLS)) == 2
            assert pool.ranges(2 * 13_200 + 5, parallel.MIN_ROWS) == [(0, 26_405)]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            WorkerPool(0)
