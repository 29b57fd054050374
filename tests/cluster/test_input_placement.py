"""Input placement costs O(n) wire bytes, not O(s·n).

In the coordinator model each site starts with its own points only.  On the
cluster backend the input reaches the sites in round 1: each site's first
dispatch carries its sticky half, the site view.  With a site metric that
holds only the site's rows, that is ``n_i·d`` float64 coordinates and no
global id (sites speak local ids; the coordinator maps them), so round 1's
``site_dispatch`` frames add up to at most ``8·n·d`` bytes plus a fixed
per-site allowance for the pickle envelope, the task and its arguments.  A
site metric that referenced the whole input would ship ``n·d`` coordinates
to every site: about 20-35 KB over the allowance per site on this instance,
and shipping each site's int64 shard would add ``8·n`` bytes in all.
"""

import numpy as np
import pytest

from repro import partial_kcenter, partial_kmedian
from repro.cluster import ClusterBackend
from repro.data import gaussian_mixture_with_outliers

pytestmark = pytest.mark.cluster

N_POINTS, DIM = 2400, 2
#: Raw bytes allowed per site on top of its rows: the frame header, the
#: pickle envelope, the resident key, the task function and its arguments.
PER_SITE_ALLOWANCE = 2048


@pytest.fixture(scope="module")
def cluster2():
    backend = ClusterBackend(n_hosts=2)
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def points():
    workload = gaussian_mixture_with_outliers(
        n_inliers=N_POINTS - 40, n_outliers=40, n_clusters=4, dim=DIM, rng=2017
    )
    assert workload.points.shape == (N_POINTS, DIM)
    return workload.points


def _round1_dispatch_raw_bytes(result):
    return sum(
        rec.raw_bytes
        for rec in result.ledger.wire.records
        if rec.round_index == 1 and rec.kind == "site_dispatch"
    )


@pytest.mark.parametrize("n_sites", [2, 4, 8])
@pytest.mark.parametrize("solve", [partial_kcenter, partial_kmedian],
                         ids=["kcenter", "kmedian"])
def test_round1_dispatch_is_linear_in_n(cluster2, points, solve, n_sites):
    result = solve(points, 4, 40, n_sites=n_sites, seed=1, backend=cluster2)
    placed = _round1_dispatch_raw_bytes(result)
    rows = 8 * N_POINTS * DIM
    assert rows < placed <= rows + PER_SITE_ALLOWANCE * n_sites, (
        f"round-1 dispatch {placed} B for {n_sites} sites; the sites' own rows "
        f"are {rows} B, so {(placed - rows) / n_sites:.0f} B per site on top"
    )
