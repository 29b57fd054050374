"""The benchmark's workloads: generated inputs and the job each one runs.

Every workload drives the public drivers (:func:`repro.partial_kmedian`,
:func:`repro.partial_kcenter`) on point clouds from
:func:`repro.data.gaussian_mixture_with_outliers`.  The workload seed is the
only source of randomness: it fixes a list of input *variants*, and the
drivers receive nothing but the generated arrays plus a per-variant job
seed.  A run cycles through the variants, so its averages cover many
instances and stay steady from one seed to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro import partial_kcenter, partial_kmedian
from repro.data import gaussian_mixture_with_outliers

#: Closed-loop shape shared by every workload: one client process keeps this
#: many jobs in flight on one warm pool of this many runner hosts.
IN_FLIGHT = 2
N_HOSTS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    driver: str
    n_inliers: int
    n_outliers: int
    n_clusters: int
    n_sites: int
    k: int
    t: int
    variants: int

    def inputs(self, seed: int) -> List[np.ndarray]:
        """The run's input variants; the same seed gives the same arrays."""
        return [
            gaussian_mixture_with_outliers(
                self.n_inliers, self.n_outliers, self.n_clusters, dim=2,
                rng=np.random.default_rng([seed, variant]),
            ).points
            for variant in range(self.variants)
        ]

    def run(self, points: np.ndarray, variant: int, backend, trace: bool = False):
        """One clustering job on ``backend`` (a service lane or ``"serial"``)."""
        drive = partial_kmedian if self.driver == "kmedian" else partial_kcenter
        return drive(
            points, self.k, self.t, n_sites=self.n_sites, seed=variant,
            backend=backend, trace=trace,
        )

    def params(self) -> Dict[str, object]:
        return {
            "driver": self.driver, "n_points": self.n_inliers + self.n_outliers,
            "n_clusters": self.n_clusters, "n_sites": self.n_sites, "k": self.k,
            "t": self.t, "variants": self.variants, "loop": f"closed, {IN_FLIGHT} in flight",
            "n_hosts": N_HOSTS,
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="kmedian_sites",
            why="site-local local_search_partial/trim_outliers is nearly all "
                "job time; wire and dispatch are under 1%",
            driver="kmedian", n_inliers=380, n_outliers=20, n_clusters=4,
            n_sites=4, k=4, t=20, variants=16,
        ),
        Workload(
            name="kcenter_sites",
            why="site-local Gonzalez and greedy disk cover over dense distance "
                "blocks, ~700 KB of frames per job, and no local search at all",
            driver="kcenter", n_inliers=8000, n_outliers=200, n_clusters=5,
            n_sites=4, k=5, t=200, variants=8,
        ),
    )
}
