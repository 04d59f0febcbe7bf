"""Statistical machinery behind WiScape's design choices.

* :mod:`repro.stats.allan` — Allan deviation, used to pick each zone's
  epoch duration (paper section 3.2.2, Fig 6);
* :mod:`repro.stats.nkld` — symmetric Normalized Kullback-Leibler
  Divergence, used to decide how many client samples make a distribution
  "similar enough" to the long-term truth (section 3.3, Fig 7);
* :mod:`repro.stats.distributions` — empirical CDFs and quantiles for
  all of the paper's CDF figures;
* :mod:`repro.stats.correlation` — Pearson correlation (speed-vs-latency
  analysis, Fig 2);
* :mod:`repro.stats.sampling` — minimum-sample-count searches (Table 5).
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "allan": (
        "allan_deviation",
        "allan_deviation_profile",
        "optimal_averaging_time",
    ),
    "correlation": ("pearson_correlation",),
    "distributions": ("EmpiricalCDF", "cdf_points"),
    "nkld": (
        "empirical_pmf",
        "entropy",
        "kl_divergence",
        "nkld",
        "nkld_from_samples",
    ),
    "sampling": ("estimation_error", "min_samples_for_accuracy"),
})
