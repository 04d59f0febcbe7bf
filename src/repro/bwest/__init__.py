"""Bandwidth-estimation tools (paper section 3.3.1).

The paper benchmarked Pathload and WBest on cellular links and found
both under-estimate badly (Pathload by up to ~40%, WBest by up to ~70%),
which is why WiScape measures with plain UDP downloads instead.  This
package implements simplified but faithful versions of both algorithms
over the simulated channel so that the negative result is reproducible:
their biases emerge from the same mechanisms (self-loading trend
detection tripped by fading; dispersion inflated by jitter) the
literature blames on 3G links.
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "pathload": ("PathloadEstimator",),
    "wbest": ("WBestEstimator",),
})
