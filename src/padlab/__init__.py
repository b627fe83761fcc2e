"""padlab: exact harmonic and micro-local analysis on Q_p^n.

Everything computes in exact arithmetic: rationals inside Q_p, values in
the cyclotomic field Q(i, zeta_{p^r}).  Floats appear only in reports.
"""

from .cexp import (
    CexpExpr,
    CexpMonomialData,
    CexpSyntaxError,
    bounded_rewrite,
    constancy_level,
    parse,
    parse_ratterm,
)
from .charts import (
    HenselChart,
    PowerChart,
    certify_resolution,
    fiber_size,
    hensel_root,
    nth_power_test,
    unit_swallow_chart,
)
from .cyclotomic import ExactComplex, zeta
from .dist import (
    Distribution,
    NonIntegrable,
    UnsupportedShape,
    b_function,
    density_distribution,
    dirac,
    graph_measure,
    haar_on,
    loci_distribution,
    pushforward_chart,
)
from .extend import (
    MinCoordMap,
    Split,
    extend_min_coord,
    min_coord_lift,
    regularize,
)
from .graphs import GraphManifold, point_manifold
from .micro import (
    ConormalPresentation,
    ScanParams,
    ScanReport,
    holonomicity_check,
    smooth_locus_scan,
    wf_scan,
)
from .padic import (
    Box,
    ClopenSet,
    coset_rep,
    norm,
    refine_partition,
    urysohn_clopen,
    valuation,
)
from .ratterm import NotInDomain, Poly, RatTerm
from .scene import Scene, SceneError, load_scene
from .schwartz import SchwartzBruhat, psi_eval

__all__ = [name for name in dir() if not name.startswith("_")]
