"""deltalab: a desk-scale numerical laboratory for diametral point geometry.

Finite faithful models of four classical Banach space families — L1 of a
finite measure, the convergent-sequence models of C(K), Muntz spans in
C[0,1], and absolute-norm direct sums — with executable decision procedures
for Delta and Daugavet points, constructive witness families, and
quantitative refutation certificates.  Every construction re-verifies its
own output; nothing unchecked is ever returned.
"""

import importlib

from . import ck, core, crosscheck, l1, lp, muntz, serialize, sums, util
from .core import (
    Certificate,
    CertificationError,
    DeltaLabError,
    Rank1Operator,
    Slice,
    Verdict,
    VerificationError,
    check_delta_via_slices,
    hull_distance,
    hull_distance_info,
    id_minus_rank1_norm,
    slice_diameter,
)
from .crosscheck import crosscheck_characterizations

__version__ = "0.1.0"


def __getattr__(name):
    # cli loads on first use: imported here eagerly, `python -m deltalab.cli`
    # would find it in sys.modules before running it and warn
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Certificate", "CertificationError", "DeltaLabError", "Rank1Operator",
    "Slice", "Verdict", "VerificationError",
    "check_delta_via_slices", "crosscheck_characterizations", "hull_distance",
    "hull_distance_info", "id_minus_rank1_norm", "slice_diameter",
    "ck", "cli", "core", "crosscheck", "l1", "lp", "muntz", "serialize",
    "sums", "util", "__version__",
]
