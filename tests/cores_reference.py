"""The core reference the tests check phase 1 and the family's analytic
cores against: the inclusion-minimal violated cuts of a fresh enumeration.
The package itself takes each iteration's cores from the violated-cut list
that phase 1 filters (`wgmv.phase1`)."""

from typing import Sequence

from smallcuts.covering import Instance, Link, minimal_cuts, violated_cuts
from smallcuts.multigraph import Cut


def cores_bruteforce(inst: Instance, selected: Sequence[Link] = ()) -> list[Cut]:
    """Inclusion-minimal violated cuts of `inst` that `selected` leaves
    uncovered, by exhaustive enumeration."""
    return minimal_cuts(inst, violated_cuts(inst, selected))
