"""The boundary map summed edge by edge through the checked ``+``: the
reference for torq.lattice.shadow, which sums each part in one pass."""

from torq.lattice import SignedEdgeSet, SupportVector, edge_shadow


def checked_shadow(phi: SignedEdgeSet, kind: str = "queens") -> SupportVector:
    """The sum of m times the shadow of e over phi's entries (e, m)."""
    total = SupportVector(phi.n, kind=kind)
    for e, m in phi.entries.items():
        total = total + edge_shadow(phi.n, e, kind).scaled(m)
    return total
