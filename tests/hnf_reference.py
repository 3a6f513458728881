"""The sparse echelon lattice: the reference for torq.lattice's
_EchelonLattice, which keeps dense rows and reduces them in one loop
shared by insertion and membership."""

from torq.lattice import _ext_gcd


class SparseEchelonLattice:
    """Integer lattice kept in row-echelon form (Hermite-style pivots).

    Rows are dicts column-index -> value with a leading pivot column;
    insertion eliminates against existing pivots using extended gcd, and
    membership repeats the elimination without it.
    """

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> row

    @staticmethod
    def _pivot(row: dict[int, int]) -> int | None:
        live = [c for c, x in row.items() if x != 0]
        return min(live) if live else None

    def add(self, vec: dict[int, int]) -> None:
        row = {c: x for c, x in vec.items() if x != 0}
        while True:
            p = self._pivot(row)
            if p is None:
                return
            if p not in self.rows:
                lead = row[p]
                if lead < 0:
                    row = {c: -x for c, x in row.items()}
                self.rows[p] = row
                return
            base = self.rows[p]
            a, b = base[p], row[p]
            if b % a == 0:
                q = b // a
                row = {
                    c: row.get(c, 0) - q * base.get(c, 0)
                    for c in set(row) | set(base)
                }
            else:
                g, u, w = _ext_gcd(a, b)
                new_base = {
                    c: u * base.get(c, 0) + w * row.get(c, 0)
                    for c in set(row) | set(base)
                }
                qa, qb = a // g, b // g
                new_row = {
                    c: qa * row.get(c, 0) - qb * base.get(c, 0)
                    for c in set(row) | set(base)
                }
                self.rows[p] = {c: x for c, x in new_base.items() if x != 0}
                row = new_row

    def contains(self, vec: dict[int, int]) -> bool:
        row = {c: x for c, x in vec.items() if x != 0}
        while True:
            p = self._pivot(row)
            if p is None:
                return True
            if p not in self.rows:
                return False
            base = self.rows[p]
            if row[p] % base[p] != 0:
                return False
            q = row[p] // base[p]
            row = {
                c: row.get(c, 0) - q * base.get(c, 0) for c in set(row) | set(base)
            }
