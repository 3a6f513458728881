"""The row counter without symmetry reduction: the reference for
torq.solvers' counters, which search one solution per symmetry orbit."""


def count_rows(n: int, torus: bool, semi: bool) -> int:
    """Number of ways to fill the rows in order with one queen each.

    cols, d and s are the columns, difference diagonals and sum
    diagonals blocked in the current row.  Moving down a row shifts d up
    one column and s down one; on the torus the shift wraps around.
    Semi-queens keep only the sum family, so their d is masked to 0.
    The loop body is picked once per call: wrap terms in the classical
    body would cost every node.
    """
    full = (1 << n) - 1
    dmask = 0 if semi else full
    top = n - 1

    def shift(cols: int, d: int, s: int) -> int:
        if cols == full:
            return 1
        count = 0
        avail = full & ~(cols | d | s)
        while avail:
            bit = avail & -avail
            avail ^= bit
            count += shift(cols | bit, ((d | bit) << 1) & dmask, (s | bit) >> 1)
        return count

    def rotate(cols: int, d: int, s: int) -> int:
        if cols == full:
            return 1
        count = 0
        avail = full & ~(cols | d | s)
        while avail:
            bit = avail & -avail
            avail ^= bit
            d1, s1 = d | bit, s | bit
            count += rotate(cols | bit, (d1 << 1 | d1 >> top) & dmask, s1 >> 1 | (s1 & 1) << top)
        return count

    return (rotate if torus else shift)(0, 0, 0)
