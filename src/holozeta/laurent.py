"""Exact Laurent polynomial arithmetic over Q.

Everything downstream (graph zeta functions, Fox matrices, quandle
weights) is built on the ring Q[t, t^-1].  Polynomials are sparse maps
exponent -> coefficient with no zero coefficients stored.  A coefficient
is an `int` unless it has a real denominator, when it is a `Fraction`
(see `canonical_coeff`); every division between coefficients goes
through `Fraction`, so all arithmetic is exact, no floating point
anywhere.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction


def canonical_coeff(c):
    """The one stored form of a rational coefficient: an `int` when it is
    whole, else a `Fraction` with denominator > 1."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def rational_matmul(a, b, r: int, k: int, c: int, zero=0) -> list:
    """The r x c product of an r x k and a k x c matrix, each a flat
    row-major sequence.  The entries are `int` and `Fraction`, or the cells
    of a `cell_ring` or `LaurentPoly`, whose zero is then `zero`; they are not
    canonicalised.  With k = 0 the product is r x c zeros."""
    if not k:
        return [zero] * (r * c)
    return [sum([a[i + m] * b[m * c + j] for m in range(k)], zero)
            for i in range(0, r * k, k) for j in range(c)]


class LaurentPoly:
    """A Laurent polynomial c_e * t^e + ... with rational coefficients,
    each an `int` or a `Fraction` with denominator > 1."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = canonical_coeff(c)
                if c:
                    clean[int(e)] = c
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _ring_result(terms: dict) -> "LaurentPoly":
        """Wrap the result of a ring operation on stored polynomials: its
        exponents are already `int` and its coefficients `int` or
        `Fraction`, so only zeros are dropped and a whole `Fraction` is
        stored as its numerator (the `canonical_coeff` rule)."""
        p = object.__new__(LaurentPoly)
        p.terms = {
            e: c if type(c) is int or c.denominator != 1 else c.numerator
            for e, c in terms.items() if c
        }
        return p

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        """Units of Q[t,t^-1] are the single-term polynomials q*t^k."""
        return len(self.terms) == 1

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no minimal exponent")
        return min(self.terms)

    def coeff(self, e: int) -> "int | Fraction":
        return self.terms.get(e, 0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly._ring_result(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly._ring_result(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._ring_result({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.terms or not other.terms:
            return LaurentPoly()
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly._ring_result(out)

    def scale(self, c) -> "LaurentPoly":
        """Multiply every coefficient by the rational c, an `int` or `Fraction`."""
        return LaurentPoly._ring_result({e: v * c for e, v in self.terms.items()})

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise ValueError("not a unit of the Laurent ring: %s" % self)
        ((e, c),) = self.terms.items()
        return LaurentPoly({-e: c if c in (1, -1) else Fraction(1) / c})

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- unit normal form ---------------------------------------------

    def unit_normalize(self) -> "LaurentPoly":
        """The associate with minimal exponent 0 and lowest coefficient 1."""
        if not self.terms:
            raise ValueError("zero has no unit normal form")
        k = self.min_exp()
        c = self.terms[k]
        if c in (1, -1):  # shift, and negate for -1: no division
            return LaurentPoly._ring_result({e - k: v * c for e, v in self.terms.items()})
        return LaurentPoly({e - k: Fraction(v) / c for e, v in self.terms.items()})

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises if other does not divide self."""
        if other.is_zero():
            raise ZeroDivisionError("Laurent division by zero")
        if self.is_zero():
            return LaurentPoly()
        # strip the t-power content so both operands are honest polynomials
        a, b = self.min_exp(), other.min_exp()
        num = {e - a: c for e, c in self.terms.items()}
        den = {e - b: c for e, c in other.terms.items()}
        dden = max(den)
        lead = den[dden]
        quot = {}
        while num:
            dnum = max(num)
            if dnum < dden:
                raise ValueError("inexact Laurent division")
            q = num[dnum] * lead if lead in (1, -1) else canonical_coeff(Fraction(num[dnum]) / lead)
            quot[dnum - dden] = q
            for e, c in den.items():
                k = e + dnum - dden
                v = num.get(k, 0) - q * c
                if v == 0:
                    num.pop(k, None)
                else:
                    num[k] = v
        return LaurentPoly({e + a - b: c for e, c in quot.items()})

    # -- text form ----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                body = str(c)
            else:
                tpow = "t" if e == 1 else "t^%d" % e
                if c == 1:
                    body = tpow
                elif c == -1:
                    body = "-" + tpow
                else:
                    body = "%s*%s" % (c, tpow)
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append("- " + body[1:])
            else:
                parts.append("+ " + body)
        return " ".join(parts)

    def __repr__(self):
        return "LaurentPoly(%s)" % self


def content_lines(text: str):
    """The non-blank lines of a text format, stripped, with `#` comments removed."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def scan_tokens(token_re, text: str):
    """The matches of the compiled `token_re`, each tried at the end of the
    last, that cover `text` from position 0 with no gaps; raises ValueError
    at the first position where no token matches or the match is empty."""
    pos = 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError("unexpected text at column %d: %r" % (pos + 1, text[pos:pos + 20]))
        yield m
        pos = m.end()


_INT_RE = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """An integer written as ASCII digits with an optional sign and nothing
    else; `int` also reads other Unicode digits (`٣`), `_` and spaces."""
    if not _INT_RE.fullmatch(text):
        raise ValueError("not an integer: %r" % text)
    return int(text)


# the largest count an input may ask for: a graph's total vertex dimension
# (its adjacency matrix has that many squared entries) or an inserted
# vertex's, the exponent of a letter in a word (written out, it is that many
# letters) and the number of `holonomy-check` perturbations.  Every shipped
# example, test and benchmark input stays far below it
COUNT_LIMIT = 1000


def split_matrix_literal(text: str):
    """The cell texts of a `[[a,b],[c,d]]` literal, one list per row."""
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise ValueError("matrix literal must look like [[...],[...]]")
    return [row.split(",") for row in re.split(r"\]\s*,\s*\[", text[2:-2])]


# a sign, a coefficient n or n/d with its own sign (`+ -2`), then t, t^e or
# t^{e}; a `*` stands only between a coefficient and t, so `2*-1`, `2*` and
# `*t` are errors, and an exponent's braces come in pairs; digits are ASCII
# (`\d` would read any Unicode digit, `١` among them)
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<num>[+-]?[0-9]+)(?:/(?P<den>[0-9]+))?\s*(?:\*\s*(?=t))?)?"
    r"(?P<t>t(?:\^(?P<brace>\{)?(?P<exp>[+-]?[0-9]+)(?(brace)\}))?)?\s*"
)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse sparse text like `2*t^-1 + 1 - 3/2*t^{2}`; zero is `0`, never empty text."""
    if not text.strip():
        raise ValueError("empty polynomial: write 0 for zero")
    terms = {}
    for k, m in enumerate(scan_tokens(_TERM_RE, text.replace("−", "-"))):
        sign, num, den, t, _, exp = m.groups()
        if (k and not sign) or (num is None and t is None):
            raise ValueError("bad Laurent term %r in %r" % (m.group().strip(), text))
        c = 1 if num is None else int(num)
        if den is not None:
            if not int(den):
                raise ValueError("zero denominator in %r" % text)
            c = Fraction(c, int(den))
        e = 0 if t is None else 1 if exp is None else int(exp)
        terms[e] = terms.get(e, 0) + (-c if sign == "-" else c)
    return LaurentPoly._ring_result(terms)


# -- cells packed as integers ---------------------------------------------

# the widest packed value, in bits, that `cell_ring` packs: packing is dense
# in the exponent span, so past it a sparse cell such as t^100000 stays a
# `LaurentPoly`.  In a sweep of the Euler oracle at order 8 on 2-vertex
# graphs of 1 x 1 and 2 x 2 weights, packed cells were never slower up to
# 6144 bits, even for cells a + b*t^s whose products stay sparse; with
# terms spread over the span they were 2-5 times faster
PACK_WIDTH_BITS = 6144


class PackedCells:
    """Laurent cells as integers, by Kronecker substitution (Kronecker 1882;
    Harvey, J. Symbolic Comput. 44, 2009).  A cell p packs to q(2^bits), q
    the integer polynomial den * t^(-lo) * p, den the lcm of the cells'
    denominators and lo their least exponent.  A sum or product of cells is
    then one integer operation, and a value scaled as a product of `power`
    cells (by den^power t^(-lo*power)) reads back exactly as long as every
    coefficient of its integer polynomial lies in [-2^(bits-1), 2^(bits-1)),
    which `cell_ring` makes sure of."""

    __slots__ = ("den", "lo", "bits")
    zero, one = 0, 1

    def __init__(self, den: int, lo: int, bits: int):
        self.den, self.lo, self.bits = den, lo, bits

    def pack(self, p: LaurentPoly) -> int:
        den, lo, bits = self.den, self.lo, self.bits
        return sum([c.numerator * (den // c.denominator) << bits * (e - lo)
                    for e, c in p.terms.items()])

    def unpack(self, x: int, power: int) -> LaurentPoly:
        """The p with den^power * t^(-lo*power) * p packing to x, from the
        balanced base-2^bits digits of x, cut off its low end by mask and
        shift with no sign split.  A shift copies x, but x is at most
        PACK_WIDTH_BITS wide, and there a shift per digit stays faster than
        cutting the digits from the binary text of |x|."""
        bits = self.bits
        mask = (1 << bits) - 1
        half = 1 << (bits - 1)
        scale, k = self.den ** power, self.lo * power
        terms = {}
        while x:
            d = x & mask
            x >>= bits
            if d >= half:
                d -= mask + 1
                x += 1
            if d:
                terms[k] = d if scale == 1 else Fraction(d, scale)
            k += 1
        return LaurentPoly._ring_result(terms)

    @staticmethod
    def divide(x: int, j: int) -> int:
        return x // j


class LaurentCells:
    """The interface of `PackedCells` on `LaurentPoly` cells themselves, for
    cells too wide to pack."""

    zero, one = LaurentPoly(), LaurentPoly({0: 1})

    @staticmethod
    def pack(p: LaurentPoly) -> LaurentPoly:
        return p

    @staticmethod
    def unpack(x: LaurentPoly, power: int) -> LaurentPoly:
        return x

    @staticmethod
    def divide(x: LaurentPoly, j: int) -> LaurentPoly:
        return x.scale(Fraction(1, j))


def cell_ring(cells, length: int, cycle_lengths, dim: int, *, adjacency=None):
    """The cells in which to compute the coefficients of u^0..u^length of a
    product of factors det(I - u^l W), one for each l in `cycle_lengths`,
    each W a product of l matrices made of `cells`, each matrix at most
    dim x dim: a `PackedCells` wide enough for those coefficients, or
    `LaurentCells` when its packed values would be wider than
    PACK_WIDTH_BITS.  One det(I - uM) is cycle_lengths = (1,).  With
    `adjacency` = (n, k) the ring also holds the coefficients c_0..c_top,
    top = min(n, length), of det(I - uA) for an n x n matrix A each of whose
    cells is a sum of at most k of `cells`: the ring of `zeta --check-euler`,
    where both sides of 1/zeta = det(I - uA) run in one ring.

    Only those coefficients are read back.  A value met on the way (a matrix
    power, a trace, a c_j, a partial product) may overflow its digits:
    evaluation at 2^bits is a ring homomorphism Z[t] -> Z, so a value read
    back is still its own integer polynomial evaluated at 2^bits, and the
    division of j*e_j by j in Newton's identities stays exact.  The bound is
    on the coefficients, not on how they are formed: the factors with
    2l > length may enter as one 1 - sum_l u^l S_l, S_l a sum of traces,
    which is their product modulo u^(length+1).

    The bound, in 1-norms (sums of |coefficient|) of the values scaled by
    den^power t^(-lo*power).  Let nu be the largest 1-norm of a scaled cell
    den * t^(-lo) * p and d = dim.
    - An entry of a product of l matrices sums at most d^(l-1) products of l
      cells, so its 1-norm is at most d^(l-1) nu^l.
    - c_j of a k x k matrix, k <= d, with entries of 1-norm at most m sums
      C(k, j) principal minors of j! products each, so it is at most (k m)^j;
      for W a product of l matrices that is at most (nu d)^(l*j), and l*j is
      the degree in u of the term c_j u^(l*j) of det(I - u^l W).
    - The coefficient of u^n of the product sums the products of one term
      c_j u^(l*j) from each factor, with the degrees l*j summing to n, and
      each such product is at most (nu d)^n.  At most w_n tuples of j >= 0
      have that sum, w_n the coefficient of u^n in the product over the
      factors of 1/(1 - u^l), so the coefficient of u^n is at most
      w_n (nu d)^n.
    As w_n < 2^bitlen(max_n w_n) and (nu d)^n <= 2^(length bitlen(nu d)),
    every coefficient, 1 at u^0 included, is below 2^(bits - 1) for
    bits = bitlen(max_n w_n) + length bitlen(nu d) + 1.  A product of l
    cells spans l (hi - lo) exponents, hi the greatest exponent, so a value
    read back is about (length (hi - lo) + 1) bits wide.  nu is at least
    den over the least denominator of a coefficient, so the lcm stops
    growing as soon as that alone makes the cells too wide to pack.

    With `adjacency`, the det(I - uA) side gets a bound of its own, so that
    neither side's bound leans on the identity being checked.  Packing is
    linear, so a cell of A packs to the sum of the packed cells it adds up,
    at the same den and lo, and its scaled 1-norm is at most k nu.  Its c_j
    is then at most (n k nu)^j (the case of one factor, l = 1, d = n), so
    its coefficients fit 2 + top bitlen(n k nu) bits.  The ring takes the
    larger of the two bounds: each side's coefficients then have their own
    balanced digits, and the two sides are equal exactly when their packed
    values are.  A value of the det side spans at most top (hi - lo) + 1
    exponents, so the one width test covers it."""
    live = [p.terms for p in cells if p.terms]
    exps = [e for terms in live for e in terms]
    lo, hi = (min(exps), max(exps)) if exps else (0, 0)
    dens = {c.denominator for terms in live for c in terms.values()}
    least, den = min(dens, default=1).bit_length(), 1
    for d in dens:
        den = math.lcm(den, d)
        if (length * (hi - lo) + 1) * (length * (den.bit_length() - least) + 1) > PACK_WIDTH_BITS:
            return LaurentCells()
    nu = max([sum([abs(c.numerator) * (den // c.denominator) for c in terms.values()])
              for terms in live], default=0)
    ways = [1] + [0] * length  # ways[n] = w_n, one factor 1/(1 - u^l) at a time
    for l in cycle_lengths:
        for n in range(l, length + 1):
            ways[n] += ways[n - l]
    bits = max(ways).bit_length() + length * (nu * dim).bit_length() + 1
    if adjacency is not None:
        n, k = adjacency
        bits = max(bits, 2 + min(n, length) * (n * k * nu).bit_length())
    if (length * (hi - lo) + 1) * bits > PACK_WIDTH_BITS:
        return LaurentCells()
    return PackedCells(den, lo, bits)


def cell_rows(x, n: int) -> list:
    """The n x n matrix with flat row-major cells x as one {column: cell} map
    per row, holding only its nonzero cells."""
    return [{j: c for j, c in enumerate(x[i * n:i * n + n]) if c} for i in range(n)]


def det_one_minus_x_cells(m, top: int, ring) -> list:
    """The coefficients c_0..c_top of det(I - x*M) = sum_j c_j x^j, in
    `ring`, for the square matrix M given as its row maps {column: cell} of
    its stored cells in `ring` (`cell_rows`).  c_j = (-1)^j e_j, and the e_j
    come from Newton's identities on the power traces p_k = tr(M^k),
    k <= top.  Each p_k with k > 1 is the inner product
    sum_(i,j) (M^a)_ij (M^b)_ji over the stored (i,j) of M^a, a = ceil(k/2),
    b = floor(k/2), so only M^2..M^ceil(top/2) are formed, each as row maps
    M^(a-1) M over stored cells only: an adjacency matrix stores at most a
    few cells per row, and the work is then linear in dim M.  Dividing j*e_j
    by j is exact in either ring: packed, j*e_j(2^bits) is (j*e_j)(2^bits)."""
    zero = ring.zero
    powers = [None, m]  # powers[a] = M^a
    for _ in range(2, (top + 1) // 2 + 1):
        rows = []
        for row in powers[-1]:
            acc = {}
            for mid, c in row.items():
                for j, d in m[mid].items():
                    acc[j] = acc[j] + c * d if j in acc else c * d
            rows.append(acc)
        powers.append(rows)
    p = [None, sum([row[i] for i, row in enumerate(m) if i in row], zero)]
    for k in range(2, top + 1):
        a, b = powers[(k + 1) // 2], powers[k // 2]
        p.append(sum([c * b[j][i] for i, row in enumerate(a) for j, c in row.items() if i in b[j]],
                     zero))
    # Newton: j*e_j = sum_{i=1..j} (-1)^(i-1) e_(j-i) p_i
    e = [ring.one]
    for j in range(1, top + 1):
        acc = sum([e[j - i] * p[i] if i % 2 else -(e[j - i] * p[i]) for i in range(1, j + 1)], zero)
        e.append(ring.divide(acc, j))
    return [-ej if j % 2 else ej for j, ej in enumerate(e)]


def _fraction_free(rows: list, jordan: bool):
    """Bareiss's fraction-free elimination (Math. Comp. 22, 1968), in place
    on rows: n lists of `LaurentPoly`, each at least n long, eliminated over
    their first n columns.  Step k takes as pivot the entry of column k
    with the fewest terms among rows k..n-1, a unit when there is one,
    swaps its row into row k, and clears column k below it; with `jordan`
    it clears the column above it too (Gauss-Jordan).  Each entry right of
    column k becomes (x * pivot - a * y) / prev, a the row's entry in
    column k, y the pivot row's, prev the previous pivot; the division is
    exact, as every entry is then a minor of order k + 1.  Column k itself
    is not written back, and a row with a = 0 is left as it is while pivot
    = prev.  Returns (sign, d), sign * d the determinant of the first n
    columns, and d the last pivot; with `jordan` every row then holds d
    times its row of (first n columns)^-1 times the rest.  (1, 0) as soon
    as a column has no pivot; n = 0 gives (1, 1)."""
    n = len(rows)
    one = LaurentPoly({0: 1})
    sign, prev = 1, one
    for k in range(n):
        live = [i for i in range(k, n) if rows[i][k].terms]
        if not live:
            return 1, LaurentPoly()
        p = min(live, key=lambda i: len(rows[i][k].terms))
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        top = rows[k]
        pivot = top[k]
        divide, same = prev != one, pivot == prev
        for i in range(0 if jordan else k + 1, n):
            row = rows[i]
            a = row[k]
            if i == k or same and not a.terms:
                continue
            for j in range(k + 1, len(row)):
                x = row[j] * pivot - a * top[j] if a.terms else row[j] * pivot
                row[j] = x.divexact(prev) if divide else x
        prev = pivot
    return sign, prev


class PolyMatrix:
    """Dense matrix over the Laurent ring, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count %d != %d x %d" % (len(entries), rows, cols))
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @staticmethod
    def from_rows(rows_list) -> "PolyMatrix":
        r = len(rows_list)
        c = len(rows_list[0]) if r else 0
        flat = []
        for row in rows_list:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return PolyMatrix(r, c, flat)

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        one, zero = LaurentPoly({0: 1}), LaurentPoly()
        return PolyMatrix(n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "PolyMatrix":
        return PolyMatrix(r, c, [LaurentPoly()] * (r * c))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix add")
        return PolyMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sub")
        return PolyMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix mul")
        return PolyMatrix(self.rows, other.cols, rational_matmul(
            self.entries, other.entries, self.rows, self.cols, other.cols, LaurentPoly()))

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            self.cols,
            self.rows,
            [self[i, j] for j in range(self.cols) for i in range(self.rows)],
        )

    # -- determinants -------------------------------------------------

    def det_cofactor(self) -> LaurentPoly:
        """Laplace expansion along the rows, on term maps.  The minor of the
        first k rows on a column set S (a bit mask) is the sum over j in S of
        (-1)^#{c in S : c > j} * a_(k-1)j * minor(S - {j}); each of the
        2^n - 1 minors is formed once, a row at a time, and zero minors are
        dropped.  Only the determinant becomes a `LaurentPoly`."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return LaurentPoly({0: 1})
        if n == 1:
            return self[0, 0]
        minors = {0: {0: 1}}  # column set of the first k rows -> its minor's terms
        for i in range(n):
            row = self.entries[i * n:(i + 1) * n]
            nxt = {}
            for cols, m in minors.items():
                for j, a in enumerate(row):
                    bit = 1 << j
                    if cols & bit or not a.terms:
                        continue
                    acc = nxt.setdefault(cols | bit, {})
                    odd = (cols >> j).bit_count() % 2
                    for ea, ca in a.terms.items():
                        if odd:
                            ca = -ca
                        for em, cm in m.items():
                            e = ea + em
                            acc[e] = acc.get(e, 0) + ca * cm
            minors = {}
            for cols, acc in nxt.items():
                terms = {e: c for e, c in acc.items() if c}
                if terms:
                    minors[cols] = terms
        return LaurentPoly._ring_result(minors.get((1 << n) - 1, {}))

    def det_bareiss(self) -> LaurentPoly:
        """Fraction-free elimination over the Laurent ring (`_fraction_free`).
        `det()` hands it what the unit-pivot phase leaves above 4 x 4; on a
        whole matrix it is `det()`'s oracle."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        sign, d = _fraction_free([list(self.row(i)) for i in range(self.rows)], False)
        return d if sign == 1 else -d

    def det(self) -> LaurentPoly:
        """The one determinant.  Up to 4 x 4, cofactor expansion.  Above
        that, a first phase eliminates on unit pivots (single-term entries
        q*t^k) over sparse rows, each time the unit of least Markowitz cost
        (r - 1)(c - 1), r and c the entries stored in its row and column
        (Markowitz, Management Science 3, 1957).  Eliminating the unit u
        at (i, j) gives det = (-1)^(pos i + pos j) * u * det(S), pos
        counting among the rows and columns still left and S the Schur
        complement on them; u's inverse is the only one taken, so every
        step is exact.  On I - A a unit diagonal pivot is a vertex with no
        loop, and eliminating it is the paper's vertex removal: hub
        resolution of its in-edges, source elimination, then merging the
        parallel edges.  The phase returns 0 as soon as a row or column
        empties and stops when no unit is left; it runs on copies of the
        entries' term maps that it owns (`_eliminate_units`).  The
        remainder takes cofactor expansion up to 4 x 4 and Laurent Bareiss
        above that."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        if self.rows <= 4:
            return self.det_cofactor()
        d, rest = self._eliminate_units()
        if rest is None:
            return d
        return d * (rest.det_cofactor() if rest.rows <= 4 else rest.det_bareiss())

    def _eliminate_units(self):
        """(d, rest) with det(self) = d * det(rest), rest the matrix the
        unit-pivot phase of `det` leaves; (0, None) once a row or column
        empties.  The phase copies each stored entry's terms once, into
        rows it owns, and updates them in place term by term, dropping
        zero terms and emptied cells; it keeps d as one coefficient and one
        exponent, and only d and the cells of rest become `LaurentPoly`
        again."""
        n = self.rows
        zero = LaurentPoly()
        rows = [{} for _ in range(n)]  # live row i as {column: terms of the entry}
        cols = [set() for _ in range(n)]  # column j: the live rows storing it
        for k, p in enumerate(self.entries):
            if p.terms:
                i, j = divmod(k, n)
                rows[i][j] = dict(p.terms)
                cols[j].add(i)
        if not all(rows) or not all(cols):
            return zero, None
        live_rows, live_cols = list(range(n)), list(range(n))
        de, dc = 0, 1  # d = dc * t^de
        while live_rows:
            best, least = None, None
            for i in live_rows:
                row = rows[i]
                r = len(row) - 1
                for j, p in row.items():
                    if len(p) == 1:
                        cost = r * (len(cols[j]) - 1)
                        if best is None or cost < least:
                            best, least = (i, j), cost
                if least == 0:
                    break
            if best is None:
                break
            i, j = best
            pi, pj = live_rows.index(i), live_cols.index(j)
            del live_rows[pi], live_cols[pj]
            pivot_row = rows[i]
            ((ue, uc),) = pivot_row.pop(j).items()
            de += ue
            dc = dc * uc if (pi + pj) % 2 == 0 else -dc * uc
            for c in pivot_row:
                cols[c].discard(i)
            column = cols[j]
            column.discard(i)
            u_inv = uc if uc in (1, -1) else Fraction(1) / uc
            for r in column:  # row r -= (a_rj / u) * row i
                row = rows[r]
                f = [(e - ue, -(x * u_inv)) for e, x in row.pop(j).items()]
                for c, v in pivot_row.items():
                    cell = row.get(c)
                    if cell is None:
                        cell = row[c] = {}
                        cols[c].add(r)
                    for fe, fx in f:
                        for e, x in v.items():
                            e += fe
                            y = cell.get(e, 0) + fx * x
                            if y:
                                cell[e] = y
                            else:
                                del cell[e]
                    if not cell:
                        del row[c]
                        cols[c].discard(r)
                if not row:
                    return zero, None
            if not all(cols[c] for c in pivot_row):
                return zero, None
        ring = LaurentPoly._ring_result
        rest = PolyMatrix(len(live_rows), len(live_cols), [
            ring(rows[i][j]) if j in rows[i] else zero for i in live_rows for j in live_cols
        ])
        return ring({de: dc}), rest

    def inverse_unit_det(self) -> "PolyMatrix":
        """The inverse over the Laurent ring; the determinant must be a unit.
        Fraction-free Gauss-Jordan (`_fraction_free`) takes [self | I] to
        [d*I | d*self^-1], d = +-det(self), and the right half is then
        scaled by d^-1."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        one, zero = LaurentPoly({0: 1}), LaurentPoly()
        rows = [list(self.row(i)) + [one if j == i else zero for j in range(n)] for i in range(n)]
        _, d = _fraction_free(rows, True)
        if not d.is_unit():
            raise ValueError("matrix not invertible over the Laurent ring")
        dinv = d.unit_inverse()
        return PolyMatrix(n, n, [dinv * x for row in rows for x in row[n:]])

    def __str__(self):
        """The `[[a,b],[c,d]]` literal that `parse_matrix_literal` reads."""
        return "[%s]" % ",".join(
            "[%s]" % ",".join(str(e) for e in self.row(i)) for i in range(self.rows)
        )

    __repr__ = __str__


class TruncatedSeries:
    """Formal power series in a counting variable u, truncated at u^L.

    Coefficients are Laurent polynomials in t.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("need %d coefficients" % (order + 1))
        self.order = order
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        L = self.order
        out = [LaurentPoly()] * (L + 1)
        for i, a in enumerate(self.coeffs):
            if not a.terms:
                continue
            for j in range(L + 1 - i):
                b = other.coeffs[j]
                if b.terms:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(L, out)

    def _check(self, other):
        if self.order != other.order:
            raise ValueError("series order mismatch")

    def inverse(self) -> "TruncatedSeries":
        b0 = self.coeffs[0]
        if not b0.is_unit():
            raise ValueError("constant coefficient not invertible")
        inv0 = b0.unit_inverse()
        # only the stored terms of a sparse series take part, as in exp
        nonzero = [(k, a) for k, a in enumerate(self.coeffs) if k and a.terms]
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = LaurentPoly()
            for k, a in nonzero:
                if k > n:
                    break
                if out[n - k].terms:
                    acc = acc + a * out[n - k]
            out.append(-(inv0 * acc))
        return TruncatedSeries(self.order, out)

    def exp(self) -> "TruncatedSeries":
        """b = exp(a) from b' = a'b: n*b_n = sum_k k*a_k*b_(n-k), O(L^2)
        coefficient products (Knuth, TAOCP vol. 2, 4.7)."""
        if not self.coeffs[0].is_zero():
            raise ValueError("exp needs zero constant term")
        ka = [(k, a.scale(k)) for k, a in enumerate(self.coeffs) if a.terms]
        out = [LaurentPoly({0: 1})]
        for n in range(1, self.order + 1):
            acc = LaurentPoly()
            for k, a in ka:
                if k <= n and out[n - k].terms:
                    acc = acc + a * out[n - k]
            out.append(acc.scale(Fraction(1, n)))
        return TruncatedSeries(self.order, out)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero() and i > 0:
                continue
            parts.append("(%s)*u^%d" % (c, i))
        return " + ".join(parts)

    __repr__ = __str__


def series_det(m: PolyMatrix, order: int) -> TruncatedSeries:
    """det(I - u*M) truncated at u^order, for a `PolyMatrix` M.  Its
    coefficients c_0..c_top, top = min(dim M, order), come from
    `det_one_minus_x_cells` on the stored cells of M (`cell_rows`) in their
    `cell_ring`: packed as integers, or as they are when too wide to pack.
    Every c_j with j > dim M is 0, so the rest are zeros.  `zeta
    --check-euler` runs the same loop on the packed weights of its graph
    (`wgraph.euler_check`)."""
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    top = min(m.rows, order)
    ring = cell_ring(m.entries, top, (1,), m.rows)
    rows = cell_rows([ring.pack(p) for p in m.entries], m.rows)
    coeffs = [ring.unpack(c, j) for j, c in enumerate(det_one_minus_x_cells(rows, top, ring))]
    return TruncatedSeries(order, coeffs + [LaurentPoly()] * (order - top))


def series_det_inverse(m: PolyMatrix, order: int) -> TruncatedSeries:
    """det(I - u*M)^-1 truncated at u^order: `series_det` inverted once."""
    return series_det(m, order).inverse()
