"""Finite p-groups through consistent power-commutator presentations.

A presentation has generators g_1..g_n with relations
``g_i^p = word over later generators`` and ``[g_j, g_i] = word over
generators after g_j`` (j > i), so the tail subgroups refine a central
series and collection terminates structurally.  Groups here are small
(a user group above MAX_ORDER = 2^12 is refused); elements are indexed
0..p^n-1 by their normal-form exponent vectors in mixed radix, with 0
the identity.

Consistency is not taken on trust: construction builds the right-
multiplication permutation action of each generator from the last tail
up (``_build_right_gen``) and then verifies every defining relation as
a permutation identity on all of G.  Relations that hold on an action
transitive on the p^n indices give a group of order p^n, whatever built
the action.  A homomorphism's generator images pass the same check
(``_relation_fault``), multiplied by ``mult`` in the target.  One word
evaluator (``_evaluate``) serves that build and ``GroupHom.table``, so
``mult`` and ``GroupHom.apply`` only read tables.

The subgroup predicates (Omega_1 of a center, the elementary abelian
enumeration) read two memoized arrays derived from the multiplication
table: ``commute_table`` (xy = yx) and ``order_p_mask`` (x^p = 1); a
centralizer, the center among them, compares only the table's columns
of the generators it centralizes.  Of the element accessors, ``pth_power``
remains for ``element_order``, and ``conj`` and ``comm`` for the tests'
checks by enumeration; ``Subgroup.conjugate`` reads conjugate subgroups
off the tables.

A group's structure is worked out once per presentation and kept on
it: A_C (``quillen_category_AC``, C = Omega_1 Z(G)), which ``p_rank``
reads since every maximal elementary abelian E contains C, each
``subgroup_presentation``, under which G presents itself, and the
Burnside generators.  Those, the Frattini subgroup and the maximal
subgroups are read off one basis of Hom(G, Z/p) (``_hom_basis``).

``split_central_factors`` presents a group as the ``direct_product`` of
its central cyclic direct factors and a complement, checked as an
isomorphism, so that a Workspace serves it from those factors.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .fplinalg import MAX_PRIME, FpMatrix, _is_prime, kernel_basis


# The largest order a user group may have: the group layer keeps an
# order x order int32 multiplication table, which is 64 MB at this size.
MAX_ORDER = 2 ** 12


class PcPresentationError(ValueError):
    """Malformed presentation data (bad exponents, supports, or prime)."""


class InconsistentPresentationError(PcPresentationError):
    """The built right action violates a relation: the input was inconsistent."""


def check_order(p: int, n: int) -> None:
    """Refuse a user group of order p^n above MAX_ORDER before it is built."""
    # for p >= 2, p^13 > 2^12 already, so the exponent is capped there
    if p ** min(n, MAX_ORDER.bit_length()) > MAX_ORDER:
        raise PcPresentationError(
            f"group order {p}^{n} exceeds the supported maximum {MAX_ORDER}")


def _relation_fault(S, gens, mult, one) -> str | None:
    """The first defining relation of the presentation S that the
    elements gens, one per generator of S, violate, or None.

    The relations are g_i^p = w_i and g_j g_i = g_i g_j w_ji (j > i),
    each word w the product of the generator powers it lists, in order;
    mult(x, y) is the product xy where gens live and one its identity."""
    def times_word(x, word):
        for t, e in enumerate(word):
            for _ in range(e):
                x = mult(x, gens[t])
        return x

    for i, g in enumerate(gens):
        x = one
        for _ in range(S.p):
            x = mult(x, g)
        if not np.array_equal(x, times_word(one, S.power_rels[i])):
            return f"power relation of g{i + 1}"
    zero = (0,) * S.n
    for j in range(S.n):
        for i in range(j):
            lhs = mult(gens[j], gens[i])
            rhs = times_word(mult(gens[i], gens[j]), S.comm_rels.get((j, i), zero))
            if not np.array_equal(lhs, rhs):
                return f"commutator relation [g{j + 1},g{i + 1}]"
    return None


class PcPresentation:
    """Consistent power-commutator presentation of a group of order p^n."""

    def __init__(self, p: int, n: int, power_rels, comm_rels):
        if not _is_prime(p):
            raise PcPresentationError(f"p must be prime, got {p}")
        if p > MAX_PRIME:
            raise PcPresentationError(f"p must be at most {MAX_PRIME}, got {p}")
        if n < 0:
            raise PcPresentationError("negative generator count")
        self.p = p
        self.n = n
        self.power_rels = tuple(tuple(int(e) % p for e in w) for w in power_rels)
        self.comm_rels = {
            (j, i): tuple(int(e) % p for e in w)
            for (j, i), w in dict(comm_rels).items()
            if any(int(e) % p for e in w)
        }
        self._validate_shapes()
        self.order = p ** n
        self._right_gen = self._build_right_gen()
        # g_t acts as the permutation x -> x g_t, so xy is the gather y[x]
        fault = _relation_fault(self, self._right_gen, lambda x, y: y[x],
                                np.arange(self.order, dtype=np.int32))
        if fault is not None:
            raise InconsistentPresentationError(f"{fault} fails under collection")
        self._mult_table: np.ndarray | None = None
        self._inv_table: np.ndarray | None = None
        self._commute_table: np.ndarray | None = None
        self._order_p_mask: np.ndarray | None = None
        self._left_inv_gather: np.ndarray | None = None
        self._sub_pres_cache: dict = {}
        self._category: QuillenCategoryAC | None = None
        self._burnside: tuple[int, ...] | None = None
        self.factors: tuple[PcPresentation, PcPresentation] | None = None

    # -- structural validation ------------------------------------------------

    def _validate_shapes(self):
        n, p = self.n, self.p
        if len(self.power_rels) != n:
            raise PcPresentationError("need one power relation per generator")
        for i, w in enumerate(self.power_rels):
            if len(w) != n:
                raise PcPresentationError(f"power word {i} has wrong length")
            if any(w[k] for k in range(i + 1)):
                raise PcPresentationError(
                    f"power word of g{i + 1} must only involve later generators"
                )
        for (j, i), w in self.comm_rels.items():
            if not (0 <= i < j < n):
                raise PcPresentationError(f"commutator indices ({j},{i}) out of order")
            if len(w) != n:
                raise PcPresentationError(f"commutator word ({j},{i}) has wrong length")
            if any(w[k] for k in range(j + 1)):
                raise PcPresentationError(
                    f"commutator [g{j + 1},g{i + 1}] must only involve later generators"
                )

    def _build_right_gen(self) -> np.ndarray:
        """Row t: the permutation x -> x g_t, built from the last tail up.

        With the generators numbered from 0, the tail T_t = <g_t, ...,
        g_(n-1)> is the set of indices below p^(n-t), so x in T_t is
        g_t^e b with b in T_(t+1) and index e |T_(t+1)| + b.  Then x g_s = g_t^e (b g_s)
        for s > t, and x g_t = g_t^(e+1) b^(g_t), where g_t^p is the power
        word w_t.  b^(g_t) is b's word evaluated on the images
        g_s^(g_t) = g_s w_st; every product lands in T_(t+1), whose rows
        are already built."""
        p, n = self.p, self.n
        if n == 0:
            return np.zeros((0, 1), dtype=np.int32)
        rows = np.empty((n, self.order), dtype=np.int32)
        exps = _exponents(self)
        zero = (0,) * n
        for t in reversed(range(n)):
            m = p ** (n - 1 - t)  # |T_(t+1)|
            tail, tail_exps = rows[t + 1:, :m], exps[:m, t + 1:]
            # y -> y g_s^(g_t) = (y g_s) w_st on T_(t+1)
            images = [_evaluate(rows[s, :m], tail, np.broadcast_to(
                          self.comm_rels.get((s, t), zero)[t + 1:], tail_exps.shape), p)
                      for s in range(t + 1, n)]
            conj = _evaluate(np.zeros(m, dtype=np.int32), images, tail_exps, p)
            for e in range(p - 1):
                rows[t, e * m:(e + 1) * m] = (e + 1) * m + conj
            rows[t, (p - 1) * m:p * m] = _evaluate(
                np.full(m, self.idx_of(self.power_rels[t]), dtype=np.int32),
                tail, exps[conj, t + 1:], p)
            for e in range(1, p):
                rows[t + 1:, e * m:(e + 1) * m] = e * m + tail
        return rows

    # -- element arithmetic ------------------------------------------------------

    def exp_of(self, idx: int) -> tuple:
        e = []
        for t in range(self.n):
            q = self.p ** (self.n - 1 - t)
            e.append(idx // q)
            idx %= q
        return tuple(e)

    def idx_of(self, exp) -> int:
        idx = 0
        for t in range(self.n):
            idx = idx * self.p + int(exp[t]) % self.p
        return idx

    def gen_idx(self, t: int) -> int:
        return self.p ** (self.n - 1 - t)

    def generators(self) -> list[int]:
        return [self.gen_idx(t) for t in range(self.n)]

    def mult(self, a: int, b: int) -> int:
        tbl = self._mult_table
        if tbl is None:
            tbl = self.mult_table()
        return int(tbl[a, b])

    def mult_table(self) -> np.ndarray:
        """Entry (x, y): the index of xy.  Column y, the permutation
        x -> xy, is filled from the last tail up: the column of g_t^e c,
        for c in T_(t+1), is the column of c read at the rows x g_t^e,
        and the columns of T_(t+1) come first.  The array filled holds
        the columns as rows, so each block is gathered in place, and the
        table is its transpose."""
        if self._mult_table is None:
            order, p, n = self.order, self.p, self.n
            cols = np.empty((order, order), dtype=np.int32)
            cols[0] = np.arange(order, dtype=np.int32)
            for t in reversed(range(n)):
                m = p ** (n - 1 - t)
                x = cols[0]
                for e in range(1, p):
                    x = self._right_gen[t][x]
                    # mode "clip" gathers straight into out; "raise" buffers it
                    np.take(cols[:m], x, axis=1, out=cols[e * m:(e + 1) * m], mode="clip")
            self._mult_table = cols.T
        return self._mult_table

    def inv(self, a: int) -> int:
        return int(self.inv_table()[a])

    def inv_table(self) -> np.ndarray:
        """Entry x: x^-1 = x^(p^L - 1) for p^L the exponent of G, the
        product over k < L of (x^(p^k))^(p-1), by gathers through the table
        rather than a search of all of it."""
        if self._inv_table is None:
            tbl = self.mult_table()
            inv = np.zeros(self.order, dtype=np.int32)
            for power in _power_table(self)[:-1]:
                for _ in range(self.p - 1):
                    inv = tbl[inv, power]
            self._inv_table = inv
        return self._inv_table

    def commute_table(self) -> np.ndarray:
        """Boolean matrix whose (x, y) entry says xy = yx."""
        if self._commute_table is None:
            tbl = self.mult_table()
            self._commute_table = tbl == tbl.T
        return self._commute_table

    def order_p_mask(self) -> np.ndarray:
        """Boolean vector whose x entry says x^p = 1 (the identity included)."""
        if self._order_p_mask is None:
            tbl = self.mult_table()
            x = np.arange(self.order)
            power = x
            for _ in range(self.p - 1):
                power = tbl[power, x]
            self._order_p_mask = power == 0
        return self._order_p_mask

    def left_inv_gather(self) -> np.ndarray:
        """Array L with L[g, x] = g^-1 x, so (g.v)[x] = v[L[g, x]]."""
        if self._left_inv_gather is None:
            tbl = self.mult_table()
            self._left_inv_gather = np.ascontiguousarray(tbl[self.inv_table(), :])
        return self._left_inv_gather

    def burnside_generators(self) -> tuple[int, ...]:
        """The indices t of d(G) pc generators g_t that generate G: the
        pivot columns of the RREF basis of Hom(G, Z/p).

        The basis rows take the values of the identity matrix on those g_t,
        so their images in G/Phi(G), the dual of Hom(G, Z/p), are d(G)
        independent vectors and span it; by Burnside's basis theorem the
        g_t then generate G.  That they do is checked by closure, as a hard
        error: a resolution spans rad*K from them, and a set that generates
        less would inflate the betti number of its top degree, which no
        other check sees (below the top, the next minimality check fails)."""
        if self._burnside is None:
            gens = tuple(int(np.flatnonzero(row)[0]) for row in _hom_basis(self))
            if len(closure(self.mult, 0, [self.gen_idx(t) for t in gens])) != self.order:
                raise AssertionError("the Burnside generators do not generate G")
            self._burnside = gens
        return self._burnside

    def conj(self, a: int, g: int) -> int:
        """g^-1 a g."""
        return self.mult(self.mult(self.inv(g), a), g)

    def comm(self, a: int, b: int) -> int:
        """a^-1 b^-1 a b."""
        return self.mult(self.mult(self.inv(a), self.inv(b)), self.mult(a, b))

    def pth_power(self, a: int) -> int:
        x = 0
        for _ in range(self.p):
            x = self.mult(x, a)
        return x

    def element_order(self, a: int) -> int:
        k = 1
        x = a
        while x != 0:
            x = self.pth_power(x)
            k *= self.p
        return k

    def hash_key(self) -> str:
        payload = repr((self.p, self.n, self.power_rels, sorted(self.comm_rels.items())))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        return f"PcPresentation(p={self.p}, n={self.n}, order={self.order})"


class Subgroup:
    """Subgroup of a presented group, identified by its sorted element list."""

    __slots__ = ("parent", "elems", "gens")

    def __init__(self, parent: PcPresentation, elems, gens=()):
        self.parent = parent
        self.elems = tuple(sorted(int(x) for x in set(elems)))
        self.gens = tuple(gens)

    @classmethod
    def generate(cls, parent: PcPresentation, gens) -> "Subgroup":
        return cls(parent, closure(parent.mult, 0, gens), gens)

    @property
    def order(self) -> int:
        return len(self.elems)

    def is_elementary_abelian(self) -> bool:
        return omega1_center(self.parent, self).order == self.order

    @property
    def rank(self) -> int:
        """log_p of the order; meaningful for elementary abelian subgroups."""
        r = 0
        m = self.order
        while m > 1:
            m //= self.parent.p
            r += 1
        return r

    def conjugate(self, g: int) -> "Subgroup":
        G = self.parent
        tbl, ginv = G.mult_table(), G.inv_table()[g]
        return Subgroup(G, tbl[tbl[ginv, list(self.elems)], g],
                        tbl[tbl[ginv, list(self.gens)], g].tolist())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elems == other.elems
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.elems))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order})"


def closure(mult, ident, gens) -> set:
    """Elements of the subgroup generated by gens, by BFS under mult."""
    seen = {ident}
    frontier = [ident]
    gens = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mult(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def whole_group(G: PcPresentation) -> Subgroup:
    return Subgroup(G, range(G.order), G.generators())


def normal_form(G: PcPresentation, word) -> tuple:
    """Collect a word, given as (generator index, exponent) pairs, 1-based."""
    x = 0
    for t, e in word:
        if not (1 <= t <= G.n):
            raise PcPresentationError(f"generator g{t} out of range")
        e = int(e) % (G.element_order(G.gen_idx(t - 1)))
        for _ in range(e):
            x = G.mult(x, G.gen_idx(t - 1))
    return G.exp_of(x)


def center(G: PcPresentation) -> Subgroup:
    return centralizer(G, whole_group(G))


def omega1_center(G: PcPresentation, S: Subgroup | None = None) -> Subgroup:
    """Omega_1 Z(S), the largest central elementary abelian subgroup of S
    (default G): the elements of S of order dividing p that commute with S."""
    if S is None:
        S = whole_group(G)
    elems = np.array(S.elems)
    central = G.commute_table()[np.ix_(elems, S.gens or S.elems)].all(axis=1)
    return Subgroup(G, elems[central & G.order_p_mask()[elems]])


def is_p_central(G: PcPresentation) -> bool:
    """True iff every element of order p is central."""
    return omega1_center(G).order == int(G.order_p_mask().sum())


def centralizer(G: PcPresentation, S: Subgroup) -> Subgroup:
    """Elements that commute with the generators of S (with all of S when
    it records none), compared on those columns of the table only."""
    tbl, cols = G.mult_table(), list(S.gens or S.elems)
    return Subgroup(G, np.flatnonzero((tbl[:, cols] == tbl[cols, :].T).all(axis=1)))


def normalizer(G: PcPresentation, S: Subgroup) -> Subgroup:
    """Elements g with g^-1 s g in S for every s in S, gathered through the table."""
    tbl = G.mult_table()
    conj = tbl[tbl[G.inv_table()[:, None], S.elems], np.arange(G.order)[:, None]]
    inside = np.zeros(G.order, dtype=bool)
    inside[list(S.elems)] = True
    return Subgroup(G, np.flatnonzero(inside[conj].all(axis=1)))


def elementary_abelian_subgroups(
    G: PcPresentation, containing: Subgroup | None = None
) -> list[Subgroup]:
    """All elementary abelian subgroups, smallest first; each found as
    S<x> = S.<x> for a smaller one S and an order-p x centralizing S."""
    if containing is not None and not containing.is_elementary_abelian():
        return []
    base = containing if containing is not None else Subgroup(G, [0])
    tbl, commute, order_p = G.mult_table(), G.commute_table(), G.order_p_mask()
    found: dict[tuple, Subgroup] = {base.elems: base}
    frontier = [base]
    while frontier:
        nxt = []
        for S in frontier:
            admissible = order_p & commute[:, S.elems].all(axis=1)
            admissible[list(S.elems)] = False
            while admissible.any():
                x = int(admissible.argmax())
                powers = [0, x]
                for _ in range(G.p - 2):
                    powers.append(int(tbl[powers[-1], x]))
                bigger = Subgroup(G, tbl[np.ix_(S.elems, powers)].ravel(),
                                  list(S.gens or S.elems) + [x])
                # every y in S<x> \ S gives S<y> = S<x>: build it once
                admissible[list(bigger.elems)] = False
                if bigger.elems not in found:
                    found[bigger.elems] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (s.order, s.elems))


def p_rank(G: PcPresentation) -> int:
    """The largest rank among the objects of A_C, which holds every
    maximal elementary abelian subgroup."""
    return max(obj.rep.rank for obj in quillen_category_AC(G).objects)


def _hom_basis(G: PcPresentation) -> np.ndarray:
    """The RREF basis of Hom(G, Z/p), shape (d(G), n): row f holds the
    images f(g_1), ..., f(g_n).  A map to Z/p kills p-th powers and
    commutators, so it sends g_1^e_1 ... g_n^e_n to sum_t e_t f(g_t), and
    it is a homomorphism iff it kills the word of every relation: the
    rows span the kernel of the matrix of those words."""
    words = list(G.power_rels) + list(G.comm_rels.values())
    matrix = np.array(words, dtype=np.uint8).reshape(len(words), G.n)
    return kernel_basis(FpMatrix(G.p, matrix)).basis.arr


def _evaluate(start, perms, exps, p) -> np.ndarray:
    """Entry x: start[x] times the word prod_s h_s^exps[x, s], for perms[s]
    the permutation y -> y h_s and each exps row a normal-form exponent
    vector, by one masked gather per generator power."""
    out = np.array(start, dtype=np.int32)
    for s, perm in enumerate(perms):
        for e in range(1, p):
            mask = exps[:, s] >= e
            out[mask] = perm[out[mask]]
    return out


def _exponents(G: PcPresentation) -> np.ndarray:
    """Row x: the normal-form exponent vector of element x, as exp_of."""
    place = G.p ** np.arange(G.n - 1, -1, -1, dtype=np.int64)
    return np.arange(G.order, dtype=np.int64)[:, None] // place % G.p


def maximal_subgroups(G: PcPresentation) -> list[Subgroup]:
    """All index-p subgroups, as kernels of the nonzero maps G -> Z/p.

    Each kernel is taken once, from the map on its line of Hom(G, Z/p)
    whose first nonzero image is 1.  The basis is in RREF, so the first
    nonzero image of a combination of its rows is the first nonzero
    coefficient."""
    p, basis = G.p, _hom_basis(G).astype(np.int64)
    exps = _exponents(G)
    out = []
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        if next((c for c in coeffs if c), 0) != 1:
            continue
        f = np.array(coeffs, dtype=np.int64) @ basis % p
        out.append(Subgroup(G, np.flatnonzero(exps @ f % p == 0)))
    out.sort(key=lambda s: s.elems)
    return out


def frattini_subgroup(G: PcPresentation) -> Subgroup:
    """Phi(G), the intersection of the maximal subgroups: the common
    kernel of Hom(G, Z/p).  It is not kept on G: a Subgroup refers to its
    parent, and that cycle would keep the tables of an input that
    ``split_central_factors`` replaces alive until the next collection."""
    images = _exponents(G) @ _hom_basis(G).T.astype(np.int64) % G.p
    return Subgroup(G, np.flatnonzero(~images.any(axis=1)))


@dataclass
class ConjClass:
    """G-conjugacy class of subgroups: rep plus a conjugator per member."""

    rep: Subgroup
    members: dict = field(default_factory=dict)  # elems-tuple -> g with rep^g = member



def conjugacy_classes(G: PcPresentation, subgroups) -> list[ConjClass]:
    remaining = {s.elems: s for s in subgroups}
    classes = []
    gens = G.generators()
    while remaining:
        key = min(remaining)
        rep = remaining.pop(key)
        cls = ConjClass(rep, {rep.elems: 0})
        frontier = [(rep, 0)]
        while frontier:
            nxt = []
            for sub, u in frontier:
                for g in gens:
                    conj_sub = sub.conjugate(g)
                    if conj_sub.elems not in cls.members:
                        ug = G.mult(u, g)
                        cls.members[conj_sub.elems] = ug
                        nxt.append((conj_sub, ug))
                        remaining.pop(conj_sub.elems, None)
            frontier = nxt
        classes.append(cls)
    return classes


# ---------------------------------------------------------------------------
# homomorphisms

class GroupHom:
    """Relation-checked homomorphism between presented groups."""

    def __init__(self, src: PcPresentation, tgt: PcPresentation, gen_images):
        self.src = src
        self.tgt = tgt
        self.gen_images = tuple(int(x) for x in gen_images)
        if len(self.gen_images) != src.n:
            raise PcPresentationError("need one image per source generator")
        self._table: np.ndarray | None = None
        fault = _relation_fault(src, self.gen_images, tgt.mult, 0)
        if fault is not None:
            raise PcPresentationError(f"image violates {fault}")

    def apply(self, x: int) -> int:
        return int(self.table()[x])

    def table(self) -> np.ndarray:
        """Entry x: the image of x, its normal-form word evaluated on the
        generator images."""
        if self._table is None:
            perms = [self.tgt.mult_table()[:, h] for h in self.gen_images]
            start = np.zeros(self.src.order, dtype=np.int32)
            self._table = _evaluate(start, perms, _exponents(self.src), self.src.p)
        return self._table

    def kernel_elements(self) -> list[int]:
        t = self.table()
        return [int(x) for x in np.flatnonzero(t == 0)]

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner (inner applied first)."""
        if inner.tgt is not self.src:
            raise PcPresentationError("composition mismatch")
        images = [self.apply(inner.apply(g)) for g in inner.src.generators()]
        return GroupHom(inner.src, self.tgt, images)


def identity_hom(G: PcPresentation) -> GroupHom:
    return GroupHom(G, G, G.generators())


# ---------------------------------------------------------------------------
# presentations from abstract multiplication

def pc_structure(elems, mult, inv, p):
    """Build a central-series-refining presentation from raw multiplication.

    ``elems`` is a list of hashable ids containing the identity as the
    element e with mult(e, x) == x for all x.  Returns the presentation,
    the chosen generators as abstract ids, and a dict mapping each
    abstract id to its element index in the new presentation.

    The generating sequence refines the lower p-central series, which is
    what makes the commutator relations land beyond their own layer.
    """
    elems = list(elems)
    ident = next(e for e in elems if mult(e, e) == e)
    for x in elems:
        if mult(ident, x) != x:
            raise PcPresentationError("no identity found")

    def comm(a, b):
        return mult(mult(inv(a), inv(b)), mult(a, b))

    def pth(a):
        x = ident
        for _ in range(p):
            x = mult(x, a)
        return x

    # lower p-central series
    series = [set(elems)]
    while len(series[-1]) > 1:
        cur = series[-1]
        gens = {comm(a, g) for a in cur for g in elems} | {pth(a) for a in cur}
        gens.discard(ident)
        nxt = closure(mult, ident, gens)
        if nxt == cur:
            raise PcPresentationError("p-central series does not descend; not a p-group")
        series.append(nxt)

    # pick a generating sequence layer by layer
    order_key = {e: i for i, e in enumerate(elems)}
    pcgs = []
    for k in range(len(series) - 1):
        layer, nxt = series[k], series[k + 1]
        spanned = set(nxt)
        span_gens = list(nxt)
        for x in sorted(layer, key=lambda e: order_key[e]):
            if x not in spanned:
                pcgs.append(x)
                span_gens.append(x)
                spanned = closure(mult, ident, span_gens)
            if spanned == layer:
                break

    n = len(pcgs)
    # tail subgroups H_t = <g_t, ..., g_{n-1}>
    tails = [None] * (n + 1)
    tails[n] = {ident}
    for t in range(n - 1, -1, -1):
        tails[t] = closure(mult, ident, pcgs[t:])

    def to_exp(x):
        e = []
        cur = x
        for t in range(n):
            k = 0
            while cur not in tails[t + 1]:
                cur = mult(inv(pcgs[t]), cur)
                k += 1
                if k > p:
                    raise PcPresentationError("normal form peeling failed")
            e.append(k)
        return tuple(e)

    power_rels = []
    for t in range(n):
        w = to_exp(pth(pcgs[t]))
        if any(w[: t + 1]):
            raise PcPresentationError("power relation escapes its layer")
        power_rels.append(w)
    comm_rels = {}
    for j in range(n):
        for i in range(j):
            w = to_exp(comm(pcgs[j], pcgs[i]))
            if any(w[: j + 1]):
                raise PcPresentationError("commutator relation escapes its layer")
            if any(w):
                comm_rels[(j, i)] = w

    pres = PcPresentation(p, n, power_rels, comm_rels)
    to_idx = {x: pres.idx_of(to_exp(x)) for x in elems}
    return pres, pcgs, to_idx


def factor_parts(G: PcPresentation, S: Subgroup) -> tuple[Subgroup, Subgroup] | None:
    """(S_A, S_B) when G records factors A and B and S = S_A x S_B, for
    S_A and S_B the projections of S (their orders multiply); None
    otherwise.  Element (a, b) of A x B has index a |B| + b."""
    if G.factors is None:
        return None
    A, B = G.factors
    elems = np.asarray(S.elems)
    SA, SB = Subgroup(A, elems // B.order), Subgroup(B, elems % B.order)
    return (SA, SB) if SA.order * SB.order == S.order else None


def subgroup_presentation(G: PcPresentation, S: Subgroup):
    """Presentation of a subgroup, the validated embedding into G, and the
    index in that presentation of each element of S.  G presents itself:
    for S = G that is G, the identity and the identity index.  A product
    S = S_A x S_B of G = A x B (``factor_parts``) is presented as the
    ``direct_product`` of the factors' subgroup presentations, so it
    records its factors as G does, at every nesting level."""
    cached = G._sub_pres_cache.get(S.elems)
    if cached is not None:
        return cached
    if S.order == G.order:
        result = (G, identity_hom(G), range(G.order))
    else:
        parts = factor_parts(G, S)
        if parts is None:
            pres, gens_abs, to_idx = pc_structure(list(S.elems), G.mult, G.inv, G.p)
        else:
            (presA, embA, idxA), (presB, embB, idxB) = (
                subgroup_presentation(F, Sx) for F, Sx in zip(G.factors, parts))
            pres = direct_product(presA, presB)
            nB = G.factors[1].order
            gens_abs = ([embA.apply(a) * nB for a in presA.generators()]
                        + [embB.apply(b) for b in presB.generators()])
            to_idx = {x: idxA[x // nB] * presB.order + idxB[x % nB] for x in S.elems}
        embed = GroupHom(pres, G, gens_abs)
        # embedding must invert the normal-form indexing
        if not np.array_equal(embed.table()[[to_idx[x] for x in S.elems]], S.elems):
            raise PcPresentationError("subgroup embedding mismatch")
        result = (pres, embed, to_idx)
    G._sub_pres_cache[S.elems] = result
    return result


def _require_central(G: PcPresentation, S: Subgroup):
    if not set(S.elems) <= set(center(G).elems):
        raise PcPresentationError("subgroup is not central")


def quotient_by_central(G: PcPresentation, Z: Subgroup):
    """Quotient presentation by a central subgroup plus the projection hom."""
    _require_central(G, Z)
    gens = G.generators()
    # canonical coset labels: minimum element of the coset
    label = G.mult_table()[:, list(Z.elems)].min(axis=1)
    cosets = np.flatnonzero(np.bincount(label, minlength=G.order)).tolist()

    def cmult(a, b):
        return int(label[G.mult(a, b)])

    def cinv(a):
        return int(label[G.inv(a)])

    pres, gens_abs, to_idx = pc_structure(cosets, cmult, cinv, G.p)
    proj = GroupHom(G, pres, [to_idx[int(label[g])] for g in gens])
    return pres, proj


def direct_product(G: PcPresentation, H: PcPresentation) -> PcPresentation:
    """Concatenated presentation of G x H; element (a, b) has index a*|H| + b.

    The result records (G, H) as its ``factors``, from which a Workspace
    serves its resolution.  The hash ignores them, but a Workspace keys a
    presentation that records factors by its factors' keys, so a copy with
    the same relations and no recorded factors is resolved on its own."""
    if G.p != H.p:
        raise PcPresentationError("factors must share the prime")
    n = G.n + H.n
    power_rels = []
    for i in range(G.n):
        power_rels.append(tuple(G.power_rels[i]) + (0,) * H.n)
    for i in range(H.n):
        power_rels.append((0,) * G.n + tuple(H.power_rels[i]))
    comm_rels = {}
    for (j, i), w in G.comm_rels.items():
        comm_rels[(j, i)] = tuple(w) + (0,) * H.n
    for (j, i), w in H.comm_rels.items():
        comm_rels[(j + G.n, i + G.n)] = (0,) * G.n + tuple(w)
    prod = PcPresentation(G.p, n, power_rels, comm_rels)
    prod.factors = (G, H)
    return prod


def cyclic_presentation(p: int, k: int) -> PcPresentation:
    """Z/p^k on the pc generators g_i = g^(p^(i-1)), so g_i^p = g_(i+1)."""
    rels = []
    for i in range(k):
        w = [0] * k
        if i + 1 < k:
            w[i + 1] = 1
        rels.append(tuple(w))
    return PcPresentation(p, k, rels, {})


def split_central_factors(G: PcPresentation) -> PcPresentation:
    """G presented as ``direct_product(cyclic_presentation(p, a_1),
    direct_product(..., H))`` with every central cyclic direct factor split
    off, a_1 >= a_2 >= ..., or G itself when none splits.  A cyclic group,
    and a presentation that records factors already, come back unchanged.
    Which central z generate a factor is ``central_factor_mask``.

    **The map chi.** For such a z of order p^a, a chi: G -> Z/p^a with
    chi(z) = 1 has kernel H with G = <z> x H.  Z/p^a is abelian, so
    chi(g_1^e_1 ... g_n^e_n) = sum_t e_t chi(g_t), and values chi(g_t)
    define a homomorphism iff they satisfy the relations: p chi(g_i) =
    chi(w_i) for each power relation and chi(w_ji) = 0 for each commutator
    relation.  With chi(z) = 1 that is a linear system over Z/p^a, solvable
    exactly when the criterion holds (``_retraction_kernel``).

    **Repeating.** Inside H, N_a(H) = N_a(G) n H, since [G,G] = [H,H] and
    G^(p^a) = <z^(p^a)> x H^(p^a), so G's mask serves H; and a chi on G
    with chi(z') = 1 restricts to H.  So each later factor is split on G's
    table and relations, largest a first, until the complement is cyclic
    or has no such factor.  That complement is given one ``pc_structure``
    presentation, or a cyclic one, and the isomorphism onto G is checked
    as a ``GroupHom`` that is a bijection, a hard error otherwise."""
    p, order = G.p, G.order
    if G.factors is not None or len(_hom_basis(G)) < 2:  # G is cyclic
        return G
    mask = central_factor_mask(G)
    if not mask.any():
        return G
    powers = _power_table(G)
    levels = (powers != 0).sum(axis=0)  # x has order p^levels[x]
    H = np.ones(order, dtype=bool)
    split = []  # (z, a): <z> is a factor of order p^a
    while H.sum() > p ** levels[H].max():  # H is not cyclic
        cands = np.flatnonzero(mask & H)
        if not cands.size:
            break
        z = int(cands[levels[cands].argmax()])
        a = int(levels[z])
        H &= _retraction_kernel(G, z, a)
        split.append((z, a))
    if H.sum() == p ** levels[H].max():
        h = int(np.flatnonzero(H & (p ** levels == H.sum()))[0])
        split.append((h, int(levels[h])))
        pres, images = None, []
    else:
        pres, images, _ = pc_structure(np.flatnonzero(H).tolist(), G.mult, G.inv, p)
    for z, a in reversed(split):
        C = cyclic_presentation(p, a)
        pres = C if pres is None else direct_product(C, pres)
        images = [int(powers[k][z]) for k in range(a)] + images
    iso = GroupHom(pres, G, images)
    if not np.bincount(iso.table(), minlength=order).all():
        raise PcPresentationError("the split of central factors is not a bijection")
    return pres


def central_factor_mask(G: PcPresentation) -> np.ndarray:
    """Entry z: whether z is central and <z> is a direct factor of G.

    A central z of order p^a generates a direct factor iff z^(p^(a-1)) is
    not in N_a = [G,G] G^(p^a):

    - if G = <z> x H, the projection onto <z> = Z/p^a is a retraction; its
      kernel H contains [G,G] (the target is abelian) and G^(p^a) (its
      exponent is p^a), so N_a lies in H, which misses z^(p^(a-1));
    - conversely G/N_a is abelian of exponent dividing p^a, and the image
      of z there has order p^a.  A cyclic subgroup of order p^a in an
      abelian group of exponent p^a is a direct summand (Z/p^a is
      self-injective), so some chi: G -> Z/p^a has chi(z) = 1.  Its kernel
      H is normal of index p^a and meets <z> trivially, and z is central,
      so G = <z> x H.

    For a = 1 this reads z not in Phi(G).  Only an element outside Phi(G)
    can pass (Phi(<z> x H) = <z^p> x Phi(H)), which rules out most groups
    before any N_a is built."""
    mask = np.zeros(G.order, dtype=bool)
    mask[list(center(G).elems)] = True
    mask[list(frattini_subgroup(G).elems)] = False
    if mask.any():
        powers = _power_table(G)
        levels = (powers != 0).sum(axis=0)
        for a in set(levels[mask].tolist()):
            cands = np.flatnonzero(mask & (levels == a))
            mask[cands] = ~_verbal_subgroup(G, powers[a])[powers[a - 1][cands]]
    return mask


def _power_table(G: PcPresentation) -> np.ndarray:
    """Row k: x^(p^k) for every x, down to the first row of identities."""
    tbl = G.mult_table()
    powers = [np.arange(G.order)]
    while powers[-1].any():
        x = y = powers[-1]
        for _ in range(G.p - 1):
            y = tbl[y, x]
        powers.append(y)
    return np.array(powers)


def _verbal_subgroup(G: PcPresentation, pth_powers: np.ndarray) -> np.ndarray:
    """The mask of N = [G,G] G^q, given x^q for every x.  N is generated by
    the commutators [x, g_t] over all x and pc generators g_t, which span
    [G,G] ([x, g]^y = [xy, g] [y, g]^-1 keeps their span normal, and each
    g_t is central modulo it), and the g_t^q, which span G^q modulo
    [G,G].  Closure runs on those generators that lie outside the span of
    the ones kept before them."""
    tbl, inv, gens = G.mult_table(), G.inv_table(), G.generators()
    x = np.arange(G.order)[:, None]
    comms = tbl[tbl[inv[x], inv[gens]], tbl[x, gens]]
    kept, elems = [], {0}
    words = np.concatenate([comms.ravel(), pth_powers[gens]])
    for g in np.flatnonzero(np.bincount(words, minlength=G.order)).tolist():
        if g not in elems:
            kept.append(g)
            elems = closure(G.mult, 0, kept)
    mask = np.zeros(G.order, dtype=bool)
    mask[list(elems)] = True
    return mask


def _retraction_kernel(G: PcPresentation, z: int, a: int) -> np.ndarray:
    """The kernel mask of a homomorphism chi: G -> Z/p^a with chi(z) = 1,
    for z central of order p^a that generates a direct factor.  The values
    chi(g_t) solve the relations of G (``split_central_factors``), and chi
    is checked as a ``GroupHom`` into ``cyclic_presentation(p, a)``."""
    p, n = G.p, G.n
    rows = []
    for i, w in enumerate(G.power_rels):
        rows.append([p * (t == i) - w[t] for t in range(n)])
    rows.extend(list(w) for w in G.comm_rels.values())
    rows.append(list(G.exp_of(z)))
    x = _solve_mod_prime_power(rows, [0] * (len(rows) - 1) + [1], p, a)
    if x is None:
        raise AssertionError("a split central factor has no retraction")
    C = cyclic_presentation(p, a)
    # g^c is g_1^e_1 ... g_a^e_a for e_k the base-p digits of c, lowest first
    chi = GroupHom(G, C, [C.idx_of([c // p ** k % p for k in range(a)]) for c in x])
    if chi.apply(z) != C.gen_idx(0):
        raise AssertionError("the retraction does not send z to the generator")
    return chi.table() == 0


def _solve_mod_prime_power(rows, rhs, p: int, a: int) -> list[int] | None:
    """A solution x of rows . x = rhs over Z/p^a, or None when there is
    none.  Z/p^a is a chain ring, so an entry of least p-adic valuation in
    the active block divides every other entry there: taking it as pivot
    and clearing its row and column by unimodular operations diagonalizes
    the system (Smith form), with x = Q y for Q the column operations."""
    q, n = p ** a, len(rows[0])
    A = [[int(v) % q for v in row] for row in rows]
    b = [int(v) % q for v in rhs]
    Q = [[int(i == j) for j in range(n)] for i in range(n)]

    def valuation(v):
        k = 0
        while v % p == 0:
            v //= p
            k += 1
        return k

    rank = 0
    for k in range(min(len(A), n)):
        entries = [(valuation(A[i][j]), i, j)
                   for i in range(k, len(A)) for j in range(k, n) if A[i][j]]
        if not entries:
            break
        v, i, j = min(entries)
        A[k], A[i], b[k], b[i] = A[i], A[k], b[i], b[k]
        for row in A + Q:
            row[k], row[j] = row[j], row[k]
        unit_inv = pow(A[k][k] // p ** v, -1, q)
        for i in range(len(A)):
            if i != k and A[i][k]:
                f = A[i][k] // p ** v * unit_inv % q
                A[i] = [(s - f * t) % q for s, t in zip(A[i], A[k])]
                b[i] = (b[i] - f * b[k]) % q
        for j in range(k + 1, n):
            if A[k][j]:
                f = A[k][j] // p ** v * unit_inv % q
                for row in A + Q:
                    row[j] = (row[j] - f * row[k]) % q
        rank = k + 1
    y = [0] * n
    for k in range(len(A)):
        if k < rank:
            v = valuation(A[k][k])
            if b[k] % p ** v:
                return None
            y[k] = b[k] // p ** v * pow(A[k][k] // p ** v, -1, q) % q
        elif b[k]:
            return None
    return [sum(Q[i][j] * y[j] for j in range(n)) % q for i in range(n)]


def multiplication_hom(G: PcPresentation, C: Subgroup):
    """The hom C x G -> G, (c, g) -> c g, for a central subgroup C.

    Returns (product presentation of C x G, presentation of C, embedding
    of C into G, the multiplication hom).
    """
    _require_central(G, C)
    gens = G.generators()
    presC, embedC, _ = subgroup_presentation(G, C)
    prod = direct_product(presC, G)
    images = [embedC.apply(g) for g in presC.generators()] + gens
    m = GroupHom(prod, G, images)
    return prod, presC, embedC, m


# ---------------------------------------------------------------------------
# the inclusion category of elementary abelians above the central socle

@dataclass
class QuillenCategoryAC:
    """Conjugacy data for elementary abelian subgroups containing C(G)."""

    G: PcPresentation
    C: Subgroup
    objects: list[ConjClass]
    member_index: dict  # elems-tuple -> (object position, conjugator)

    def weyl_reps(self, obj: ConjClass) -> list[int]:
        """Coset representatives of C_G(V) in N_G(V) for V the class rep:
        the least element of each coset C_G(V) x."""
        G = self.G
        N = np.array(normalizer(G, obj.rep).elems)
        K = centralizer(G, obj.rep).elems
        least = G.mult_table()[np.ix_(K, N)].min(axis=0)
        return N[least == N].tolist()


def quillen_category_AC(G: PcPresentation) -> QuillenCategoryAC:
    """A_C for C = Omega_1 Z(G), built once per presentation and kept on it;
    its first object is C itself."""
    if G._category is None:
        C = omega1_center(G)
        subs = elementary_abelian_subgroups(G, containing=C)
        classes = conjugacy_classes(G, subs)
        classes.sort(key=lambda c: (c.rep.order, c.rep.elems))
        member_index = {}
        for pos, obj in enumerate(classes):
            for elems, g in obj.members.items():
                member_index[elems] = (pos, g)
        G._category = QuillenCategoryAC(G, C, classes, member_index)
    return G._category
