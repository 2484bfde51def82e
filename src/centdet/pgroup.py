"""Finite p-groups through consistent power-commutator presentations.

A presentation has generators g_1..g_n with relations
``g_i^p = word over later generators`` and ``[g_j, g_i] = word over
generators after g_j`` (j > i), so the tail subgroups refine a central
series and collection terminates structurally.  Groups here are small
(order <= ~2^10); elements are indexed 0..p^n-1 by their normal-form
exponent vectors in mixed radix, with 0 the identity.

Consistency is not taken on trust: construction builds the right-
multiplication permutation action from collection and then verifies
every defining relation as a permutation identity on all of G.

The subgroup predicates (center, centralizer, normalizer, Omega_1 of a
center, the elementary abelian enumeration) read two memoized arrays
derived from the multiplication table: ``commute_table`` (xy = yx) and
``order_p_mask`` (x^p = 1).  The element accessors ``comm``,
``pth_power`` and ``conj`` remain for collection and for validating
homomorphisms.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .fplinalg import MAX_PRIME, FpMatrix, _is_prime, kernel_basis


class PcPresentationError(ValueError):
    """Malformed presentation data (bad exponents, supports, or prime)."""


class InconsistentPresentationError(PcPresentationError):
    """Collection produced a relation violation: the input was inconsistent."""


class PcPresentation:
    """Consistent power-commutator presentation of a group of order p^n."""

    def __init__(self, p: int, n: int, power_rels, comm_rels, check: bool = True):
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
        self._mg_memo: dict = {}
        self._conj_gen = {
            (k, t): self._unit(k, 1, self.comm_rels.get((k, t)))
            for k in range(n)
            for t in range(k)
        }
        self._right_gen = self._build_right_gen()
        self._mg_memo.clear()
        if check:
            self._verify_relations()
        self._mult_table: np.ndarray | None = None
        self._inv_table: np.ndarray | None = None
        self._commute_table: np.ndarray | None = None
        self._order_p_mask: np.ndarray | None = None
        self._left_inv_gather: np.ndarray | None = None
        self._sub_pres_cache: dict = {}
        self._radix = np.array([p ** (n - 1 - t) for t in range(n)], dtype=np.int64)

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

    def _unit(self, t: int, e: int, extra=None) -> tuple:
        w = [0] * self.n
        w[t] = e
        if extra is not None:
            for k in range(self.n):
                w[k] = (w[k] + extra[k]) % self.p
        return tuple(w)

    # -- collection ------------------------------------------------------------

    def _mult_gen(self, a: tuple, t: int) -> tuple:
        """Normal form of a * g_t."""
        key = (a, t)
        out = self._mg_memo.get(key)
        if out is not None:
            return out
        p, n = self.p, self.n
        if not any(a[k] for k in range(t + 1, n)):
            e = a[t] + 1
            if e < p:
                out = a[:t] + (e,) + a[t + 1:]
            else:
                pw = self.power_rels[t]
                out = a[:t] + (0,) + pw[t + 1:]
        else:
            tail = (0,) * (t + 1) + a[t + 1:]
            moved = self._conj_tail(tail, t)
            if a[t] + 1 < p:
                out = a[:t] + (a[t] + 1,) + moved[t + 1:]
            else:
                tailprod = self._mult_exp(self.power_rels[t], moved)
                out = a[:t] + (0,) + tailprod[t + 1:]
        self._mg_memo[key] = out
        return out

    def _conj_tail(self, tail: tuple, t: int) -> tuple:
        """Normal form of g_t^-1 * tail * g_t for tail over indices > t."""
        res = (0,) * self.n
        for k in range(t + 1, self.n):
            e = tail[k]
            if e:
                ck = self._conj_gen.get((k, t))
                if ck is None:
                    ck = self._unit(k, 1)
                for _ in range(e):
                    res = self._mult_exp(res, ck)
        return res

    def _mult_exp(self, a: tuple, b: tuple) -> tuple:
        res = a
        for t in range(self.n):
            for _ in range(b[t]):
                res = self._mult_gen(res, t)
        return res

    def _build_right_gen(self) -> np.ndarray:
        order, n = self.p ** self.n, self.n
        if n == 0:
            return np.zeros((0, 1), dtype=np.int32)
        table = np.empty((n, order), dtype=np.int32)
        all_exps = [self.exp_of(i) for i in range(order)]
        for t in range(n):
            col = table[t]
            for i, e in enumerate(all_exps):
                col[i] = self.idx_of(self._mult_gen(e, t))
        return table

    def _verify_relations(self):
        order, n, p = self.order, self.n, self.p
        base = np.arange(order, dtype=np.int32)

        def apply_word(perm, word):
            out = perm
            for t in range(n):
                for _ in range(word[t]):
                    out = self._right_gen[t][out]
            return out

        for i in range(n):
            lhs = base
            for _ in range(p):
                lhs = self._right_gen[i][lhs]
            rhs = apply_word(base, self.power_rels[i])
            if not np.array_equal(lhs, rhs):
                raise InconsistentPresentationError(
                    f"power relation of g{i + 1} fails under collection"
                )
        zero = (0,) * n
        for j in range(n):
            for i in range(j):
                # g_j g_i = g_i g_j [g_j, g_i]
                lhs = self._right_gen[i][self._right_gen[j][base]]
                rhs = self._right_gen[j][self._right_gen[i][base]]
                rhs = apply_word(rhs, self.comm_rels.get((j, i), zero))
                if not np.array_equal(lhs, rhs):
                    raise InconsistentPresentationError(
                        f"commutator relation [g{j + 1},g{i + 1}] fails under collection"
                    )

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
        if self._mult_table is not None:
            return int(self._mult_table[a, b])
        x = a
        e = self.exp_of(b)
        for t in range(self.n):
            for _ in range(e[t]):
                x = int(self._right_gen[t][x])
        return x

    def mult_table(self) -> np.ndarray:
        if self._mult_table is None:
            order = self.order
            tbl = np.empty((order, order), dtype=np.int32)
            col = np.arange(order, dtype=np.int32)
            tbl[:, 0] = col
            for b in range(1, order):
                e = self.exp_of(b)
                cur = np.arange(order, dtype=np.int32)
                for t in range(self.n):
                    for _ in range(e[t]):
                        cur = self._right_gen[t][cur]
                tbl[:, b] = cur
            self._mult_table = tbl
        return self._mult_table

    def inv(self, a: int) -> int:
        return int(self.inv_table()[a])

    def inv_table(self) -> np.ndarray:
        if self._inv_table is None:
            tbl = self.mult_table()
            inv = np.empty(self.order, dtype=np.int32)
            rows, cols = np.nonzero(tbl == 0)
            inv[rows] = cols
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

    def power(self, a: int, e: int) -> int:
        x = 0
        for _ in range(e):
            x = self.mult(x, a)
        return x

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
        return Subgroup(G, [G.conj(x, g) for x in self.elems],
                        [G.conj(x, g) for x in self.gens])

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
    commute = G.commute_table()[:, S.gens or S.elems]
    return Subgroup(G, np.flatnonzero(commute.all(axis=1)))


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
            for x in np.flatnonzero(admissible).tolist():
                powers = [0, x]
                for _ in range(G.p - 2):
                    powers.append(int(tbl[powers[-1], x]))
                bigger = Subgroup(G, tbl[np.ix_(S.elems, powers)].ravel(),
                                  list(S.gens or S.elems) + [x])
                if bigger.elems not in found:
                    found[bigger.elems] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (s.order, s.elems))


def p_rank(G: PcPresentation) -> int:
    subs = elementary_abelian_subgroups(G)
    return max(s.rank for s in subs)


def maximal_subgroups(G: PcPresentation) -> list[Subgroup]:
    """All index-p subgroups, as kernels of the nonzero maps G -> Z/p."""
    if G.n == 0:
        return []
    p, n = G.p, G.n
    rows = [list(G.power_rels[i]) for i in range(n)]
    rows += [list(w) for w in G.comm_rels.values()]
    if rows:
        hom_space = kernel_basis(FpMatrix(p, np.array(rows, dtype=np.uint8)))
        basis = hom_space.basis.arr
    else:
        basis = np.eye(n, dtype=np.uint8)
    seen = set()
    out = []
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        v = np.zeros(n, dtype=np.int64)
        for c, row in zip(coeffs, basis):
            v = (v + c * row.astype(np.int64)) % p
        vt = tuple(int(t) for t in v)
        if not any(vt):
            continue
        # scale so the first nonzero coefficient is 1
        lead = next(t for t in vt if t)
        scale = pow(lead, p - 2, p)
        vt = tuple((t * scale) % p for t in vt)
        if vt in seen:
            continue
        seen.add(vt)
        elems = [
            x for x in range(G.order)
            if sum(e * c for e, c in zip(G.exp_of(x), vt)) % p == 0
        ]
        out.append(Subgroup(G, elems))
    out.sort(key=lambda s: s.elems)
    return out


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
        self._validate()

    def _validate(self):
        S, T = self.src, self.tgt
        img = self.gen_images

        def img_of_word(w):
            x = 0
            for t in range(S.n):
                for _ in range(w[t]):
                    x = T.mult(x, img[t])
            return x

        for i in range(S.n):
            lhs = T.power(img[i], S.p)
            if lhs != img_of_word(S.power_rels[i]):
                raise PcPresentationError(f"image violates power relation of g{i + 1}")
        zero = (0,) * S.n
        for j in range(S.n):
            for i in range(j):
                lhs = T.comm(img[j], img[i])
                if lhs != img_of_word(S.comm_rels.get((j, i), zero)):
                    raise PcPresentationError(
                        f"image violates commutator relation [g{j + 1},g{i + 1}]"
                    )

    def apply(self, x: int) -> int:
        if self._table is not None:
            return int(self._table[x])
        e = self.src.exp_of(x)
        y = 0
        for t in range(self.src.n):
            for _ in range(e[t]):
                y = self.tgt.mult(y, self.gen_images[t])
        return y

    def table(self) -> np.ndarray:
        if self._table is None:
            tbl = np.empty(self.src.order, dtype=np.int32)
            for x in range(self.src.order):
                tbl[x] = self.apply(x)
            self._table = tbl
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


def subgroup_presentation(G: PcPresentation, S: Subgroup):
    """Presentation of a subgroup plus the validated embedding into G."""
    cached = G._sub_pres_cache.get(S.elems)
    if cached is not None:
        return cached
    pres, gens_abs, to_idx = pc_structure(
        list(S.elems), G.mult, G.inv, G.p
    )
    embed = GroupHom(pres, G, gens_abs)
    # embedding must invert the normal-form indexing
    for x in S.elems:
        if embed.apply(to_idx[x]) != x:
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
    label = np.full(G.order, -1, dtype=np.int64)
    cosets = []
    for x in range(G.order):
        if label[x] >= 0:
            continue
        members = sorted(G.mult(x, z) for z in Z.elems)
        m = members[0]
        for y in members:
            label[y] = m
        cosets.append(m)

    def cmult(a, b):
        return int(label[G.mult(a, b)])

    def cinv(a):
        return int(label[G.inv(a)])

    pres, gens_abs, to_idx = pc_structure(cosets, cmult, cinv, G.p)
    proj = GroupHom(G, pres, [to_idx[int(label[g])] for g in gens])
    return pres, proj


def direct_product(G: PcPresentation, H: PcPresentation) -> PcPresentation:
    """Concatenated presentation of G x H; element (a, b) has index a*|H| + b."""
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
    return PcPresentation(G.p, n, power_rels, comm_rels)


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
class QuillenObject:
    cls: ConjClass

    @property
    def rep(self) -> Subgroup:
        return self.cls.rep


@dataclass
class QuillenCategoryAC:
    """Conjugacy data for elementary abelian subgroups containing C(G)."""

    G: PcPresentation
    C: Subgroup
    objects: list[QuillenObject]
    member_index: dict  # elems-tuple -> (object position, conjugator)

    def weyl_reps(self, obj: QuillenObject) -> list[int]:
        """Coset representatives of C_G(V) in N_G(V) for V the class rep:
        the least element of each coset C_G(V) x."""
        G = self.G
        N = np.array(normalizer(G, obj.rep).elems)
        K = centralizer(G, obj.rep).elems
        least = G.mult_table()[np.ix_(K, N)].min(axis=0)
        return N[least == N].tolist()


def quillen_category_AC(G: PcPresentation) -> QuillenCategoryAC:
    C = omega1_center(G)
    subs = elementary_abelian_subgroups(G, containing=C)
    classes = conjugacy_classes(G, subs)
    classes.sort(key=lambda c: (c.rep.order, c.rep.elems))
    objects = [QuillenObject(c) for c in classes]
    member_index = {}
    for pos, obj in enumerate(objects):
        for elems, g in obj.cls.members.items():
            member_index[elems] = (pos, g)
    return QuillenCategoryAC(G, C, objects, member_index)
