"""Group catalog and the .pcp file format.

Hall-Senior numbers are labels, not trust anchors: every shipped entry
carries the fingerprint (order, center rank, p-rank, p-centrality) it
must reproduce, and entries with published invariants also carry the
expected type and detection numbers for self-identification.  An entry
whose computed fingerprint disagrees is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pgroup import (
    PcPresentation,
    PcPresentationError,
    check_order,
    cyclic_presentation,
    direct_product,
    is_p_central,
    omega1_center,
    p_rank,
    pc_structure,
)


class CatalogError(ValueError):
    """Unknown id or an entry that failed self-identification."""


@dataclass
class CatalogEntry:
    id: str
    pres: PcPresentation
    expected: dict = field(default_factory=dict)
    notes: str = ""

    def fingerprint(self) -> dict:
        return {
            "order": self.pres.order,
            "center_rank": omega1_center(self.pres).rank,
            "rank": p_rank(self.pres),
            "p_central": is_p_central(self.pres),
        }

    def check_fingerprint(self):
        got = self.fingerprint()
        for key in ("order", "center_rank", "rank", "p_central"):
            if key in self.expected and self.expected[key] != got[key]:
                raise CatalogError(
                    f"{self.id}: fingerprint mismatch on {key}: "
                    f"expected {self.expected[key]}, computed {got[key]}"
                )

    def check_invariants(self, report_dict: dict):
        """Compare a computed report against the published values.

        Fields whose certificate is false may still change at a larger
        degree bound, so they are not compared.
        """
        certified = report_dict.get("certified", {})
        for key, flag in (("type", "type"), ("e", "type"), ("d0", "d0"),
                          ("d1", "d1"), ("e_prime", "e_prime")):
            if (key not in self.expected or report_dict.get(key) is None
                    or not certified.get(flag)):
                continue
            want = self.expected[key]
            if key == "type":
                want = list(want)
            if want != report_dict[key]:
                raise CatalogError(
                    f"{self.id}: self-identification failed on {key}: "
                    f"expected {want}, computed {report_dict[key]}"
                )


# ---------------------------------------------------------------------------
# presentation builders


def elementary_abelian_presentation(p: int, n: int) -> PcPresentation:
    return PcPresentation(p, n, [(0,) * n] * n, {})


def _two_generator_2group(k: int, s_squared_last: bool, semidihedral: bool):
    """Common scaffold for dihedral / quaternion / semidihedral of order 2^k:
    a1 the outer involution-like generator, a_i = r^(2^(i-2)) for i >= 2."""
    n = k
    pow_rels = []
    first = [0] * n
    if s_squared_last:
        first[n - 1] = 1
    pow_rels.append(tuple(first))
    for i in range(1, n):
        w = [0] * n
        if i + 1 < n:
            w[i + 1] = 1
        pow_rels.append(tuple(w))
    comm = {}
    w = [0] * n
    stop = n - 1 if semidihedral else n
    for t in range(2, stop):
        w[t] = 1
    comm[(1, 0)] = tuple(w)
    for i in range(2, n - 1):
        w = [0] * n
        for t in range(i + 1, n):
            w[t] = 1
        comm[(i, 0)] = tuple(w)
    return PcPresentation(2, n, pow_rels, comm)


def dihedral_presentation(order: int) -> PcPresentation:
    k = order.bit_length() - 1
    return _two_generator_2group(k, s_squared_last=False, semidihedral=False)


def quaternion_presentation(order: int) -> PcPresentation:
    k = order.bit_length() - 1
    return _two_generator_2group(k, s_squared_last=True, semidihedral=False)


def semidihedral_presentation(order: int) -> PcPresentation:
    k = order.bit_length() - 1
    return _two_generator_2group(k, s_squared_last=False, semidihedral=True)


def w32_presentation() -> PcPresentation:
    """Order-32 group with center (Z/2)^3, quotient (Z/2)^2, squares and the
    commutator of the two lifts generating the center (32#18)."""
    return PcPresentation(
        2, 5,
        [(0, 0, 1, 0, 0), (0, 0, 0, 0, 1), (0,) * 5, (0,) * 5, (0,) * 5],
        {(1, 0): (0, 0, 0, 1, 0)},
    )


class _GF2k:
    """GF(2^k) on integer bit masks, as a product table built once."""

    def __init__(self, k: int, modulus: int):
        size = 1 << k

        def mul(a: int, b: int) -> int:
            acc = 0
            while b:
                if b & 1:
                    acc ^= a
                b >>= 1
                a <<= 1
                if a & size:
                    a ^= modulus
            return acc

        self.prod = [[mul(a, b) for b in range(size)] for a in range(size)]

    def powers(self, e: int) -> list[int]:
        """x^e for every element x, indexed by x."""
        out = [1] * len(self.prod)
        for _ in range(e):
            out = [self.prod[y][x] for x, y in enumerate(out)]
        return out


def su34_sylow_presentation() -> PcPresentation:
    """Sylow 2-subgroup of SU(3,4), order 64 (64#187): unitary unitriangular
    pairs (a, b) in F16 x F16 with b + b^4 = a^5 and product
    (a, b)(a', b') = (a + a', b + b' + a * a'^4)."""
    F = _GF2k(4, 0b10011)  # x^4 + x + 1
    prod, fourth, fifth = F.prod, F.powers(4), F.powers(5)
    elems = [
        (a, b)
        for a in range(16)
        for b in range(16)
        if (b ^ fourth[b]) == fifth[a]
    ]
    assert len(elems) == 64

    def mult(x, y):
        a, b = x
        c, d = y
        return (a ^ c, b ^ d ^ prod[a][fourth[c]])

    def inv(x):
        a, b = x
        return (a, b ^ fifth[a])

    pres, _, _ = pc_structure(elems, mult, inv, 2)
    return pres


def sz8_sylow_presentation() -> PcPresentation:
    """Sylow 2-subgroup of Sz(8), order 64 (64#153): pairs (a, b) in F8 x F8
    with product (a, b)(a', b') = (a + a', b + b' + a^4 * a')."""
    F = _GF2k(3, 0b1011)  # x^3 + x + 1
    prod, fourth = F.prod, F.powers(4)
    elems = [(a, b) for a in range(8) for b in range(8)]

    def mult(x, y):
        a, b = x
        c, d = y
        return (a ^ c, b ^ d ^ prod[fourth[a]][c])

    def inv(x):
        a, b = x
        return (a, b ^ prod[fourth[a]][a])

    pres, _, _ = pc_structure(elems, mult, inv, 2)
    return pres


# ---------------------------------------------------------------------------
# the shipped catalog

def _entry(builder, notes="", **expected):
    return (builder, expected, notes)


_BUILTINS = {}
for _k in range(1, 7):
    _BUILTINS[f"Z{2 ** _k}"] = _entry(
        (lambda kk: (lambda: cyclic_presentation(2, kk)))(_k),
        notes=f"cyclic of order {2 ** _k}",
        order=2 ** _k, center_rank=1, rank=1, p_central=True,
        type=[1] if _k == 1 else [2], e=0 if _k == 1 else 1,
        d0=0 if _k == 1 else 1, d1=0 if _k == 1 else 2,
    )
for _k in range(2, 5):
    _BUILTINS[f"E{2 ** _k}"] = _entry(
        (lambda kk: (lambda: elementary_abelian_presentation(2, kk)))(_k),
        notes=f"elementary abelian of rank {_k}",
        order=2 ** _k, center_rank=_k, rank=_k, p_central=True,
        type=[1] * _k, e=0, d0=0, d1=0,
    )
# depth is that of H*(G; F_2): dihedral 2-groups have Cohen-Macaulay
# cohomology of depth 2, the semidihedral ones depth 1
for _o in (8, 16, 32):
    _BUILTINS[f"D{_o}"] = _entry(
        (lambda oo: (lambda: dihedral_presentation(oo)))(_o),
        notes=f"dihedral of order {_o}",
        order=_o, center_rank=1, rank=2, p_central=False,
        type=[2], e=1, e_prime=-1, d0=0, depth=2,
    )
for _o in (8, 16, 32, 64):
    _BUILTINS[f"Q{_o}"] = _entry(
        (lambda oo: (lambda: quaternion_presentation(oo)))(_o),
        notes=f"generalized quaternion of order {_o}",
        order=_o, center_rank=1, rank=1, p_central=True,
        type=[4], e=3, d0=3, d1=5,
    )
for _o in (16, 32):
    _BUILTINS[f"SD{_o}"] = _entry(
        (lambda oo: (lambda: semidihedral_presentation(oo)))(_o),
        notes=f"semidihedral of order {_o}",
        order=_o, center_rank=1, rank=2, p_central=False,
        type=[4], e=3, e_prime=2, d0=2, depth=1,
    )
_BUILTINS["32#18"] = _entry(
    w32_presentation, notes="universal 2-central group over (Z/2)^2",
    order=32, center_rank=3, rank=3, p_central=True,
    type=[2, 2, 2], e=3, d0=3, d1=4,
)
_BUILTINS["64#187"] = _entry(
    su34_sylow_presentation, notes="2-Sylow of SU(3,4)",
    order=64, center_rank=2, rank=2, p_central=True,
    type=[8, 8], e=14, d0=14, d1=18,
)
_BUILTINS["64#153"] = _entry(
    sz8_sylow_presentation, notes="2-Sylow of Sz(8)",
    order=64, center_rank=3, rank=3, p_central=True,
    type=[4, 4, 4], e=9, d0=9, d1=11,
)


def builtin_ids() -> list[str]:
    return sorted(_BUILTINS)


def _product_entry(a: CatalogEntry, b: CatalogEntry) -> CatalogEntry:
    """The entry of a x b, its expected values combined from the factors',
    with its cheap fingerprint verified."""
    expected: dict = {
        "order": a.pres.order * b.pres.order,
        "center_rank": a.expected.get("center_rank", 0)
        + b.expected.get("center_rank", 0),
        "rank": a.expected.get("rank", 0) + b.expected.get("rank", 0),
        "p_central": a.expected.get("p_central", False)
        and b.expected.get("p_central", False),
    }
    if "type" in a.expected and "type" in b.expected:
        expected["type"] = sorted(
            a.expected["type"] + b.expected["type"], reverse=True
        )
        expected["e"] = a.expected["e"] + b.expected["e"]
    if "d0" in a.expected and "d0" in b.expected:
        expected["d0"] = a.expected["d0"] + b.expected["d0"]
    if expected["p_central"] and "d1" in a.expected and "d1" in b.expected:
        expected["d1"] = max(
            a.expected["d1"] + b.expected["d0"],
            a.expected["d0"] + b.expected["d1"],
        )
    entry = CatalogEntry(f"{a.id}x{b.id}", direct_product(a.pres, b.pres),
                         expected, f"{a.notes} x {b.notes}")
    entry.check_fingerprint()
    return entry


def builtin(id: str) -> CatalogEntry:
    """A shipped entry, or an 'AxB...' direct product of shipped entries.

    The id is refused before any group is built when a factor is not
    shipped or the product's recorded order is too large.  Each factor,
    and each suffix product, has its cheap fingerprint verified."""
    names = id.split("x")
    if not all(name in _BUILTINS for name in names):
        raise CatalogError(f"unknown catalog id: {id!r}")
    order = 1
    for name in names:  # every shipped entry is a 2-group
        order *= _BUILTINS[name][1]["order"]
    check_order(2, order.bit_length() - 1)
    entries = []
    for name in names:
        builder, expected, notes = _BUILTINS[name]
        entries.append(CatalogEntry(name, builder(), dict(expected), notes))
        entries[-1].check_fingerprint()
    entry = entries.pop()
    while entries:
        entry = _product_entry(entries.pop(), entry)
    return entry


# ---------------------------------------------------------------------------
# .pcp files


class PcpFormatError(PcPresentationError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message

    def __reduce__(self):
        # rebuilt from its constructor's arguments, so a pool worker's
        # refusal reaches the parent process whole
        return type(self), (self.line_no, self.message)


def _parse_word(text: str, p: int, n: int, line_no: int) -> tuple:
    """A word in normal form: factors g_k^e with k strictly increasing and
    1 <= e <= p - 1, or "1".  Any other word is refused, as reading it
    would need collection."""
    text = text.strip()
    w = [0] * n
    if text == "1":
        return tuple(w)
    last = 0
    for factor in text.split():
        if not factor.startswith("g") or "^" not in factor:
            raise PcpFormatError(line_no, f"bad word factor {factor!r}")
        gpart, _, epart = factor[1:].partition("^")
        try:
            k, e = int(gpart), int(epart)
        except ValueError:
            raise PcpFormatError(line_no, f"bad word factor {factor!r}") from None
        if not (1 <= k <= n):
            raise PcpFormatError(line_no, f"generator g{k} out of range")
        if k <= last:
            raise PcpFormatError(
                line_no, f"word not in normal form: g{k} after g{last}, generators must increase"
            )
        if not (1 <= e <= p - 1):
            raise PcpFormatError(
                line_no, f"word not in normal form: exponent {e} of g{k} outside 1..{p - 1}"
            )
        w[k - 1] = e
        last = k
    return tuple(w)


def parse_pcp(text: str) -> PcPresentation:
    p = None
    n = None
    pow_rels: dict[int, tuple] = {}
    comm_rels: dict[tuple, tuple] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 2 or not parts[1].isdigit():
                raise PcpFormatError(line_no, "expected 'p <prime>'")
            p = int(parts[1])
        elif parts[0] == "gens":
            if len(parts) != 2 or not parts[1].isdigit():
                raise PcpFormatError(line_no, "expected 'gens <n>'")
            n = int(parts[1])
        elif parts[0] == "pow":
            if p is None or n is None:
                raise PcpFormatError(line_no, "pow before p/gens header")
            if len(parts) < 4 or parts[2] != "=" or not parts[1].isdigit():
                raise PcpFormatError(line_no, "expected 'pow i = <word>'")
            i = int(parts[1])
            if not (1 <= i <= n):
                raise PcpFormatError(line_no, f"generator g{i} out of range")
            word = _parse_word(line.split("=", 1)[1], p, n, line_no)
            if any(word[: i]):
                raise PcpFormatError(
                    line_no, f"power word of g{i} may only use later generators"
                )
            pow_rels[i - 1] = word
        elif parts[0] == "comm":
            if p is None or n is None:
                raise PcpFormatError(line_no, "comm before p/gens header")
            if (len(parts) < 5 or parts[3] != "="
                    or not (parts[1].isdigit() and parts[2].isdigit())):
                raise PcpFormatError(line_no, "expected 'comm j i = <word>'")
            j, i = int(parts[1]), int(parts[2])
            if not (1 <= i < j <= n):
                raise PcpFormatError(line_no, f"need j > i, got comm {j} {i}")
            word = _parse_word(line.split("=", 1)[1], p, n, line_no)
            if any(word[: j]):
                raise PcpFormatError(
                    line_no, f"commutator word [g{j},g{i}] may only use later generators"
                )
            comm_rels[(j - 1, i - 1)] = word
        else:
            raise PcpFormatError(line_no, f"unrecognized directive {parts[0]!r}")
        if p is not None and n is not None:
            check_order(p, n)  # before any relation word of length n is built
    if p is None or n is None:
        raise PcpFormatError(0, "missing 'p' or 'gens' header")
    rels = [pow_rels.get(i, (0,) * n) for i in range(n)]
    return PcPresentation(p, n, rels, comm_rels)


def format_word(w) -> str:
    parts = [f"g{k + 1}^{e}" for k, e in enumerate(w) if e]
    return " ".join(parts) if parts else "1"


def format_pcp(pres: PcPresentation, header: str = "") -> str:
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.append(f"p {pres.p}")
    lines.append(f"gens {pres.n}")
    for i, w in enumerate(pres.power_rels):
        if any(w):
            lines.append(f"pow {i + 1} = {format_word(w)}")
    for (j, i), w in sorted(pres.comm_rels.items()):
        if any(w):
            lines.append(f"comm {j + 1} {i + 1} = {format_word(w)}")
    return "\n".join(lines) + "\n"


def load_pcp(path: str) -> PcPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pcp(fh.read())

