"""Finite posets: validation, strict chains, covering pairs, Hasse diagrams
in DOT and JSON export.  The order complex is the nerve of the poset category
(``dicube.categories``)."""

from __future__ import annotations

from typing import Sequence

from .errors import ContractError
from .homology import ChainComplex


class Poset:
    """A finite poset given by element labels and a reflexive leq matrix."""

    def __init__(self, elements: Sequence, leq: Sequence[Sequence[bool]]):
        self.elements = list(elements)
        n = len(self.elements)
        self.leq = [tuple(bool(v) for v in row) for row in leq]
        if len(self.leq) != n or any(len(row) != n for row in self.leq):
            raise ContractError("leq matrix shape does not match elements")
        self.validate()

    def __len__(self) -> int:
        return len(self.elements)

    def validate(self) -> None:
        n = len(self.elements)
        for i in range(n):
            if not self.leq[i][i]:
                raise ContractError(f"leq not reflexive at {self.elements[i]!r}")
            for j in range(n):
                if i != j and self.leq[i][j] and self.leq[j][i]:
                    raise ContractError(
                        f"leq not antisymmetric on {self.elements[i]!r}, {self.elements[j]!r}"
                    )
                if self.leq[i][j]:
                    for k in range(n):
                        if self.leq[j][k] and not self.leq[i][k]:
                            raise ContractError("leq not transitive")

    def lt(self, i: int, j: int) -> bool:
        return i != j and self.leq[i][j]

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with i < j and nothing strictly between."""
        out = []
        n = len(self.elements)
        for i in range(n):
            for j in range(n):
                if self.lt(i, j) and not any(
                    self.lt(i, k) and self.lt(k, j) for k in range(n)
                ):
                    out.append((i, j))
        return out

    def chains(self) -> list[tuple[int, ...]]:
        """All nonempty strictly increasing chains, lexicographic by index tuple."""
        n = len(self.elements)
        above = [[j for j in range(n) if self.lt(i, j)] for i in range(n)]
        out: list[tuple[int, ...]] = []

        def extend(chain: tuple[int, ...]):
            out.append(chain)
            for j in above[chain[-1]]:
                extend(chain + (j,))

        for i in range(n):
            extend((i,))
        out.sort(key=lambda c: (len(c), c))
        return out

    def order_complex(self) -> ChainComplex:
        """Chain complex of the order complex (simplices = strict chains): the
        nerve of the poset category, whose runs of non-identity morphisms are
        the strict chains in (length, tuple) order."""
        from .categories import nerve_complex, poset_category

        return nerve_complex(poset_category(self))

    def element_label(self, i: int) -> str:
        e = self.elements[i]
        if isinstance(e, str):
            return e
        if isinstance(e, tuple):
            return ";".join(map(str, e))
        return str(e)

    def to_dot(self, name: str = "poset") -> str:
        """Hasse diagram: one node per element, one edge per covering pair."""
        lines = [f"digraph {name} {{"]
        for i in range(len(self.elements)):
            lines.append(f'  n{i} [label="{_dot_escape(self.element_label(i))}"];')
        for i, j in self.covers():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        # tuple elements (e.g. chains of cell labels) serialize as arrays
        return {
            "elements": [
                list(e) if isinstance(e, tuple) else self.element_label(i)
                for i, e in enumerate(self.elements)
            ],
            "leq_pairs": [
                [i, j]
                for i in range(len(self.elements))
                for j in range(len(self.elements))
                if self.leq[i][j]
            ],
        }


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
