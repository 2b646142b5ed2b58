"""Shared fixture registries.

Every Bott matrix and every Dold spec instantiated anywhere in this test
suite is listed here, so the global orientable-vanishing property (dual
classes vanish strictly above degree N - alpha_hat(N)) can be asserted over
all of them in one place.
"""

from __future__ import annotations

from charclass.bott import (
    BottMatrix,
    banded_matrix,
    chain_matrix,
    extend_with_circles,
    main_matrix,
    random_orientable_matrix,
)
from charclass.dold import DoldSpec
from hypothesis import Phase, settings

# `tools/mutants.py` runs tests under this profile: a killed mutant needs
# only its first failing example, not a shrunk one
settings.register_profile(
    "mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate]
)

# (label, matrix); orientable and non-orientable entries both belong here --
# consumers filter by is_orientable where orientability is a hypothesis.
ALL_BOTT_FIXTURES: list[tuple[str, BottMatrix]] = (
    [(f"main-{n}", main_matrix(n)) for n in (1, 2, 3, 4, 5, 6, 7, 9, 12, 13, 17)]
    + [(f"torus-{n}", BottMatrix(n, [])) for n in (1, 2, 3, 6)]
    + [("single-one-2", BottMatrix(2, [(1, 2)]))]
    + [(f"chain-{m}", chain_matrix(m)) for m in range(1, 9)]
    + [
        ("banded-12-2", banded_matrix(12, 2)),
        ("banded-8-2", banded_matrix(8, 2)),
        ("banded-7-3", banded_matrix(7, 3)),
        ("banded-6-4", banded_matrix(6, 4)),
    ]
    + [
        (f"extended-{m}+{k}", extend_with_circles(main_matrix(m), k))
        for m in (1, 5, 9, 13, 17)
        for k in (1, 2)
    ]
    + [
        (f"random-{n}-seed{seed}", random_orientable_matrix(n, seed))
        for n, seed in ((6, 11), (8, 12), (10, 13), (12, 14), (13, 15))
    ]
    + [
        (f"random-10-seed{seed}", random_orientable_matrix(10, seed))
        for seed in (7, 8, 9)
    ]
)

ALL_DOLD_FIXTURES: list[tuple[str, DoldSpec]] = (
    [("dold-P(1;2)", DoldSpec(1, (2,))), ("dold-P(2;1)", DoldSpec(2, (1,)))]
    + [("dold-P(0;2)", DoldSpec(0, (2,))), ("dold-P(3;1,1)", DoldSpec(3, (1, 1)))]
    + [("dold-P(1;1)", DoldSpec(1, (1,))), ("dold-P(4;1,1)", DoldSpec(4, (1, 1)))]
    + [
        (f"dold-P({2 ** e - 3};2)", DoldSpec(2 ** e - 3, (2,)))
        for e in range(2, 7)
    ]
    + [
        (f"dold-P({2 ** e - 1};2,{2 ** f})", DoldSpec(2 ** e - 1, (2, 2 ** f)))
        for e in range(2, 5)
        for f in range(e, 5)
    ]
    + [
        (
            f"dold-P({2 ** e - 1};2,{2 ** f},{2 ** g})",
            DoldSpec(2 ** e - 1, (2, 2 ** f, 2 ** g)),
        )
        for e in range(2, 6)
        for f in range(e, 6)
        for g in range(f + 1, 6)
    ]
    + [("dold-P(3;2,4)", DoldSpec(3, (2, 4)))]
)
