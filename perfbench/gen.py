"""Seeded SMILES generators for the benchmark workloads.

Every generator takes the workload seed and returns molecule-file text in
the format ``load_molecules`` reads (``SMILES name`` per line, ``#``
comments). The benchmark writes that text to a file and hands the program
only the file, as a user would. Generators use ``random.Random(seed)`` so the
same seed gives the same text on every machine.
"""

from __future__ import annotations

import random

# Substituents the bundled corpus carries, as the branch that hangs off a
# backbone carbon, with their (heavy atoms, atoms including hydrogens).
SINGLE_SUBSTITUENTS = {
    "O": (1, 2), "N": (1, 3), "C(=O)O": (3, 4), "OC": (2, 5), "F": (1, 1),
    "Cl": (1, 1), "Br": (1, 1), "C#N": (2, 2), "S": (1, 2),
}
CARBONYL = "=O"

# Lines outside the parser's supported subset, one template per rejected
# construct: stereo bonds, tetrahedral stereo, salts, two-digit ring
# closures and isotopes. ``{x}`` takes a valid fragment so planted lines
# differ from one another.
PLANTED_TEMPLATES = (
    "C/C=C/{x}",
    "N[C@@H]({x})C(=O)O",
    "{x}C(=O)[O-].[NH4+]",
    "C%10CCCCC%10{x}",
    "[13CH3]{x}",
)


def backbone(rng: random.Random, target: int, phenylene_every: int, count_hydrogens: bool) -> str:
    """A carbon backbone grown until it holds about ``target`` atoms, counting
    hydrogens or only heavy atoms.

    Units are sp3 carbons (each carrying a substituent with probability
    0.35; a carbonyl when that substituent is ``=O``), ``C=C`` pairs and
    para-phenylenes, one phenylene per ``phenylene_every`` heavy atoms. A
    single-bonded substituent ends the chain. Ring closures open and close
    inside one unit, so digit 1 is reused throughout.
    """
    parts = ["C"]
    heavy, atoms = 1, 4  # a methyl start
    since_ring = 0
    while (atoms if count_hydrogens else heavy) < target - 2:
        if since_ring >= phenylene_every:
            parts.append("c1ccc(cc1)")
            heavy, atoms, since_ring = heavy + 6, atoms + 10, 0
            continue
        if rng.random() < 0.12:
            parts.append("C=C")
            added_heavy, added_atoms = 2, 4
        elif rng.random() < 0.35:
            branch = rng.choice((*SINGLE_SUBSTITUENTS, CARBONYL))
            parts.append(f"C({branch})")
            if branch == CARBONYL:
                added_heavy, added_atoms = 2, 2
            else:
                sub_heavy, sub_atoms = SINGLE_SUBSTITUENTS[branch]
                added_heavy, added_atoms = 1 + sub_heavy, 2 + sub_atoms
        else:
            parts.append("C")
            added_heavy, added_atoms = 1, 3
        heavy, atoms = heavy + added_heavy, atoms + added_atoms
        since_ring += added_heavy
    parts.append(rng.choice(tuple(SINGLE_SUBSTITUENTS)))
    return "".join(parts)


def large_molecules(seed: int, count: int = 12, low: int = 100, high: int = 180) -> str:
    """``count`` backbone molecules with atom counts (hydrogens included)
    spread evenly over [low, high], so every seed gives the same size
    profile and only the chemistry varies."""
    rng = random.Random(seed)
    lines = [f"# large-train seed {seed}: {count} backbone molecules"]
    for k in range(count):
        target = low + round(k * (high - low) / max(1, count - 1))
        lines.append(f"{backbone(rng, target, 15, count_hydrogens=True)} large-{k:02d}")
    return "\n".join(lines) + "\n"


_RINGS = ("c1ccccc1", "c1ccncc1", "c1ccoc1", "c1ccsc1", "C1CCCCC1", "C1CCOC1")


def _library_smiles(rng: random.Random) -> str:
    """One drug-like molecule: an optional ring, a short backbone and a few
    substituents; 5-40 heavy atoms."""
    heavy = rng.randint(4, 30)
    body = backbone(rng, heavy, rng.choice((12, 18, 40)), count_hydrogens=False)
    if rng.random() < 0.55:
        # The ring's last atom bonds to the backbone's first carbon.
        body = rng.choice(_RINGS) + body
    return body


def library(seed: int, count: int = 2000, planted_every: int = 20) -> tuple[str, list[int]]:
    """A screening library of ``count`` distinct valid molecules with one
    planted unsupported line about every ``planted_every`` lines.

    Returns the file text and the 1-based line numbers of planted lines.
    """
    rng = random.Random(seed)
    lines = [f"# library-embed seed {seed}: {count} molecules plus planted lines"]
    planted: list[int] = []
    seen: set[str] = set()
    valid = 0
    while valid < count:
        if rng.randrange(planted_every) == 0:
            fragment = rng.choice(("CC", "CCO", "CN", "CCC(=O)O", "c1ccccc1"))
            template = rng.choice(PLANTED_TEMPLATES)
            lines.append(f"{template.format(x=fragment)} planted-{len(planted):04d}")
            planted.append(len(lines))
            continue
        smiles = _library_smiles(rng)
        if smiles in seen:
            continue
        seen.add(smiles)
        lines.append(f"{smiles} lib-{valid:05d}")
        valid += 1
    return "\n".join(lines) + "\n", planted
