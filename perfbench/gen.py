"""Seeded inputs for the benchmark: a protein FASTA and an MS2 file.

Everything here is computed apart from the program: the residue and
modification masses, the tryptic digest and the fragment ladder are this
file's own, so the output checks in checks.py do not lean on the code they
check. The program only ever sees the two files written by `write_inputs`.
"""

import math
import random

PROTON = 1.00727646688
WATER = 18.0105646863

RESIDUE_MASS = {
    "A": 71.03711381, "C": 103.00918496, "D": 115.02694302,
    "E": 129.04259309, "F": 147.06841391, "G": 57.02146374,
    "H": 137.05891186, "I": 113.08406398, "K": 128.09496302,
    "L": 113.08406398, "M": 131.04048491, "N": 114.04292744,
    "P": 97.05276385, "Q": 128.05857751, "R": 156.10111102,
    "S": 87.03202841, "T": 101.04767847, "V": 99.06841391,
    "W": 186.07931295, "Y": 163.06332853,
}

# The program's "paper" modification set: name -> (delta, residues).
MODS = {
    "Deamidation": (0.98401585, "NQ"),
    "GlyGly": (114.04292744, "KC"),
    "Oxidation": (15.99491462, "M"),
}
MOD_FOR_RESIDUE = {r: name for name, (_, rs) in MODS.items() for r in rs}

# SwissProt residue composition, so tryptic lengths look like real ones.
COMPOSITION = {
    "A": 0.0826, "C": 0.0137, "D": 0.0546, "E": 0.0672, "F": 0.0386,
    "G": 0.0708, "H": 0.0228, "I": 0.0593, "K": 0.0582, "L": 0.0965,
    "M": 0.0241, "N": 0.0406, "P": 0.0474, "Q": 0.0393, "R": 0.0553,
    "S": 0.0660, "T": 0.0535, "V": 0.0687, "W": 0.0110, "Y": 0.0292,
}

# Digestion and variant limits passed to `lbectl prepare` (see run.py).
MISSED_CLEAVAGES = 2
MIN_LENGTH, MAX_LENGTH = 6, 40
MIN_MASS, MAX_MASS = 100.0, 5000.0
MAX_MOD_RESIDUES = 5
MAX_VARIANTS = 64

# Spectrum realism, the same model as the program's synthetic generator.
PEAK_OBSERVE_PROB = 0.85
MZ_JITTER = 0.008
NOISE_PEAKS = 25
NOISE_MAX_MZ = 2000.0
MODIFIED_FRACTION = 0.3
PTM_FRACTION = 0.3
PTM_MIN, PTM_MAX = 12.0, 120.0


def peptide_mass(sequence, sites=()):
    """Neutral monoisotopic mass; `sites` are (position, mod name) pairs."""
    return (WATER + sum(RESIDUE_MASS[c] for c in sequence)
            + sum(MODS[name][0] for _, name in sites))


def parse_annotated(annotated):
    """'PEPM(Oxidation)K' -> ('PEPMK', [(3, 'Oxidation')])."""
    sequence, sites, i = [], [], 0
    while i < len(annotated):
        c = annotated[i]
        if c == "(":
            end = annotated.index(")", i)
            sites.append((len(sequence) - 1, annotated[i + 1:end]))
            i = end + 1
            continue
        sequence.append(c)
        i += 1
    return "".join(sequence), sites


def tryptic_peptides(protein):
    """Fully tryptic peptides (after K/R, not before P) within the limits."""
    bounds = [0] + [i + 1 for i in range(len(protein) - 1)
                    if protein[i] in "KR" and protein[i + 1] != "P"]
    bounds.append(len(protein))
    out = []
    for first in range(len(bounds) - 1):
        for missed in range(MISSED_CLEAVAGES + 1):
            if first + missed + 1 >= len(bounds):
                break
            begin, end = bounds[first], bounds[first + missed + 1]
            if end - begin < MIN_LENGTH:
                continue
            if end - begin > MAX_LENGTH:
                break
            pep = protein[begin:end]
            if MIN_MASS <= peptide_mass(pep) <= MAX_MASS:
                out.append(pep)
    return out


def variant_count(sequence):
    """Index entries one base peptide expands to (variants, capped)."""
    sites = sum(1 for c in sequence if c in MOD_FOR_RESIDUE)
    total = sum(math.comb(sites, k)
                for k in range(min(MAX_MOD_RESIDUES, sites) + 1))
    return min(MAX_VARIANTS, total)


def make_proteome(rng, target_entries):
    """Random proteins, added until their distinct tryptic peptides expand
    to `target_entries` target index entries. Growing to an entry count
    rather than a protein count keeps the index size nearly seed-free."""
    residues = list(COMPOSITION)
    weights = list(COMPOSITION.values())
    proteins, peptides, entries = [], set(), 0
    while entries < target_entries:
        length = max(60, int(rng.gauss(360, 90)))
        protein = "".join(rng.choices(residues, weights, k=length))
        proteins.append(protein)
        for pep in tryptic_peptides(protein):
            if pep not in peptides:
                peptides.add(pep)
                entries += variant_count(pep)
    return proteins, sorted(peptides)


def fragments(sequence, sites):
    """Singly charged b and y ions: (m/z, is_y, ordinal)."""
    delta = [RESIDUE_MASS[c] for c in sequence]
    for pos, name in sites:
        delta[pos] += MODS[name][0]
    prefix = [0.0]
    for d in delta:
        prefix.append(prefix[-1] + d)
    n = len(sequence)
    out = []
    for i in range(1, n):
        out.append((prefix[i] + PROTON, False, i))
        out.append((prefix[n] - prefix[i] + WATER + PROTON, True, n - i))
    return out


def make_spectrum(rng, peptides):
    """One query: a planted target peptide, maybe modified, maybe carrying an
    unannounced mass shift at one residue."""
    base = peptides[rng.randrange(len(peptides))]
    sites = []
    eligible = [i for i, c in enumerate(base) if c in MOD_FOR_RESIDUE]
    if eligible and rng.random() < MODIFIED_FRACTION:
        chosen = sorted(rng.sample(eligible, min(len(eligible),
                                                 rng.randint(1, 2))))
        sites = [(i, MOD_FOR_RESIDUE[base[i]]) for i in chosen]
    shift, shift_site = 0.0, 0
    if rng.random() < PTM_FRACTION:
        shift = rng.uniform(PTM_MIN, PTM_MAX)
        shift_site = rng.randrange(len(base))
    peaks = []
    for mz, is_y, ordinal in fragments(base, sites):
        if rng.random() >= PEAK_OBSERVE_PROB:
            continue
        mz += rng.gauss(0.0, MZ_JITTER)
        if shift:
            moved = (shift_site >= len(base) - ordinal if is_y
                     else shift_site < ordinal)
            if moved:
                mz += shift
        scale = 100.0 if is_y else 60.0
        peaks.append((mz, scale * (0.25 + 0.75 * rng.random())))
    for _ in range(NOISE_PEAKS):
        peaks.append((rng.uniform(50.0, NOISE_MAX_MZ), rng.uniform(1.0, 20.0)))
    peaks.sort()
    charge = rng.randint(2, 3)
    neutral = peptide_mass(base, sites) + shift
    return {"base": base, "sites": sites, "shift": shift, "charge": charge,
            "neutral": neutral, "peaks": peaks}


def write_fasta(path, proteins):
    with open(path, "w") as out:
        for i, protein in enumerate(proteins):
            out.write(f">bench|P{i:05d}\n")
            for j in range(0, len(protein), 60):
                out.write(protein[j:j + 60] + "\n")


def write_ms2(path, spectra):
    """MS2 with the precursor on both lines: S carries m/z, Z (M+H)+."""
    lines = ["H\tExtractor\tperfbench\n"]
    for scan, s in enumerate(spectra, start=1):
        z = s["charge"]
        mz = (s["neutral"] + z * PROTON) / z
        lines.append(f"S\t{scan}\t{scan}\t{mz:.4f}\n")
        lines.append(f"Z\t{z}\t{s['neutral'] + PROTON:.5f}\n")
        lines.extend(f"{m:.4f} {i:.1f}\n" for m, i in s["peaks"])
    with open(path, "w") as out:
        out.writelines(lines)


def precursor_masses(ms2_path):
    """Neutral precursor mass per scan, read back from the MS2 file (the
    exact value the program parsed, rounding included)."""
    masses = []
    with open(ms2_path) as f:
        for line in f:
            if line.startswith("Z"):
                masses.append(float(line.split()[2]) - PROTON)
    return masses


def write_inputs(fasta_path, ms2_path, seed, target_entries, num_spectra):
    """Writes both files; returns the ground truth: the set of target
    tryptic peptides of the FASTA and the planted spectra."""
    rng = random.Random(seed)
    proteins, peptides = make_proteome(rng, target_entries)
    spectra = [make_spectrum(rng, peptides) for _ in range(num_spectra)]
    write_fasta(fasta_path, proteins)
    write_ms2(ms2_path, spectra)
    return set(peptides), spectra
