from collections import Counter
from random import Random

from graphbpe.chem import parse_smiles, write_smiles
from graphbpe.miner import build_motif_vocabulary, learn_merging_operations
from graphbpe.tokenizer import apply_operations, extract_trajectory, fragmentize
from graphbpe.generator import replay_trajectory
from helpers import random_molecule


def a1_ops():
    corpus = [parse_smiles(s) for s in ["CC", "CN", "CNN", "CN=O", "CC=O"]]
    return corpus, learn_merging_operations(corpus, 2)


class TestApplyOperations:
    def test_sequential_semantics_on_ccn(self):
        _, ops = a1_ops()
        state = apply_operations(parse_smiles("CCN"), ops)
        parts = sorted(
            write_smiles(state.mol.subgraph(atoms)[0]) for atoms in state.frag_atoms.values()
        )
        assert parts == ["C", "CN"]  # sequential application; never {CC, N}

    def test_no_ops_yields_atom_partition(self):
        mol = parse_smiles("CC(=O)N")
        state = apply_operations(mol, [])
        assert len(state.frag_atoms) == len(mol.atoms)

    def test_matches_miner_partition_on_corpus(self, corpus_1k):
        _, mols = corpus_1k
        sub = mols[:40]
        ops = learn_merging_operations(sub, 20)
        vocab = build_motif_vocabulary(sub, ops)
        rebuilt = Counter()
        for mol in sub:
            frag = fragmentize(mol, ops)
            rebuilt.update(frag.motif_strings())
        assert rebuilt == Counter(
            {m.smiles: m.frequency for m in vocab.ordered_motifs()}
        )


class TestFragmentize:
    def test_ccn_motifs(self):
        _, ops = a1_ops()
        frag = fragmentize(parse_smiles("CCN"), ops)
        assert sorted(frag.motif_strings()) == ["*C", "*CN"]
        (link,) = frag.broken_bonds
        for motif, star in ((link.motif_a, link.star_a), (link.motif_b, link.star_b)):
            assert dict(frag.motifs[motif].sites)[star][2] == "single"

    def test_single_fragment_no_breaks(self):
        corpus = [parse_smiles("CC")]
        ops = learn_merging_operations(corpus, 1)
        frag = fragmentize(parse_smiles("CC"), ops)
        assert frag.motif_strings() == ["CC"]
        assert frag.broken_bonds == ()

    def test_bromobenzene_fig2(self):
        corpus = [parse_smiles(s) for s in ["Brc1ccccc1", "Cc1cccc(O)c1"]]
        ops = learn_merging_operations(corpus, 3)
        frag = fragmentize(parse_smiles("Brc1ccccc1"), ops)
        strings = frag.motif_strings()
        assert len(strings) == 2
        assert "*Br" in strings
        assert len(frag.broken_bonds) == 1

    def test_reassembly_is_isomorphic(self, corpus_1k):
        _, mols = corpus_1k
        ops = learn_merging_operations(mols[:30], 12)
        for mol in mols[:30]:
            frag = fragmentize(mol, ops)
            total_atoms = sum(m.atom_count for m in frag.motifs)
            assert total_atoms == len(mol.atoms)
            total_stars = sum(
                sum(1 for a in parse_smiles(m.smiles).atoms if a.is_connection_site)
                for m in frag.motifs
            )
            assert total_stars == 2 * len(frag.broken_bonds)


    def test_links_name_the_star_sites(self, corpus_1k, ops_500):
        """One link per broken molecule bond, in bond order; each side's star
        is bonded by that bond's order, which is also its site type's."""
        _, mols = corpus_1k
        for mol in mols[:40]:
            frag = fragmentize(mol, ops_500[:50])
            firsts = [m.parent_atoms[0] for m in frag.motifs]
            assert firsts == sorted(firsts)
            motif_of = {atom: i for i, m in enumerate(frag.motifs) for atom in m.parent_atoms}
            broken = [bond for bond in mol.bonds if motif_of[bond.a] != motif_of[bond.b]]
            assert len(frag.broken_bonds) == len(broken)
            graphs = [parse_smiles(m.smiles) for m in frag.motifs]
            linked = Counter()
            for link, bond in zip(frag.broken_bonds, broken):
                for motif, star in ((link.motif_a, link.star_a), (link.motif_b, link.star_b)):
                    graph = graphs[motif]
                    assert graph.atoms[star].is_connection_site
                    ((_, bidx),) = graph.neighbors(star)
                    assert graph.bonds[bidx].order == bond.order
                    assert dict(frag.motifs[motif].sites)[star][2] == bond.order
                    linked[motif, star] += 1
            stars = Counter(
                (motif, atom_id)
                for motif, graph in enumerate(graphs)
                for atom_id, atom in enumerate(graph.atoms)
                if atom.is_connection_site
            )
            assert linked == stars  # every star in exactly one link


class TestTrajectory:
    def test_single_motif_trajectory(self):
        corpus = [parse_smiles("CC")]
        ops = learn_merging_operations(corpus, 1)
        traj = extract_trajectory(parse_smiles("CC"), ops)
        assert traj.start_motif == "CC"
        assert traj.steps == ()

    def test_ccn_starts_with_larger_motif(self):
        _, ops = a1_ops()
        traj = extract_trajectory(parse_smiles("CCN"), ops)
        assert traj.start_motif == "*CN"
        assert len(traj.steps) == 1
        assert traj.steps[0].kind == "attach"
        assert traj.steps[0].motif == "*C"

    def test_double_bridge_gives_attach_plus_cyclize(self):
        # two fragments joined by two bonds: one attach, one cyclize
        mol = parse_smiles("C1CC1C")  # will be split at K=0: every bond broken
        traj = extract_trajectory(mol, [])
        kinds = Counter(step.kind for step in traj.steps)
        assert kinds["cyclize"] == 1  # exactly one ring closure
        assert kinds["attach"] == len(mol.atoms) - 1

    def test_corpus_roundtrip_sample(self, corpus_1k):
        _, mols = corpus_1k
        sample = mols[:60]
        ops = learn_merging_operations(sample, 25)
        vocab = build_motif_vocabulary(sample, ops)
        for mol in sample:
            traj = extract_trajectory(mol, ops)
            assert write_smiles(replay_trajectory(traj, vocab)) == write_smiles(mol)

    def test_random_molecule_roundtrip_k0(self):
        rng = Random(7)
        for _ in range(30):
            mol = random_molecule(rng, max_atoms=12)
            vocab = build_motif_vocabulary([mol], [])
            traj = extract_trajectory(mol, [])
            assert write_smiles(replay_trajectory(traj, vocab)) == write_smiles(mol)


class TestLinearity:
    def test_tokenization_scales_linearly_in_bond_count(self, corpus_1k, ops_500):
        import time

        _, mols = corpus_1k
        ops = ops_500[:100]
        small = sorted(mols, key=lambda m: len(m.bonds))[:200]
        large = sorted(mols, key=lambda m: len(m.bonds))[-200:]

        def tokenize_time(batch):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                for mol in batch:
                    apply_operations(mol, ops)
                best = min(best, time.perf_counter() - start)
            return best, sum(len(m.bonds) for m in batch)

        t_small, b_small = tokenize_time(small)
        t_large, b_large = tokenize_time(large)
        # time per bond should not blow up with molecule size
        assert t_large / b_large <= 3.0 * (t_small / b_small)
