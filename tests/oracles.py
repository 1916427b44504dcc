"""Brute-force reference implementations used as test oracles.

Everything here re-derives results from raw paper records: no
CollaborationIndex, no precomputed author sets, no shared code paths with
the library internals beyond the record and enum types needed to compare
outputs.
"""

import math
import random
import string

from selfcite.classify import AuthorEdgeClass, CitationType, Perspective
from selfcite.corpus import DISCIPLINES, PaperRecord, corpus_from_records
from selfcite.graph import CitationEdge
from selfcite.porter import stem
from selfcite.textsim import load_stopwords

_WORDS = (
    "alpha", "beta", "gamma", "delta", "kernel", "graph", "matrix", "field",
    "neuron", "sample", "cluster", "signal", "model", "theory", "bound",
)


def joint_paper_before(corpus, a, b, year):
    """True iff a and b co-authored some paper strictly before ``year``."""
    if a == b:
        return False
    for p in corpus.papers.values():
        if p.year < year and a in p.author_ids and b in p.author_ids:
            return True
    return False


def brute_force_classify_all(corpus):
    """Re-derive every classification rule directly from raw records."""
    papers = corpus.papers
    records = []
    for citing_id in sorted(papers):
        citing = papers[citing_id]
        for cited_id in sorted(citing.reference_ids):
            cited = papers.get(cited_id)
            if cited is None:
                continue
            edge = CitationEdge(citing_id, cited_id, citing.year, cited.year)
            for author in citing.author_ids:
                if author in cited.author_ids:
                    ctype = CitationType.DIRECT
                elif any(x != author and x in cited.author_ids for x in citing.author_ids):
                    ctype = CitationType.COAUTHOR
                elif any(joint_paper_before(corpus, author, b, citing.year)
                         for b in cited.author_ids):
                    ctype = CitationType.COLLABORATOR
                else:
                    ctype = CitationType.EXTERNAL
                records.append(AuthorEdgeClass(author, edge, Perspective.REFERENCE, ctype))
            for author in cited.author_ids:
                if author in citing.author_ids:
                    ctype = CitationType.DIRECT
                elif any(x != author and x in citing.author_ids for x in cited.author_ids):
                    ctype = CitationType.COAUTHOR
                elif any(joint_paper_before(corpus, author, b, citing.year)
                         for b in citing.author_ids):
                    ctype = CitationType.COLLABORATOR
                else:
                    ctype = CitationType.EXTERNAL
                records.append(AuthorEdgeClass(author, edge, Perspective.CITATION, ctype))
    return records


def brute_force_h(counts):
    """h-index by trying every candidate value."""
    best = 0
    for h in range(len(counts) + 1):
        if sum(1 for c in counts if c >= h) >= h:
            best = h
    return best


def brute_force_decompose(corpus, author):
    """Recount citations per paper of ``author`` from raw records and
    recompute h under each exclusion set."""
    papers = corpus.papers
    own = [pid for pid in papers if author in papers[pid].author_ids]
    per_paper = {pid: [] for pid in own}  # pid -> list of citation types
    for citing_id, citing in papers.items():
        for cited_id in citing.reference_ids:
            if cited_id not in per_paper:
                continue
            if author in citing.author_ids:
                ctype = CitationType.DIRECT
            elif any(x != author and x in citing.author_ids
                     for x in papers[cited_id].author_ids):
                ctype = CitationType.COAUTHOR
            elif any(joint_paper_before(corpus, author, b, citing.year)
                     for b in citing.author_ids):
                ctype = CitationType.COLLABORATOR
            else:
                ctype = CitationType.EXTERNAL
            per_paper[cited_id].append(ctype)

    def h_excluding(excluded):
        counts = [
            sum(1 for t in types if t not in excluded)
            for types in per_paper.values()
        ]
        return brute_force_h(counts)

    return {
        "h_obs": h_excluding(set()),
        "h_minus_direct": h_excluding({CitationType.DIRECT}),
        "h_minus_direct_coauthor": h_excluding({CitationType.DIRECT, CitationType.COAUTHOR}),
        "h_minus_direct_coauthor_collab": h_excluding(
            {CitationType.DIRECT, CitationType.COAUTHOR, CitationType.COLLABORATOR}
        ),
        "h_minus_coauthor_only": h_excluding({CitationType.COAUTHOR}),
        "h_minus_collaborator_only": h_excluding({CitationType.COLLABORATOR}),
    }


def brute_force_rates(corpus, author):
    """(self_reference_rate, self_citation_rate) from raw records;
    None where the denominator is zero."""
    papers = corpus.papers
    ref_direct = ref_total = 0
    for p in papers.values():
        if author not in p.author_ids:
            continue
        for rid in p.reference_ids:
            target = papers.get(rid)
            if target is None:
                continue
            ref_total += 1
            if author in target.author_ids:
                ref_direct += 1
    cite_direct = cite_total = 0
    for citing in papers.values():
        for rid in citing.reference_ids:
            target = papers.get(rid)
            if target is None or author not in target.author_ids:
                continue
            cite_total += 1
            if author in citing.author_ids:
                cite_direct += 1
    return (
        ref_direct / ref_total if ref_total else None,
        cite_direct / cite_total if cite_total else None,
    )


def brute_force_author_index(papers):
    """{author: (first year, last year, paper ids in ``papers`` order, modal
    discipline, whether the mode was tied)} by recounting each author's
    papers, authors in order of first appearance."""
    authors = []
    for p in papers.values():
        authors += [a for a in p.author_ids if a not in authors]
    index = {}
    for author in authors:
        own = [p for p in papers.values() if author in p.author_ids]
        years = [p.year for p in own]
        counts = [sum(1 for p in own if p.discipline == d) for d in DISCIPLINES]
        best = max(counts)
        index[author] = (min(years), max(years), [p.paper_id for p in own],
                         DISCIPLINES[counts.index(best)], counts.count(best) > 1)
    return index


def random_corpus(rng: random.Random, max_papers=50, max_authors=15):
    """Random small corpus: mixed team sizes, anachronistic references,
    occasional unresolved ids and missing abstracts."""
    n_authors = rng.randint(1, max_authors)
    authors = [f"R{i}" for i in range(n_authors)]
    n_papers = rng.randint(1, max_papers)
    papers = []
    for i in range(n_papers):
        team = rng.sample(authors, rng.randint(1, min(4, n_authors)))
        candidates = [f"S{j}" for j in range(n_papers) if j != i]
        refs = rng.sample(candidates, rng.randint(0, min(8, len(candidates))))
        if refs and rng.random() < 0.3:
            refs.append(f"X{rng.randint(0, 99)}")
        abstract = None
        if rng.random() < 0.8:
            abstract = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 12)))
        papers.append(PaperRecord(
            paper_id=f"S{i}",
            year=rng.randint(1990, 2010),
            discipline=rng.choice(DISCIPLINES),
            author_ids=tuple(team),
            reference_ids=tuple(refs),
            abstract=abstract,
        ))
    return corpus_from_records(papers)


def brute_force_vectors(corpus):
    """tf-idf vectors by the definition of the textsim docstring, with plain
    string-keyed dicts: paper id -> (term -> weight, norm).

    Text is lowercased and split into runs of ASCII letters and digits;
    stopwords are dropped and the rest stemmed. tf is the raw count of a
    stem, idf = ln(N/df) over the N abstracts with at least one stem, and a
    term of weight 0 is dropped. Terms keep the order of their first
    occurrence; the norm adds the squared weights left to right in it."""
    kept = string.ascii_lowercase + string.digits
    stopwords = load_stopwords()
    counts = {}
    for pid, paper in corpus.papers.items():
        if paper.abstract is None:
            continue
        tf = {}
        token = ""
        for char in paper.abstract.lower() + " ":
            if char in kept:
                token += char
                continue
            if token and token not in stopwords:
                term = stem(token)
                tf[term] = tf.get(term, 0) + 1
            token = ""
        counts[pid] = tf
    n_docs = sum(1 for tf in counts.values() if tf)
    df = {}
    for tf in counts.values():
        for term in tf:
            df[term] = df.get(term, 0) + 1
    vectors = {}
    for pid, tf in counts.items():
        weights = {}
        for term, n in tf.items():
            weight = n * math.log(n_docs / df[term])
            if weight > 0.0:
                weights[term] = weight
        total = 0.0
        for weight in weights.values():
            total += weight * weight
        vectors[pid] = (weights, math.sqrt(total))
    return vectors


def brute_force_cosine(u, v):
    """Cosine of two (weights, norm) oracle vectors: the products of the
    common terms added one at a time in sorted term order; 0 for a zero
    vector."""
    (wu, nu), (wv, nv) = u, v
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = 0.0
    for term in sorted(set(wu) & set(wv)):
        dot += wu[term] * wv[term]
    return min(dot / (nu * nv), 1.0)
