"""Corpus data model and line-delimited ingestion.

Input files carry one JSON object per line (papers file, optional authors
file) so large corpora can be ingested as a stream instead of a single
parsed document. A loaded :class:`Corpus` is treated as immutable: every
analysis module only reads it.

References may point at ids that are absent from the corpus. Those are
kept and counted as unresolved; all rate denominators downstream use
resolvable references only.

Records are named tuples, not dataclasses: :mod:`dataclasses` (with
:mod:`inspect`) is imported by :mod:`selfcite.synth` alone.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter, defaultdict
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Union

DISCIPLINES = (
    "arts_humanities",
    "health",
    "natural_sciences_engineering",
    "social_sciences",
    "unknown",
)
GENDERS = ("woman", "man", "unknown")

YEAR_MIN = 1800
YEAR_MAX = 2100

#: Authors with strictly more publications than this are "eligible".
DEFAULT_MIN_PUBS = 5


class CorpusError(Exception):
    """Malformed or inconsistent input data."""


class PaperRecord(NamedTuple):
    """One publication: identity, authorship, references, optional text."""

    paper_id: str
    year: int
    discipline: str
    author_ids: tuple[str, ...]
    reference_ids: tuple[str, ...]
    abstract: Optional[str] = None
    title: Optional[str] = None


class AuthorRecord(NamedTuple):
    author_id: str
    gender: str = "unknown"
    display_name: Optional[str] = None


class AuthorIndexEntry(NamedTuple):
    """Aggregates derived from the papers an author appears on."""

    first_pub_year: int
    last_pub_year: int
    publication_ids: list[str]
    modal_discipline: str

    @property
    def n_pubs(self) -> int:
        return len(self.publication_ids)


class Corpus(NamedTuple):
    papers: dict[str, PaperRecord]
    authors: dict[str, AuthorRecord]
    author_index: dict[str, AuthorIndexEntry]
    total_references: int = 0
    unresolved_references: int = 0

    @property
    def resolvable_references(self) -> int:
        return self.total_references - self.unresolved_references

    @property
    def papers_with_abstract(self) -> int:
        return sum(1 for p in self.papers.values() if p.abstract is not None)

    def validation_report(self) -> dict:
        """Summary counts, including the unresolved-reference fraction."""
        total = self.total_references
        n_papers = len(self.papers)
        return {
            "papers": n_papers,
            "authors": len(self.author_index),
            "author_records": len(self.authors),
            "total_references": total,
            "unresolved_references": self.unresolved_references,
            "resolvable_references": self.resolvable_references,
            "unresolved_fraction": (self.unresolved_references / total) if total else 0.0,
            "papers_with_abstract": self.papers_with_abstract,
            "abstract_coverage": (self.papers_with_abstract / n_papers) if n_papers else 0.0,
        }


def _fail(source: str, lineno: int, message: str) -> CorpusError:
    return CorpusError(f"{source} line {lineno}: {message}")


_ID_RULE = "field 'id' must be a non-empty string"
_WRITABLE_RULE = "must not contain a tab or line break or a lone surrogate"
_SURROGATE = re.compile("[\ud800-\udfff]")


def _unwritable(value: str) -> bool:
    """Ids are written into tab-separated, line-based UTF-8 exports, so they
    must hold no tab, no line break and no lone surrogate (which JSON can
    spell as ``\\ud800`` but UTF-8 cannot encode)."""
    return ("\t" in value or "\r" in value or "\n" in value
            or not value.isascii() and _SURROGATE.search(value) is not None)


def _constant(value, constants: tuple):
    """The member of ``constants`` equal to ``value``, else ``value``. It
    compares and never hashes, so a JSON list is kept for the value check
    to reject with its line."""
    return constants[constants.index(value)] if value in constants else value


def _parse_paper(obj, source: str, lineno: int, ids: dict) -> PaperRecord:
    """The record of one papers-file object; ``ids`` maps each id string
    to the one object that stands for it in this load."""
    if not isinstance(obj, dict):
        raise _fail(source, lineno, "record is not an object")

    pid = obj.get("id")
    if not isinstance(pid, str):
        raise _fail(source, lineno, _ID_RULE)

    year = obj.get("year")
    if not isinstance(year, int) or isinstance(year, bool):
        raise _fail(source, lineno, f"field 'year' must be an integer (paper {pid})")

    authors = obj.get("authors")
    if not isinstance(authors, list):
        raise _fail(source, lineno, f"field 'authors' must be a non-empty list (paper {pid})")
    if not all(map(isinstance, authors, repeat(str))):
        raise _fail(source, lineno, f"field 'authors' entries must be non-empty strings (paper {pid})")

    references = obj.get("references")
    if (not isinstance(references, list)
            or not all(map(isinstance, references, repeat(str))) or not all(references)):
        raise _fail(source, lineno, f"field 'references' must be a list of id strings (paper {pid})")

    abstract = obj.get("abstract")
    if abstract is not None and not isinstance(abstract, str):
        raise _fail(source, lineno, f"field 'abstract' must be a string when present (paper {pid})")
    title = obj.get("title")
    if title is not None and not isinstance(title, str):
        raise _fail(source, lineno, f"field 'title' must be a string when present (paper {pid})")

    # positional: half the time of a keyword call, on every paper
    return PaperRecord(ids.setdefault(pid, pid), year,
                       _constant(obj.get("discipline"), DISCIPLINES),
                       tuple(map(ids.setdefault, authors, authors)),
                       tuple(map(ids.setdefault, references, references)), abstract, title)


def _parse_author(obj, source: str, lineno: int, ids: dict) -> AuthorRecord:
    """The record of one authors-file object, its id taken from ``ids``."""
    if not isinstance(obj, dict):
        raise _fail(source, lineno, "record is not an object")
    aid = obj.get("id")
    if not isinstance(aid, str):
        raise _fail(source, lineno, _ID_RULE)
    gender = obj.get("gender")
    if gender is None:
        gender = "unknown"
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise _fail(source, lineno, f"field 'name' must be a string when present (author {aid})")
    return AuthorRecord(author_id=ids.setdefault(aid, aid),
                        gender=_constant(gender, GENDERS), display_name=name)


def iter_text_lines(path: Path, source: str):
    """(line number, text) for every line of a UTF-8 file; a line that is
    not valid UTF-8 raises :class:`CorpusError` ``<source> line N: ...``."""
    # Lines are split as bytes on \n, \r and \r\n (the universal newlines
    # of text mode; no UTF-8 character contains those bytes) and each one is
    # decoded on its own, so a bad byte names its line.
    lineno = 0
    with open(path, "rb") as fh:
        for block in fh:
            for raw in block.splitlines():
                lineno += 1
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise _fail(source, lineno,
                                f"invalid UTF-8 at byte {exc.start + 1} of the line") from exc
                yield lineno, line


def _iter_json_lines(path: Path, source: str):
    for lineno, line in iter_text_lines(path, source):
        # JSON's space and tab only (line ends are split off): a line of
        # form feeds or no-break spaces is no blank line but invalid JSON
        stripped = line.strip(" \t")
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise _fail(source, lineno, f"invalid JSON: {exc.msg}") from exc
        except ValueError as exc:  # an integer past the int-string digit limit
            raise _fail(source, lineno, f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise _fail(source, lineno, "JSON nested too deeply") from exc
        yield lineno, obj


def _paper_fault(p: PaperRecord) -> Optional[str]:
    """The first value check that a paper fails, or None: year range,
    discipline, a non-empty list of non-empty, writable and distinct
    authors, distinct references that do not name the paper itself."""
    pid = p.paper_id
    authors = p.author_ids
    if not YEAR_MIN <= p.year <= YEAR_MAX:
        return f"field 'year' out of range [{YEAR_MIN}, {YEAR_MAX}] (paper {pid})"
    if p.discipline not in DISCIPLINES:
        return f"field 'discipline' must be one of {DISCIPLINES} (paper {pid})"
    if not authors:
        return f"field 'authors' must be a non-empty list (paper {pid})"
    if not all(authors):
        return f"field 'authors' entries must be non-empty strings (paper {pid})"
    if _unwritable("".join(authors)):
        return f"field 'authors' entries {_WRITABLE_RULE} (paper {pid})"
    if len(set(authors)) != len(authors):
        return f"field 'authors' contains duplicates (paper {pid})"
    if len(set(p.reference_ids)) != len(p.reference_ids):
        return f"field 'references' contains duplicates (paper {pid})"
    if pid in p.reference_ids:
        return f"field 'references' contains the paper's own id (paper {pid})"
    return None


def _add_record(records: dict, record, key: str,
                source: Optional[str] = None, lineno: int = 0) -> None:
    """Store ``record`` in ``records`` under its ``key`` id after the value
    checks that both loaders share: a new, non-empty, writable id, then
    :func:`_paper_fault` or a known gender. A failed check is a
    :class:`CorpusError`, naming ``<source> line <lineno>`` when given."""
    rid = getattr(record, key)
    if not rid:
        message = _ID_RULE
    elif _unwritable(rid):
        message = f"field 'id' {_WRITABLE_RULE} ({rid!r})"
    elif isinstance(record, PaperRecord):
        message = _paper_fault(record)
    elif record.gender not in GENDERS:
        message = f"field 'gender' must be one of {GENDERS} (author {rid})"
    else:
        message = None
    if message is None and rid in records:
        message = f"duplicate {key} '{rid}'"
    if message is not None:
        raise _fail(source, lineno, message) if source else CorpusError(message)
    records[rid] = record


def _read_records(path: Path, source: str, parse, key: str, ids: dict) -> dict:
    """Records of one line-delimited JSON file by id, parsed with the id
    memo ``ids`` and checked by :func:`_add_record`; a missing file is a
    :class:`CorpusError`."""
    if not path.exists():
        raise CorpusError(f"{source} file not found: {path}")
    records: dict = {}
    for lineno, obj in _iter_json_lines(path, source):
        _add_record(records, parse(obj, source, lineno, ids), key, source, lineno)
    return records


def load_corpus(
    papers_path: Union[str, Path],
    authors_path: Optional[Union[str, Path]] = None,
) -> Corpus:
    """Load and validate a corpus from line-delimited JSON files.

    Raises :class:`CorpusError` naming line number and field for any
    malformed record, duplicate paper id or empty author list. Author
    records missing from the authors file are synthesized with gender
    ``unknown``.

    Equal ids share one string object across both files, so a resolvable
    reference is the object that keys its paper in :attr:`Corpus.papers`;
    the memo that makes them so is local to this call. Disciplines and
    genders are the :data:`DISCIPLINES` and :data:`GENDERS` objects.
    """
    ids: dict[str, str] = {}
    papers = _read_records(Path(papers_path), "papers", _parse_paper, "paper_id", ids)
    authors = {}
    if authors_path is not None:
        authors = _read_records(Path(authors_path), "authors", _parse_author, "author_id", ids)
    return _assemble(papers, authors)


def _assemble(papers: dict[str, PaperRecord], authors: dict[str, AuthorRecord]) -> Corpus:
    """The corpus over checked records: its author index, an ``unknown``
    gender record for every indexed author without one, and the reference
    counts."""
    index = build_author_index(papers)
    for aid in index:
        if aid not in authors:
            authors[aid] = AuthorRecord(author_id=aid)

    total = 0
    unresolved = 0
    for p in papers.values():
        total += len(p.reference_ids)
        for rid in p.reference_ids:
            if rid not in papers:
                unresolved += 1

    return Corpus(papers, authors, index, total, unresolved)


def build_author_index(papers: Mapping[str, PaperRecord]) -> dict[str, AuthorIndexEntry]:
    """Derive first/last publication year, publication list and modal
    discipline for every author appearing in the papers.

    Modal-discipline ties break by the order of :data:`DISCIPLINES`.
    """
    pubs: dict[str, list[str]] = defaultdict(list)
    for pid, p in papers.items():
        for aid in p.author_ids:
            pubs[aid].append(pid)

    index: dict[str, AuthorIndexEntry] = {}
    for aid, pids in pubs.items():
        records = list(map(papers.__getitem__, pids))
        years = [p.year for p in records]
        counts = Counter([p.discipline for p in records])
        best = max(counts.values())
        modal = next(d for d in DISCIPLINES if counts.get(d) == best)
        index[aid] = AuthorIndexEntry(
            first_pub_year=min(years),
            last_pub_year=max(years),
            publication_ids=pids,
            modal_discipline=modal,
        )
    return index


def eligible_authors(corpus: Corpus, min_pubs: int = DEFAULT_MIN_PUBS) -> set[str]:
    """Authors with strictly more than ``min_pubs`` loaded papers."""
    if min_pubs < 0:
        raise ValueError("min_pubs must be >= 0")
    return {aid for aid, entry in corpus.author_index.items() if entry.n_pubs > min_pubs}


@contextmanager
def atomic_write(path: Union[str, Path]):
    """Text file handle (UTF-8, ``\\n`` line ends) whose content replaces
    ``path`` only when the block completes.

    It writes a temporary file in the same directory and moves it over
    ``path`` with :func:`os.replace`; if the block raises, the temporary file
    is removed and ``path`` keeps its old bytes.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def paper_to_obj(p: PaperRecord) -> dict:
    obj = {
        "id": p.paper_id,
        "year": p.year,
        "discipline": p.discipline,
        "authors": list(p.author_ids),
        "references": list(p.reference_ids),
    }
    if p.abstract is not None:
        obj["abstract"] = p.abstract
    if p.title is not None:
        obj["title"] = p.title
    return obj


def author_to_obj(a: AuthorRecord) -> dict:
    obj: dict = {"id": a.author_id, "gender": a.gender}
    if a.display_name is not None:
        obj["name"] = a.display_name
    return obj


def save_corpus(
    corpus: Corpus,
    papers_path: Union[str, Path],
    authors_path: Optional[Union[str, Path]] = None,
) -> None:
    """Write the corpus back in the load format (one JSON object per line)."""
    with atomic_write(papers_path) as fh:
        for p in corpus.papers.values():
            fh.write(json.dumps(paper_to_obj(p), sort_keys=True) + "\n")
    if authors_path is not None:
        with atomic_write(authors_path) as fh:
            for a in corpus.authors.values():
                fh.write(json.dumps(author_to_obj(a), sort_keys=True) + "\n")


def corpus_from_records(
    papers: Iterable[PaperRecord],
    authors: Iterable[AuthorRecord] = (),
) -> Corpus:
    """Assemble a validated Corpus from in-memory records (test/synth path).

    Every record passes the value checks of :func:`load_corpus`; a record
    that fails one is a :class:`CorpusError`."""
    paper_map: dict[str, PaperRecord] = {}
    for p in papers:
        _add_record(paper_map, p, "paper_id")
    author_map: dict[str, AuthorRecord] = {}
    for a in authors:
        _add_record(author_map, a, "author_id")
    return _assemble(paper_map, author_map)
