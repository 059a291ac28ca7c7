"""Seeded synthetic corpus for the pipeline benchmark.

A scalable sibling of ``scripts/make_e2e_fixture.py``. It writes an ATT&CK
style STIX bundle, plain-text reports, relation annotations and a truth
file that the benchmark scores the program's outputs against.

The world it builds:

* ``techniques`` classifier techniques, each with a private vocabulary of
  pseudo-words (no two techniques share a word) and ``examples`` procedure
  examples, so every one of them clears ``min_examples``;
* ``actors`` intrusion sets that use random subsets of those techniques;
* ``extra_techniques`` further techniques, ``extra_software`` malware/tool
  objects and ``extra_uses`` ``uses`` relationships between them. Each extra
  technique gets fewer than ``MIN_EXAMPLES`` examples, so the classifier
  drops it, but the knowledge-base stage still parses all of it;
* ``reports`` reports of ``sentences`` sentences. Each mentions
  ``per_report`` techniques, one sentence each, among filler sentences; a
  filler sentence carries a temporal marker with probability
  ``marker_density``;
* ``patterns`` recurring (pair, relation) tuples, each planted in
  ``support`` reports, plus ``singletons`` tuples planted in one report
  each. Every split draws from the same tuples, so a model trained on one
  split meets the same patterns in another. A planted relation puts the
  second technique's sentence right after the first one's, led by a marker
  of the relation.

The truth file lists every planted relation (symmetric labels mirrored) and
the planted patterns that recur in at least ``MIN_SUPPORT`` reports.
Everything derives from the seed: the same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import random
import uuid
from dataclasses import dataclass
from pathlib import Path

MIN_EXAMPLES = 20
MIN_SUPPORT = 2

BEFORE = "BEFORE"
OVERLAP = "SIMULTANEOUS_OVERLAP"
CONCURRENT = "CONCURRENT"
RELATIONS = (BEFORE, OVERLAP, CONCURRENT)
SYMMETRIC = frozenset({OVERLAP, CONCURRENT})

# The word that opens the second sentence of a planted relation.
SIGNAL = {BEFORE: "Then", OVERLAP: "During", CONCURRENT: "Simultaneously"}

# Markers sprinkled over filler sentences as noise.
NOISE_MARKERS = ("later", "after", "previously", "while", "during", "next")

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Shape:
    techniques: int
    actors: int
    reports: int
    sentences: int
    per_report: int
    marker_density: float
    patterns: int
    support: int
    singletons: int = 0
    extra_techniques: int = 0
    extra_software: int = 0
    extra_uses: int = 0
    examples: int = 24


def _uuid(kind: str, key: str) -> str:
    return f"{kind}--{uuid.uuid5(uuid.NAMESPACE_URL, 'ttpmine-bench/' + key)}"


def _words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    """``n`` fresh three-syllable pseudo-words. None is an English word, so
    none is a stopword or a temporal marker."""
    out: list[str] = []
    while len(out) < n:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _sentence(words: list[str], lead: str = "The") -> str:
    return f"{lead} {' '.join(words)}."


def _canonical(tx: str, ty: str, relation: str) -> tuple[str, str, str]:
    if relation in SYMMETRIC and ty < tx:
        tx, ty = ty, tx
    return (tx, ty, relation)


class World:
    """Technique ids, vocabularies and the STIX bundle for one seed."""

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.rng = random.Random(f"world/{seed}")
        taken: set[str] = set()
        self.tids = [f"T{6000 + k}" for k in range(shape.techniques)]
        self.pools = {tid: _words(self.rng, 14, taken) for tid in self.tids}
        self.filler = _words(self.rng, 300, taken)
        self.kb_words = _words(self.rng, 400, taken)
        # Candidate planted tuples, one per unordered pair, relations in
        # rotation so any three consecutive tuples cover all relations.
        pairs = [(a, b) for i, a in enumerate(self.tids) for b in self.tids[i + 1 :]]
        self.rng.shuffle(pairs)
        turn = self.rng.randrange(len(RELATIONS))
        self.keys = [
            (*(pair if self.rng.random() < 0.5 else pair[::-1]), RELATIONS[(n + turn) % 3])
            for n, pair in enumerate(pairs)
        ]

    def technique_sentence(self, rng: random.Random, tid: str, lead: str = "The") -> str:
        return _sentence(rng.sample(self.pools[tid], rng.randint(4, 7)), lead)

    def filler_sentence(self, rng: random.Random, density: float) -> str:
        words = rng.sample(self.filler, rng.randint(6, 10))
        if rng.random() < density:
            words.insert(rng.randrange(len(words) + 1), rng.choice(NOISE_MARKERS))
        return _sentence(words)

    def bundle(self) -> dict:
        shape, rng = self.shape, self.rng
        objects: list[dict] = [
            {
                "type": "x-mitre-collection",
                "id": _uuid("x-mitre-collection", "collection"),
                "name": "ttpmine benchmark corpus",
                "x_mitre_version": "bench-1",
            }
        ]

        def pattern(tid: str) -> None:
            objects.append(
                {
                    "type": "attack-pattern",
                    "id": _uuid("attack-pattern", tid),
                    "name": f"Technique {tid}",
                    "external_references": [
                        {"source_name": "mitre-attack", "external_id": tid}
                    ],
                }
            )

        def actor(kind: str, ext: str) -> str:
            sid = _uuid(kind, ext)
            objects.append(
                {
                    "type": kind,
                    "id": sid,
                    "name": f"Actor {ext}",
                    "external_references": [
                        {"source_name": "mitre-attack", "external_id": ext}
                    ],
                }
            )
            return sid

        def uses(source: str, tid: str, description: str) -> None:
            objects.append(
                {
                    "type": "relationship",
                    "id": _uuid("relationship", f"rel-{len(objects)}"),
                    "relationship_type": "uses",
                    "source_ref": source,
                    "target_ref": _uuid("attack-pattern", tid),
                    "description": description,
                }
            )

        for tid in self.tids:
            pattern(tid)
        groups = [actor("intrusion-set", f"G{6000 + g}") for g in range(shape.actors)]
        for tid in self.tids:
            users = rng.sample(groups, rng.randint(1, len(groups)))
            seen: set[str] = set()
            for n in range(shape.examples):
                while True:
                    text = _sentence(rng.sample(self.pools[tid], rng.randint(5, 8)))
                    if text not in seen:
                        seen.add(text)
                        break
                uses(users[n % len(users)], tid, text)

        extra = [f"T{7000 + k}" for k in range(shape.extra_techniques)]
        for tid in extra:
            pattern(tid)
        software = [
            actor("malware" if s % 2 else "tool", f"S{6000 + s}")
            for s in range(shape.extra_software)
        ]
        sources = software + groups
        # Each extra technique takes at most MIN_EXAMPLES - 1 examples.
        room = [tid for tid in extra for _ in range(MIN_EXAMPLES - 1)]
        if shape.extra_uses > len(room):
            raise ValueError("extra_uses exceeds what the extra techniques can hold")
        for tid in rng.sample(room, shape.extra_uses):
            words = rng.sample(self.kb_words, rng.randint(6, 10))
            uses(rng.choice(sources), tid, _sentence(words))
        return {"type": "bundle", "id": _uuid("bundle", "bundle"), "objects": objects}


def plan_relations(rng: random.Random, world: "World", report_ids, shape: Shape) -> dict:
    """The planted relation of each host report: ``{report_id: (tx, ty, relation)}``.

    The first ``shape.patterns`` of the world's tuples recur, each in
    ``shape.support`` reports; the next ``shape.singletons`` appear in one
    report each. A report hosts at most one planted relation.
    """
    wanted = shape.patterns * shape.support + shape.singletons
    if wanted > len(report_ids):
        raise ValueError(f"{wanted} planted relations need as many reports")
    if shape.patterns + shape.singletons > len(world.keys):
        raise ValueError("more planted tuples than unordered technique pairs")
    instances = [
        key for key in world.keys[: shape.patterns] for _ in range(shape.support)
    ] + world.keys[shape.patterns : shape.patterns + shape.singletons]
    return dict(zip(rng.sample(list(report_ids), len(instances)), instances))


def write_reports(world: World, shape: Shape, seed: int, prefix: str, out: Path) -> dict:
    """Write ``shape.reports`` reports and return their truth."""
    rng = random.Random(f"reports/{prefix}/{seed}")
    report_ids = [f"{prefix}{n:03d}" for n in range(shape.reports)]
    plan = plan_relations(rng, world, report_ids, shape)
    out.mkdir(parents=True, exist_ok=True)
    relations = []
    support: dict[tuple[str, str, str], int] = {}
    for rid in report_ids:
        planted = [plan[rid]] if rid in plan else []
        used = {t for key in planted for t in key[:2]}
        rest = rng.sample([t for t in world.tids if t not in used], shape.per_report - len(used))
        blocks = [
            [world.technique_sentence(rng, tx), world.technique_sentence(rng, ty, SIGNAL[rel])]
            for tx, ty, rel in planted
        ] + [[world.technique_sentence(rng, tid)] for tid in rest]
        rng.shuffle(blocks)
        n_filler = shape.sentences - sum(len(b) for b in blocks)
        if n_filler < len(blocks) + 1:
            raise ValueError("too few sentences per report for its mentions")
        slots = sorted(rng.sample(range(1, n_filler), len(blocks)))
        lines, taken = [], 0
        for slot, block in zip(slots, blocks):
            lines += [world.filler_sentence(rng, shape.marker_density) for _ in range(slot - taken)]
            lines += block
            taken = slot
        lines += [world.filler_sentence(rng, shape.marker_density) for _ in range(n_filler - taken)]
        (out / f"{rid}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

        for tx, ty, rel in planted:
            relations.append({"report_id": rid, "tx": tx, "ty": ty, "labels": [rel]})
            if rel in SYMMETRIC:
                relations.append({"report_id": rid, "tx": ty, "ty": tx, "labels": [rel]})
            key = _canonical(tx, ty, rel)
            support[key] = support.get(key, 0) + 1
    relations.sort(key=lambda r: (r["report_id"], r["tx"], r["ty"]))
    patterns = sorted(list(k) for k, n in support.items() if n >= MIN_SUPPORT)
    return {"relations": relations, "patterns": patterns}


def write_annotations(path: Path, truth: dict) -> None:
    """Annotations as a user would write them: one line per planted
    relation; the loader mirrors symmetric labels itself."""
    lines = [
        json.dumps(r, sort_keys=True)
        for r in truth["relations"]
        if r["labels"][0] not in SYMMETRIC or r["tx"] < r["ty"]
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(out: Path, shape: Shape, seed: int, splits: dict[str, Shape]) -> dict:
    """Write the bundle plus one report set per split; return the truth.

    ``splits`` maps a split name (its report-id prefix and directory) to
    its report shape. ``shape`` fixes the bundle.
    """
    world = World(shape, seed)
    out.mkdir(parents=True, exist_ok=True)
    (out / "stix_bundle.json").write_text(
        json.dumps(world.bundle(), sort_keys=True) + "\n", encoding="utf-8"
    )
    truth = {}
    for name, split in splits.items():
        truth[name] = write_reports(world, split, seed, name, out / name)
        write_annotations(out / f"{name}.annotations.jsonl", truth[name])
    (out / "truth.json").write_text(
        json.dumps(truth, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return truth
