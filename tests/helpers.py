"""Shared builders for hand-assembled STIX bundles, reports, predictions
and feature rows used across the test modules."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from ttpmine.attack_kb import UsageMatrix
from ttpmine.corpus import make_report, pair_universe
from ttpmine.ctfidf import TOP_K_SCORES, ReportPrediction
from ttpmine.embeddings import WordVectors
from ttpmine.features.builder import FeatureRows, PairKey, build_report_features, f4_table
from ttpmine.features.layout import FeatureLayout

E2E_DIR = Path(__file__).parent / "data" / "e2e"
REPO_ROOT = Path(__file__).parent.parent

_rel_ids = itertools.count()

# A usage matrix without actors or techniques: every pair's f4 slots are zero.
EMPTY_USAGE = UsageMatrix(actors=(), techniques=(), cells=np.zeros((0, 0), dtype=np.int8))


def attack_pattern(ext_id: str, name: str, *, revoked: bool = False,
                   deprecated: bool = False) -> dict:
    obj = {
        "type": "attack-pattern",
        "id": "attack-pattern--" + ext_id.lower().replace(".", "-"),
        "name": name,
        "external_references": [
            {"source_name": "mitre-attack", "external_id": ext_id}
        ],
    }
    if revoked:
        obj["revoked"] = True
    if deprecated:
        obj["x_mitre_deprecated"] = True
    return obj


def actor(ext_id: str, kind: str = "intrusion-set", name: str = "some actor") -> dict:
    return {
        "type": kind,
        "id": f"{kind}--{ext_id.lower()}",
        "name": name,
        "external_references": [
            {"source_name": "mitre-attack", "external_id": ext_id}
        ],
    }


def uses(source: dict, target: dict, description: str = "",
         *, revoked: bool = False) -> dict:
    obj = {
        "type": "relationship",
        "id": f"relationship--{next(_rel_ids):08d}",
        "relationship_type": "uses",
        "source_ref": source["id"],
        "target_ref": target["id"],
        "description": description,
    }
    if revoked:
        obj["revoked"] = True
    return obj


def bundle(*objects: dict, collection_version: str | None = None) -> bytes:
    objs = list(objects)
    if collection_version is not None:
        objs.insert(
            0,
            {
                "type": "x-mitre-collection",
                "id": "x-mitre-collection--fixture",
                "x_mitre_version": collection_version,
            },
        )
    payload = {"type": "bundle", "id": "bundle--fixture", "objects": objs}
    return json.dumps(payload).encode("utf-8")


def usage_bundle(seed: int, actors: int = 150, techniques: int = 60) -> bytes:
    """A seeded bundle with many actors of every kind and about 5% of
    actor-technique cells used, plus what the usage matrix must skip or
    fold: sub-technique targets, revoked or deprecated techniques,
    revoked relationships and actors, targets missing from the bundle,
    repeated uses, an actor with no external id, and non-actor sources."""
    rng = np.random.default_rng(seed)
    kinds = ("intrusion-set", "malware", "tool", "campaign")
    techs = [attack_pattern(f"T{3000 + k}", f"Technique {k}") for k in range(techniques)]
    subs = [attack_pattern(f"T{3000 + k}.00{k % 3 + 1}", f"Sub {k}")
            for k in range(0, techniques, 4)]
    dropped = [
        attack_pattern(f"T{5000 + k}", f"Gone {k}", revoked=k % 2 == 0,
                       deprecated=k % 2 == 1)
        for k in range(6)
    ]
    ghosts = [{"id": f"attack-pattern--ghost-{k}"} for k in range(4)]
    people = [actor(f"A{1000 + k}", kind=kinds[k % 4]) for k in range(actors)]
    people[0]["external_references"] = []
    people[1]["revoked"] = True
    targets = techs + subs + dropped + ghosts
    p = np.full(len(targets), 0.05)
    p[len(techs):] = 0.02
    rels = [
        uses(a, t, revoked=bool(rng.random() < 0.05))
        for a in people
        for t, hit in zip(targets, rng.random(len(targets)) < p)
        if hit
    ]
    rels += [
        uses(people[k], techs[k % techniques]) for k in range(0, actors, 7) for _ in "ab"
    ]
    rels += [uses(techs[0], techs[1]), uses(people[2], people[3])]
    order = rng.permutation(len(rels))
    return bundle(*techs, *subs, *dropped, *people, *(rels[k] for k in order))


def make_rows(values, report_ids="r1", tx="TA", ty="TB",
              layout: FeatureLayout = FeatureLayout(bins=1)) -> FeatureRows:
    """A `FeatureRows` of `layout` from a (rows, slots) array. Rows with
    fewer slots than the layout are padded with zeros on the right; a
    column constant over every row never splits, so a model trains on
    the padded rows as on the narrow ones. `report_ids`, `tx` and `ty`
    each take one value for every row or a sequence with one per row."""
    narrow = np.atleast_2d(np.asarray(values, dtype=np.float64))
    n = narrow.shape[0]
    values = np.zeros((n, layout.total))
    values[:, : narrow.shape[1]] = narrow

    def per_row(v):
        return [v] * n if isinstance(v, str) else list(v)

    return FeatureRows(
        keys=[PairKey(*key) for key in zip(per_row(report_ids), per_row(tx), per_row(ty))],
        values=values,
        layout=layout,
    )


def report_rows(report, prediction, um=EMPTY_USAGE, wv=None, bins: int = 10) -> FeatureRows:
    """`build_report_features` on one report, with the layout of `bins`
    and the f4 table of the report's own pairs."""
    return build_report_features(
        report,
        prediction,
        wv=wv,
        layout=FeatureLayout(bins=bins),
        f4=f4_table(um, pair_universe(prediction.techniques), bins),
    )


def pair_row(report, tx_hits, ty_hits, wv=None) -> np.ndarray:
    """The (TX, TY) row that `build_report_features` builds for `report`
    when TX is detected in the sentences `tx_hits` and TY in `ty_hits`
    (either may be empty, and may repeat or be unsorted); read its slots
    by name through `FeatureLayout.index`."""
    prediction = ReportPrediction(
        report_id=report.report_id,
        threshold=0.95,
        techniques=frozenset({"TX", "TY"}),
        top_scores={tid: (1.0,) + (0.0,) * (TOP_K_SCORES - 1) for tid in ("TX", "TY")},
        hit_sentences={"TX": tuple(tx_hits), "TY": tuple(ty_hits)},
    )
    rows = report_rows(report, prediction, wv=wv)
    assert rows.keys[0] == (report.report_id, "TX", "TY")
    return rows.values[0]


# Word pool for random reports: nouns, verbs, markers, connectives and
# referring words so every feature family sees live inputs.
_NOUNS = [
    "loader", "beacon", "payload", "macro", "registry", "service",
    "archive", "credential", "proxy", "implant", "script", "binary",
]
_VERBS = ["executed", "dropped", "copied", "queried", "spawned", "staged"]
_EXTRAS = [
    "then", "later", "during", "while", "simultaneously", "concurrently",
    "if", "otherwise", "it", "they", "this", "that", "meanwhile", "quietly",
]


def random_word_vectors(rng: np.random.Generator, dim: int = 6) -> WordVectors:
    """Seeded vectors for the random reports' nouns and verbs; their
    markers and connectives are out of vocabulary, so some sentences
    pool to the zero vector."""
    return WordVectors(
        dim=dim, table={word: rng.normal(size=dim) for word in _NOUNS + _VERBS}
    )


def random_report(rng: np.random.Generator, report_id: str,
                  n_sentences: tuple[int, int] = (3, 9)):
    """A report of short random sentences, one sentence per line."""
    count = int(rng.integers(n_sentences[0], n_sentences[1] + 1))
    lines = []
    for _ in range(count):
        length = int(rng.integers(3, 8))
        words = [
            str(rng.choice(_NOUNS + _VERBS + _EXTRAS)) for _ in range(length)
        ]
        lines.append(" ".join(words) + ".")
    return make_report(report_id, "\n".join(lines))


def random_prediction(rng: np.random.Generator, report, *tids: str,
                      threshold: float = 0.95,
                      n_hits: tuple[int, int] = (1, 3)) -> ReportPrediction:
    """Random but well-formed technique detections for the given ids;
    each is detected with probability 0.85, in `n_hits` (lowest,
    highest) sentences, at most the report's."""
    n = len(report.sentences)
    techniques = []
    top_scores = {}
    hit_sentences = {}
    for tid in tids:
        scores = np.zeros(TOP_K_SCORES, dtype=np.float64)
        if rng.random() < 0.85 and n > 0:
            k = int(rng.integers(min(n_hits[0], n), min(n_hits[1], n) + 1))
            hits = sorted(
                int(i) for i in rng.choice(n, size=k, replace=False)
            )
            raw = np.sort(rng.random(min(TOP_K_SCORES, n)))[::-1]
            raw[0] = 1.0
            scores[: raw.size] = raw
            techniques.append(tid)
            hit_sentences[tid] = tuple(hits)
        top_scores[tid] = tuple(float(v) for v in scores)
    return ReportPrediction(
        report_id=report.report_id,
        threshold=threshold,
        techniques=frozenset(techniques),
        top_scores=top_scores,
        hit_sentences=hit_sentences,
    )


def e2e_config_dict(out_dir: str | Path) -> dict:
    """The bundled pipeline config with input paths made absolute."""
    data = json.loads((E2E_DIR / "config.json").read_text(encoding="utf-8"))
    for key in ("stix", "reports", "annotations"):
        data[key] = str(REPO_ROOT / data[key])
    data["out_dir"] = str(out_dir)
    return data


def tree_features(node: dict) -> set[int]:
    """Every feature index referenced by a serialized tree."""
    if "value" in node:
        return set()
    return (
        {node["feature"]}
        | tree_features(node["left"])
        | tree_features(node["right"])
    )


def _pseudo_words(rng: np.random.Generator, n: int, taken: set[str]) -> list[str]:
    """``n`` fresh pseudo-words of three consonant-vowel syllables; none is
    an English stopword or a temporal marker."""
    out: list[str] = []
    while len(out) < n:
        word = "".join(
            str(rng.choice(list("bdfgklmnprstvz"))) + str(rng.choice(list("aeiou")))
            for _ in range(3)
        )
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


# A planted relation's label and the word that opens its second sentence.
_PLANTED = (("BEFORE", "Then"), ("SIMULTANEOUS_OVERLAP", "During"),
            ("CONCURRENT", "Simultaneously"))


def write_many_class_corpus(root: Path, seed: int, techniques: int = 40) -> dict:
    """Write a seeded corpus with ``techniques`` classifier classes under
    ``root`` and return a pipeline config dict for it.

    Every technique has a private vocabulary and 20 procedure examples
    (5 from each of 4 of 8 actors), so the classifier keeps all of them.
    Each of 20 reports mentions 6 techniques, one sentence each, among
    20 filler sentences. Three relations over disjoint technique pairs,
    one of each label, are each planted (the second sentence led by the
    label's marker) and annotated in two consecutive reports.
    """
    reports, per_report, support, filler = 20, 6, 2, 20
    rng = np.random.default_rng(seed)
    taken: set[str] = set()
    tids = [f"T{7000 + k}" for k in range(techniques)]
    pools = {tid: _pseudo_words(rng, 12, taken) for tid in tids}
    filler_words = _pseudo_words(rng, 120, taken)

    def sentence(pool, lead="The"):
        words = rng.choice(pool, size=int(rng.integers(4, 7)), replace=False)
        return f"{lead} {' '.join(str(w) for w in words)}."

    patterns_objs = {tid: attack_pattern(tid, f"Technique {tid}") for tid in tids}
    actors = [actor(f"G{8000 + a}") for a in range(8)]
    rels = []
    for tid in tids:
        for a in sorted(rng.choice(len(actors), size=4, replace=False)):
            rels.extend(
                uses(actors[a], patterns_objs[tid], sentence(pools[tid]))
                for _ in range(5)
            )
    root = Path(root)
    (root / "reports").mkdir(parents=True, exist_ok=True)
    (root / "stix.json").write_bytes(
        bundle(*patterns_objs.values(), *actors, *rels)
    )

    order = [str(t) for t in rng.permutation(tids)]
    planted = [
        (order[2 * p], order[2 * p + 1], label, lead)
        for p, (label, lead) in enumerate(_PLANTED)
    ]
    annotations = []
    for r in range(reports):
        rid = f"r{r:02d}"
        hosted = [t for p, t in enumerate(planted) if p * support <= r < (p + 1) * support]
        mentioned = {tid for tx, ty, _, _ in hosted for tid in (tx, ty)}
        others = [t for t in order if t not in mentioned]
        extra = rng.choice(others, size=per_report - len(mentioned), replace=False)
        blocks = [
            [sentence(pools[tx]), sentence(pools[ty], lead)] for tx, ty, _, lead in hosted
        ]
        blocks += [[sentence(pools[str(t)])] for t in extra]
        blocks += [[sentence(filler_words)] for _ in range(filler)]
        lines = [line for k in rng.permutation(len(blocks)) for line in blocks[k]]
        (root / "reports" / f"{rid}.txt").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
        annotations += [
            {"report_id": rid, "tx": tx, "ty": ty, "labels": [label]}
            for tx, ty, label, _ in hosted
        ]
    (root / "annotations.jsonl").write_text(
        "".join(json.dumps(a, sort_keys=True) + "\n" for a in annotations),
        encoding="utf-8",
    )
    return {
        "stix": str(root / "stix.json"),
        "reports": str(root / "reports"),
        "annotations": str(root / "annotations.jsonl"),
        "out_dir": str(root / "out"),
        "min_support": 2,
        "train": {"trees": 30, "max_depth": 3, "seed": 0,
                  "negative_downsample_ratio": 20.0},
    }
