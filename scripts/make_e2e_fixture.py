"""Generate the synthetic end-to-end fixture under tests/data/e2e/.

The fixture is a tiny, fully controlled world: four techniques with
disjoint procedure-example vocabularies, three actors, five reports,
and one planted temporal pattern (T1566 BEFORE T1204 in exactly three
reports, signaled by a leading "Then"). No other (pair, relation)
tuple co-occurs in two or more reports, so mining at min_support=2 must
emit exactly the planted pattern.

Deterministic: fixed seed, fixed uuid5 identifiers. Re-running the
script reproduces the checked-in files byte for byte.
"""

from __future__ import annotations

import json
import random
import uuid
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "e2e"
SEED = 20260822

TECHNIQUES = {
    "T1566": "Phishing",
    "T1204": "User Execution",
    "T1046": "Network Service Discovery",
    "T1560": "Archive Collected Data",
}

# Disjoint per-class vocabularies. None of these words is a stopword or
# a temporal marker, and no word appears in two classes.
POOLS = {
    "T1566": [
        "spearphishing", "lures", "lure", "attachment", "attachments",
        "mailbox", "mailboxes", "recipients", "sender", "inbox",
        "delivered", "weaponized", "crafted", "messages",
    ],
    "T1204": [
        "victims", "clicked", "payload", "enabled", "macros",
        "opened", "launched", "executable", "icon", "double",
        "prompt", "document",
    ],
    "T1046": [
        "scanned", "subnet", "enumerate", "services", "hosts",
        "ports", "probing", "sweep", "nmap", "exposed",
        "internal", "listening",
    ],
    "T1560": [
        "archived", "archives", "compressed", "rar", "staged",
        "staging", "password", "protected", "volumes", "container",
        "bundled", "collection", "utility", "output",
    ],
}

# Which actor uses which technique, and how many `uses` relationships
# (= procedure examples) each contributes. Every technique gets 24.
ACTORS = {
    "G9001": ("Fixture Group A", {"T1566": 12, "T1204": 12}),
    "G9002": ("Fixture Group B", {"T1566": 12, "T1204": 12, "T1046": 12}),
    "G9003": ("Fixture Group C", {"T1046": 12, "T1560": 24}),
}

REPORTS = {
    "r01": (
        "Intrusion summary for case r01.\n"
        "The operators delivered spearphishing lures with a weaponized "
        "attachment to several recipients.\n"
        "Then the victims clicked the payload and enabled the macros.\n"
        "Remediation guidance was circulated to stakeholders.\n"
    ),
    "r02": (
        "Incident digest for case r02.\n"
        "A crafted lure reached the finance inbox with a weaponized "
        "attachment.\n"
        "Then the executable launched and the macros ran on the "
        "workstation.\n"
        "Containment notes were shared with the response group.\n"
    ),
    "r03": (
        "Case r03 covers a single intrusion.\n"
        "Spearphishing messages carried a weaponized attachment aimed at "
        "the sender directory.\n"
        "Then the victims opened the payload and enabled embedded macros.\n"
        "Review interviews are pending.\n"
    ),
    "r04": (
        "Case r04 describes infrastructure reconnaissance and data "
        "handling.\n"
        "The actor scanned an internal subnet to enumerate listening "
        "services across exposed hosts.\n"
        "Volumes were compressed and staged in a password protected rar "
        "container.\n"
        "No delivery activity was recorded.\n"
    ),
    "r05": (
        "Case r05 is a storage handling note.\n"
        "The utility bundled the collection output into compressed "
        "password protected volumes.\n"
        "A rar container held the staged archives for transfer.\n"
        "Nothing else was observed.\n"
    ),
}

ANNOTATIONS = [
    {"report_id": "r01", "tx": "T1566", "ty": "T1204", "labels": ["BEFORE"]},
    {"report_id": "r02", "tx": "T1566", "ty": "T1204", "labels": ["BEFORE"]},
    {"report_id": "r03", "tx": "T1566", "ty": "T1204", "labels": ["BEFORE"]},
]

CONFIG = {
    "stix": "tests/data/e2e/stix_bundle.json",
    "reports": "tests/data/e2e/reports",
    "annotations": "tests/data/e2e/annotations.jsonl",
    "out_dir": "out/e2e",
    "threshold": 0.95,
    "min_examples": 20,
    "min_support": 2,
    "train": {
        "trees": 60,
        "max_depth": 3,
        "learning_rate": 0.1,
        "negative_downsample_ratio": 20.0,
        "seed": 0,
        "decision_threshold": 0.5,
    },
}


def _uuid(kind: str, key: str) -> str:
    return f"{kind}--{uuid.uuid5(uuid.NAMESPACE_URL, 'ttpmine-e2e/' + key)}"


def make_examples(rng: random.Random, tid: str, count: int) -> list[str]:
    """Unique synthetic sentences built purely from the class pool plus
    stopword glue, so each class's classifier vocabulary stays disjoint."""
    pool = POOLS[tid]
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        k = rng.randint(5, 8)
        words = rng.sample(pool, k)
        sentence = "The " + " ".join(words) + " was seen in this activity."
        if sentence in seen:
            continue
        seen.add(sentence)
        out.append(sentence)
    return out


def build_bundle() -> dict:
    rng = random.Random(SEED)
    objects: list[dict] = [
        {
            "type": "x-mitre-collection",
            "id": _uuid("x-mitre-collection", "collection"),
            "name": "ttpmine e2e fixture",
            "x_mitre_version": "fixture-1",
        }
    ]
    for tid, name in TECHNIQUES.items():
        objects.append(
            {
                "type": "attack-pattern",
                "id": _uuid("attack-pattern", tid),
                "name": name,
                "external_references": [
                    {"source_name": "mitre-attack", "external_id": tid}
                ],
            }
        )
    for gid, (name, _) in ACTORS.items():
        objects.append(
            {
                "type": "intrusion-set",
                "id": _uuid("intrusion-set", gid),
                "name": name,
                "external_references": [
                    {"source_name": "mitre-attack", "external_id": gid}
                ],
            }
        )
    # Pre-generate each technique's 24 examples, then hand slices to the
    # actors so counts line up exactly.
    examples = {tid: make_examples(rng, tid, 24) for tid in TECHNIQUES}
    cursor = {tid: 0 for tid in TECHNIQUES}
    rel_n = 0
    for gid, (_, uses) in ACTORS.items():
        for tid, n in uses.items():
            for _ in range(n):
                description = examples[tid][cursor[tid]]
                cursor[tid] += 1
                rel_n += 1
                objects.append(
                    {
                        "type": "relationship",
                        "id": _uuid("relationship", f"rel-{rel_n:03d}"),
                        "relationship_type": "uses",
                        "source_ref": _uuid("intrusion-set", gid),
                        "target_ref": _uuid("attack-pattern", tid),
                        "description": description,
                    }
                )
    assert all(cursor[tid] == 24 for tid in TECHNIQUES), cursor
    return {
        "type": "bundle",
        "id": _uuid("bundle", "bundle"),
        "objects": objects,
    }


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "reports").mkdir(exist_ok=True)

    bundle = build_bundle()
    (OUT / "stix_bundle.json").write_text(
        json.dumps(bundle, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for rid, text in REPORTS.items():
        (OUT / "reports" / f"{rid}.txt").write_text(text, encoding="utf-8")
    with open(OUT / "annotations.jsonl", "w", encoding="utf-8") as fh:
        for row in ANNOTATIONS:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    (OUT / "config.json").write_text(
        json.dumps(CONFIG, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"fixture written to {OUT}")


if __name__ == "__main__":
    main()
