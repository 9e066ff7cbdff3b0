"""Deterministic XMark-schema document generation.

Documents are built directly into the pre/size/level store (no text
round-trip), with a seeded PRNG so every (scale, seed) pair produces
byte-identical data — benchmarks are reproducible run to run.

Structure (the subset of the XMark DTD the paper's query touches,
plus realistic filler):

* people document::

    site/people/person[@id]
        name, emailaddress, phone, age, creditcard,
        address(street, city, country, zipcode),
        profile[@income](interest[@category]*, education?, business),
        watches(watch[@open_auction]*)

* auctions document::

    site/open_auctions/open_auction[@id]
        initial, reserve, bidder(date, time, personref[@person],
        increase)*, current, privacy, itemref[@item],
        seller[@person], annotation(author[@person],
        description(text), happiness), quantity, type,
        interval(start, end)

``seller/@person`` references person ids so the paper's semijoin
benchmark query has real matches; ages are uniform in [18, 70] so the
``age < 40`` filter selects ~42% of persons.
"""

from __future__ import annotations

import random
from sys import intern
from typing import NamedTuple

from repro.xmldb.document import Document, DocumentBuilder

#: Region element tags, interned up front: generated documents reuse
#: one string object per tag, so tag-index keys and name tests compare
#: by identity (DocumentBuilder interns every name it is handed too).
_REGIONS = tuple(intern(name) for name in (
    "africa", "asia", "australia", "europe", "namerica", "samerica"))

_FIRST_NAMES = [
    "Ann", "Bart", "Carol", "Dirk", "Els", "Frank", "Greet", "Hugo",
    "Ines", "Joost", "Karen", "Lars", "Mara", "Nils", "Olga", "Piet",
    "Quinn", "Rosa", "Sven", "Tess", "Umar", "Vera", "Wout", "Xena",
    "Yves", "Zoe",
]
_LAST_NAMES = [
    "Jansen", "deVries", "Bakker", "Visser", "Smit", "Meyer", "Mulder",
    "Bos", "Peters", "Hendriks", "Dekker", "Brouwer", "Dijkstra",
    "Kuipers", "Veenstra", "Hoekstra",
]
_CITIES = [
    "Amsterdam", "Rotterdam", "Utrecht", "Eindhoven", "Groningen",
    "Tilburg", "Almere", "Breda", "Nijmegen", "Enschede",
]
_COUNTRIES = ["Netherlands", "Belgium", "Germany", "France", "Denmark"]
_INTERESTS = [
    "category1", "category7", "category12", "category23", "category31",
    "category44", "category56", "category68", "category77", "category85",
]
_WORDS = (
    "auction item vintage rare collectible mint condition original "
    "boxed signed limited edition classic antique restored pristine "
    "shipping included reserve bidding increment listing gallery "
    "photograph certificate authenticity provenance estate curated"
).split()

#: Persons per unit of scale (scale 1.0 ~ a few MB of XML, the same
#: linear-sizing contract as XMark's scale factor at smaller constants).
PERSONS_PER_SCALE = 2500
AUCTIONS_PER_SCALE = 3000


class XMarkConfig(NamedTuple):
    """Knobs for one generated pair of documents."""

    scale: float = 0.01
    seed: int = 20090329  # the conference date, for determinism

    @property
    def person_count(self) -> int:
        return max(2, int(PERSONS_PER_SCALE * self.scale))

    @property
    def auction_count(self) -> int:
        return max(2, int(AUCTIONS_PER_SCALE * self.scale))


def _sentence(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(words))


def generate_people(config: XMarkConfig, uri: str = "people.xml") -> Document:
    """Generate the people half: site/(regions, categories, people).

    Like the paper's ``xmk_nn_MB.xml``, the document carries more than
    persons — regions with items and a category list — so pushing the
    ``/site/people/person`` path to the data peer (pass-by-value's only
    legal move on the benchmark query) skips real content.
    """
    rng = random.Random(config.seed)
    builder = DocumentBuilder(uri)
    builder.start_document()
    builder.start_element("site")
    _regions(builder, rng, config)
    _categories(builder, rng, config)
    builder.start_element("people")
    for index in range(config.person_count):
        _person(builder, rng, index, config.auction_count)
    builder.end_element()
    builder.end_element()
    builder.end_document()
    return builder.finish()


def _regions(builder: DocumentBuilder, rng: random.Random,
             config: XMarkConfig) -> None:
    item_count = config.person_count  # items scale with the document
    per_region = max(1, item_count // 6)
    builder.start_element("regions")
    index = 0
    for region in _REGIONS:
        builder.start_element(region)
        for _ in range(per_region):
            builder.start_element("item")
            builder.attribute("id", f"item{index}")
            _leaf(builder, "location", rng.choice(_COUNTRIES))
            _leaf(builder, "quantity", str(rng.randint(1, 9)))
            _leaf(builder, "name", _sentence(rng, 3))
            builder.start_element("payment")
            builder.text(rng.choice(["Creditcard", "Cash",
                                     "Personal Check"]))
            builder.end_element()
            builder.start_element("description")
            _leaf(builder, "text", _sentence(rng, rng.randint(15, 45)))
            builder.end_element()
            _leaf(builder, "shipping", rng.choice(
                ["Will ship internationally", "Buyer pays shipping"]))
            builder.end_element()
            index += 1
        builder.end_element()
    builder.end_element()


def _categories(builder: DocumentBuilder, rng: random.Random,
                config: XMarkConfig) -> None:
    builder.start_element("categories")
    for index in range(max(2, config.person_count // 25)):
        builder.start_element("category")
        builder.attribute("id", f"category{index}")
        _leaf(builder, "name", _sentence(rng, 2))
        builder.start_element("description")
        _leaf(builder, "text", _sentence(rng, rng.randint(8, 20)))
        builder.end_element()
        builder.end_element()
    builder.end_element()


def _person(builder: DocumentBuilder, rng: random.Random, index: int,
            auction_count: int) -> None:
    first = rng.choice(_FIRST_NAMES)
    last = rng.choice(_LAST_NAMES)
    builder.start_element("person")
    builder.attribute("id", f"person{index}")
    _leaf(builder, "name", f"{first} {last}")
    _leaf(builder, "emailaddress",
          f"mailto:{first.lower()}.{last.lower()}{index}@example.org")
    _leaf(builder, "phone", f"+31 {rng.randint(10, 99)} "
                            f"{rng.randint(1000000, 9999999)}")
    _leaf(builder, "age", str(rng.randint(18, 70)))
    _leaf(builder, "creditcard",
          " ".join(str(rng.randint(1000, 9999)) for _ in range(4)))
    builder.start_element("address")
    _leaf(builder, "street", f"{rng.randint(1, 120)} "
                             f"{rng.choice(_LAST_NAMES)}straat")
    _leaf(builder, "city", rng.choice(_CITIES))
    _leaf(builder, "country", rng.choice(_COUNTRIES))
    _leaf(builder, "zipcode", str(rng.randint(1000, 9999)))
    builder.end_element()
    builder.start_element("profile")
    builder.attribute("income", f"{rng.randint(20000, 90000)}.00")
    for _ in range(rng.randint(0, 4)):
        builder.start_element("interest")
        builder.attribute("category", rng.choice(_INTERESTS))
        builder.end_element()
    if rng.random() < 0.6:
        _leaf(builder, "education",
              rng.choice(["High School", "College", "Graduate School"]))
    _leaf(builder, "business", rng.choice(["Yes", "No"]))
    builder.end_element()
    builder.start_element("watches")
    for _ in range(rng.randint(0, 3)):
        builder.start_element("watch")
        builder.attribute(
            "open_auction",
            f"open_auction{rng.randrange(max(1, auction_count))}")
        builder.end_element()
    builder.end_element()
    builder.end_element()


def generate_auctions(config: XMarkConfig,
                      uri: str = "auctions.xml") -> Document:
    """Generate the auctions half (site/open_auctions/open_auction...)."""
    rng = random.Random(config.seed + 1)
    builder = DocumentBuilder(uri)
    builder.start_document()
    builder.start_element("site")
    builder.start_element("open_auctions")
    for index in range(config.auction_count):
        _auction(builder, rng, index, config.person_count)
    builder.end_element()
    builder.end_element()
    builder.end_document()
    return builder.finish()


def _auction(builder: DocumentBuilder, rng: random.Random, index: int,
             person_count: int) -> None:
    builder.start_element("open_auction")
    builder.attribute("id", f"open_auction{index}")
    initial = rng.randint(5, 300)
    _leaf(builder, "initial", f"{initial}.00")
    _leaf(builder, "reserve", f"{initial + rng.randint(10, 200)}.00")
    current = initial
    for _ in range(rng.randint(0, 4)):
        increase = rng.randint(1, 30)
        current += increase
        builder.start_element("bidder")
        _leaf(builder, "date", f"{rng.randint(1, 28):02d}/"
                               f"{rng.randint(1, 12):02d}/2008")
        _leaf(builder, "time", f"{rng.randint(0, 23):02d}:"
                               f"{rng.randint(0, 59):02d}:00")
        builder.start_element("personref")
        builder.attribute("person", f"person{rng.randrange(person_count)}")
        builder.end_element()
        _leaf(builder, "increase", f"{increase}.00")
        builder.end_element()
    _leaf(builder, "current", f"{current}.00")
    _leaf(builder, "privacy", rng.choice(["Yes", "No"]))
    builder.start_element("itemref")
    builder.attribute("item", f"item{rng.randint(0, 9999)}")
    builder.end_element()
    builder.start_element("seller")
    builder.attribute("person", f"person{rng.randrange(person_count)}")
    builder.end_element()
    builder.start_element("annotation")
    builder.start_element("author")
    builder.attribute("person", f"person{rng.randrange(person_count)}")
    builder.end_element()
    builder.start_element("description")
    _leaf(builder, "text", _sentence(rng, rng.randint(12, 40)))
    builder.end_element()
    _leaf(builder, "happiness", str(rng.randint(1, 10)))
    builder.end_element()
    _leaf(builder, "quantity", str(rng.randint(1, 5)))
    _leaf(builder, "type", rng.choice(["Regular", "Featured", "Dutch"]))
    builder.start_element("interval")
    _leaf(builder, "start", f"{rng.randint(1, 28):02d}/01/2008")
    _leaf(builder, "end", f"{rng.randint(1, 28):02d}/12/2008")
    builder.end_element()
    builder.end_element()


def _leaf(builder: DocumentBuilder, name: str, text: str) -> None:
    builder.start_element(name)
    builder.text(text)
    builder.end_element()


def generate_pair(scale: float, seed: int = 20090329,
                  people_uri: str = "people.xml",
                  auctions_uri: str = "auctions.xml"
                  ) -> tuple[Document, Document]:
    """Generate the (people, auctions) document pair for one scale."""
    config = XMarkConfig(scale=scale, seed=seed)
    return (generate_people(config, people_uri),
            generate_auctions(config, auctions_uri))
