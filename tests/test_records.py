"""The package's immutable record types behave as the frozen dataclasses they replaced.

Each type keeps its constructor coercion, ``len``, value equality within
its own type, the hash of its field tuple, its ``Name(field=value, ...)``
repr, and refuses attribute assignment.
"""

import math

import pytest

from candidate_soups import CandidateSet, FusionResult, ScoredCandidate
from candidate_soups.alignment import AlignedPartition, Anchor, DivergenceRegion
from candidate_soups.bleu import BleuReport
from candidate_soups.fusion import RegionChoice
from candidate_soups.lattice_oracle import SimplifiedLattice
from candidate_soups.scoring import NGramModel
from candidate_soups.synth import NoiseConfig, Vocabulary

SC = ScoredCandidate(("a", "b"), (0.0, -1.0))
SC_REPR = "ScoredCandidate(tokens=('a', 'b'), scores=(0.0, -1.0))"


def case(number, cls, args, want):
    """A row: the type, its constructor arguments and the repr the frozen
    dataclass gave.  Its id is the type name and a number written in the
    row, not the row's place, so removing a row renames no other case."""
    return pytest.param(cls, args, want, id=f"{cls.__name__}-{number}")


CASES = [
    case(0, ScoredCandidate, (("a", "b"), (0.0, -1.0)), SC_REPR),
    case(1, CandidateSet, ("s", (SC,), ("x", "y")),
         f"CandidateSet(id='s', candidates=({SC_REPR},), source=('x', 'y'))"),
    case(2, CandidateSet, ("s", (SC,)), f"CandidateSet(id='s', candidates=({SC_REPR},), source=None)"),
    case(3, Anchor, ("a", (0, 1)), "Anchor(token='a', positions=(0, 1))"),
    case(4, DivergenceRegion, ((0, 0), (1, 2), (("a",), ("b", "c"))),
         "DivergenceRegion(start=(0, 0), end=(1, 2), segments=(('a',), ('b', 'c')))"),
    case(5, AlignedPartition, ((Anchor("a", (0, 1)),),),
         "AlignedPartition(elements=(Anchor(token='a', positions=(0, 1)),))"),
    case(6, RegionChoice, (1, (-0.5, -0.25), ("b",)),
         "RegionChoice(chosen=1, segment_scores=(-0.5, -0.25), chosen_tokens=('b',))"),
    case(7, FusionResult, (("a", "b"), ()), "FusionResult(tokens=('a', 'b'), trace=())"),
    # the log-probability table _model derives for these counts: total 1, smoothing 0.1 * 2
    case(8, NGramModel,
         (2, 0.1, {(): {"a": 1}}, {(): ({"a": math.log(1.1 / 1.2)}, math.log(0.1 / 1.2))},
          frozenset({"a"})),
         "NGramModel(order=2, alpha=0.1)"),
    case(9, BleuReport, (50.0, (1.0, 0.5), 1.0, 3, 4),
         "BleuReport(bleu=50.0, ngram_precisions=(1.0, 0.5), brevity_penalty=1.0, "
         "hyp_length=3, ref_length=4)"),
    case(10, SimplifiedLattice, (AlignedPartition(()), ((-0.5, -0.25),)),
         "SimplifiedLattice(partition=AlignedPartition(elements=()), means=((-0.5, -0.25),))"),
    # a tuple subclass before: it took attribute assignment and equalled its token tuple
    case(11, Vocabulary, (("a", "b", "a"),),
         "Vocabulary(tokens=('a', 'b'), positions={'a': 0, 'b': 1})"),
]


@pytest.mark.parametrize("cls, args, want", CASES)
def test_repr(cls, args, want):
    assert repr(cls(*args)) == want


@pytest.mark.parametrize("cls, args, want", CASES)
def test_equality_is_by_value_within_the_type(cls, args, want):
    one, two = cls(*args), cls(*args)
    assert one == two and not one != two
    assert one != tuple(args) and not one == tuple(args)
    assert one != tuple(one) and not one == tuple(one)
    assert tuple(args) != one
    assert one != object()
    other_first = (f"other {args[0]}",) + tuple(args[1:])
    assert one != cls(*other_first)


@pytest.mark.parametrize("cls, args, want", CASES)
def test_hash_is_the_field_tuple_hash(cls, args, want):
    record = cls(*args)
    if cls in (NGramModel, Vocabulary):  # their dict fields are unhashable
        with pytest.raises(TypeError):
            hash(record)
        return
    fields = tuple(getattr(record, name) for name in cls.__match_args__)
    assert hash(record) == hash(cls(*args)) == hash(fields)
    assert {record, cls(*args)} == {record}


@pytest.mark.parametrize("cls, args, want", CASES)
def test_attributes_cannot_be_assigned(cls, args, want):
    record = cls(*args)
    with pytest.raises(AttributeError):
        setattr(record, cls.__match_args__[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == want


def test_scored_candidate_coerces_lists_and_ints():
    cand = ScoredCandidate(["a", "b"], [0, -1])
    assert cand == SC
    assert cand.tokens == ("a", "b") and type(cand.tokens) is tuple
    assert all(type(s) is float for s in cand.scores)
    assert len(cand) == 2
    assert ScoredCandidate(tokens=["a"], scores=[-2]).scores == (-2.0,)


def test_candidate_set_coerces_lists():
    cset = CandidateSet("s", [SC, SC], ["x"])
    assert type(cset.candidates) is tuple and type(cset.source) is tuple
    assert cset == CandidateSet("s", (SC, SC), ("x",))
    assert len(cset) == 2
    assert CandidateSet(id="t", candidates=[SC]).source is None
    assert len(CandidateSet("e", [])) == 0 and not CandidateSet("e", [])


def test_noise_config_behaves_as_its_frozen_dataclass():
    # its own test: the shared equality test builds cls("other ...", ...), which it rejects
    fields = ("substitution_rate", "insertion_rate", "deletion_rate", "duplication_rate",
              "correct_score_mean", "correct_score_std", "error_score_mean", "error_score_std",
              "rng_seed")
    assert NoiseConfig._fields == fields
    config = NoiseConfig()
    assert repr(config) == (
        "NoiseConfig(substitution_rate=0.15, insertion_rate=0.03, deletion_rate=0.03, "
        "duplication_rate=0.05, correct_score_mean=-0.15, correct_score_std=0.05, "
        "error_score_mean=-2.0, error_score_std=0.5, rng_seed=0)"
    )
    seeded = NoiseConfig(deletion_rate=0.5, rng_seed=7)
    assert seeded == NoiseConfig(0.15, 0.03, 0.5, 0.05, -0.15, 0.05, -2.0, 0.5, 7)
    assert seeded != config and not seeded == config
    assert config == NoiseConfig() and not config != NoiseConfig()
    assert config != tuple(config) and config != object()
    values = tuple(getattr(config, name) for name in fields)
    assert values == (0.15, 0.03, 0.03, 0.05, -0.15, 0.05, -2.0, 0.5, 0)
    assert hash(config) == hash(NoiseConfig()) == hash(values)
    with pytest.raises(AttributeError):
        config.rng_seed = 1
    with pytest.raises(AttributeError):
        config.extra = 1
    assert config == NoiseConfig()
