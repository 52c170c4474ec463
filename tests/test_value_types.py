"""Value-type contract of corrwork's seven public record classes.

Every class is immutable (assignment and deletion raise AttributeError),
compares, hashes and prints by its fields, accepts its fields as keywords
and in positional class patterns, and survives copy and pickle.  The four validated types raise ValueError on
the inputs they reject.
"""

import copy
import math
import pickle
import re

import pytest

from corrwork.energetics import DecayFit, fit_decay_exponent
from corrwork.laws import NAMED_LAWS, Angle, CorrelationLaw
from corrwork.nonlocality import ChshSettings, maximize_chsh
from corrwork.rng import RandomStream, check_seed
from corrwork.szilard import (
    CycleResult,
    EngineConfig,
    PartitionOptimum,
    optimal_partition,
    simulate,
)

ENGINE = {"error_prob": 0.25, "partition_fraction": 0.75, "trials": 1000, "seed": 7}
TABLE = ((0.0, -1.0), (1.0, 0.25), (3.0, 0.75))

#: class name -> (keyword fields, an instance with other field values)
VALUES = {
    "Angle": (Angle, {"radians": 0.5}, Angle(0.75)),
    "CorrelationLaw": (CorrelationLaw, {"name": "tabulated", "table": TABLE},
                       CorrelationLaw("quantum")),
    "ChshSettings": (ChshSettings,
                     {"phi_a": 0.0, "phi_a_prime": 1.5, "phi_b": 0.75,
                      "phi_b_prime": -0.75},
                     ChshSettings.standard()),
    "EngineConfig": (EngineConfig, ENGINE, EngineConfig(0.1, 0.9, 10, 0)),
    "DecayFit": (DecayFit, {"exponent": 2.0, "prefactor": 0.5, "r_squared": 1.0,
                            "window": (1e-3, 1e-1)},
                 DecayFit(1.0, 0.6366197723675814, 1.0, (1e-3, 1e-1))),
    "CycleResult": (CycleResult, {"mean_work_kT": 0.13, "std_error": 0.02, "n": 1000,
                                  "correct": 750},
                    CycleResult(0.5, 0.0, 10, 10)),
    "PartitionOptimum": (PartitionOptimum, {"x_opt": 0.75, "w_opt_kT": 0.13,
                                            "boundary": False},
                         PartitionOptimum(1.0, math.log(2.0), True)),
}

REPRS = {
    "Angle": "Angle(radians=0.5)",
    "CorrelationLaw": ("CorrelationLaw(name='tabulated', "
                       "table=((0.0, -1.0), (1.0, 0.25), (3.0, 0.75)))"),
    "ChshSettings": ("ChshSettings(phi_a=0.0, phi_a_prime=1.5, phi_b=0.75, "
                     "phi_b_prime=-0.75)"),
    "EngineConfig": ("EngineConfig(error_prob=0.25, partition_fraction=0.75, "
                     "trials=1000, seed=7)"),
    "DecayFit": "DecayFit(exponent=2.0, prefactor=0.5, r_squared=1.0, window=(0.001, 0.1))",
    "CycleResult": "CycleResult(mean_work_kT=0.13, std_error=0.02, n=1000, correct=750)",
    "PartitionOptimum": "PartitionOptimum(x_opt=0.75, w_opt_kT=0.13, boundary=False)",
}


def build(name):
    cls, fields, _ = VALUES[name]
    return cls(**fields)


@pytest.mark.parametrize("name", sorted(VALUES))
class TestContract:
    def test_keyword_and_positional_construction_agree(self, name):
        cls, fields, _ = VALUES[name]
        value = cls(**fields)
        assert cls(*fields.values()) == value
        for field, expected in fields.items():
            assert getattr(value, field) == expected

    def test_assignment_raises_attribute_error(self, name):
        value = build(name)
        field = next(iter(VALUES[name][1]))
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) == before

    def test_equality_and_hash_follow_the_fields(self, name):
        _, _, other = VALUES[name]
        a, b = build(name), build(name)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != other and not a == other
        assert len({a, b, other}) == 2
        assert {a: 1}[b] == 1

    def test_repr_names_every_field(self, name):
        assert repr(build(name)) == REPRS[name]

    def test_positional_patterns_follow_the_fields(self, name):
        cls, fields, _ = VALUES[name]
        assert cls.__match_args__ == tuple(fields)
        match build(name):
            case cls(first):
                assert first == next(iter(fields.values()))
            case _:
                pytest.fail("no positional match")

    def test_copy_and_pickle_round_trip(self, name):
        value = build(name)
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert clone == value
            assert type(clone) is type(value)


class TestValidatedTypes:
    def test_angle_is_canonicalised_once(self):
        a = Angle(-0.5)
        assert a.radians == Angle(a.radians).radians
        assert 0.0 <= a.radians <= math.pi
        assert Angle(radians=2.0 * math.pi) == Angle(0.0)
        assert Angle(True).radians == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1.0", None])
    def test_angle_rejects_non_finite_and_non_numbers(self, bad):
        with pytest.raises(ValueError, match="angle must be a finite number"):
            Angle(bad)

    @pytest.mark.parametrize("field", ["phi_a", "phi_a_prime", "phi_b", "phi_b_prime"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, "0"])
    def test_chsh_settings_names_the_non_finite_angle(self, field, bad):
        fields = dict(VALUES["ChshSettings"][1], **{field: bad})
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad!r}$"):
            ChshSettings(**fields)

    def test_chsh_settings_reports_the_first_bad_angle(self):
        with pytest.raises(ValueError, match="^phi_a_prime must be finite"):
            ChshSettings(0.0, math.nan, math.inf, 0.0)

    def test_maximize_returns_value_types(self):
        settings, value = maximize_chsh(CorrelationLaw("quantum"))
        angles = (settings.phi_a, settings.phi_a_prime, settings.phi_b,
                  settings.phi_b_prime)
        assert maximize_chsh(CorrelationLaw("quantum")) == (ChshSettings(*angles), value)
        assert ChshSettings(**settings.as_dict()) == settings

    @pytest.mark.parametrize("name", NAMED_LAWS)
    def test_named_law_rejects_a_table(self, name):
        with pytest.raises(ValueError, match=f"^{name} law does not take a table$"):
            CorrelationLaw(name, TABLE)
        assert CorrelationLaw(name=name) == CorrelationLaw(name, None)

    @pytest.mark.parametrize("name", ["bogus", "", "Quantum", "quantum ", "table:law.csv",
                                      "QUANTUM_COSINE", None, 0])
    @pytest.mark.parametrize("table", [None, TABLE])
    def test_unknown_law_name_is_rejected(self, name, table):
        message = f"law name {name!r} is neither tabulated nor in NAMED_LAWS"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CorrelationLaw(name, table)

    @pytest.mark.parametrize("table, message", [
        (None, "requires a non-empty table"),
        ((), "requires a non-empty table"),
        (((-0.1, 0.0),), "outside canonical range"),
        (((0.0, 0.0), (0.0, 1.0)), "strictly increasing"),
        (((0.0, 1.5),), r"outside \[-1, 1\]"),
    ])
    def test_tabulated_law_checks_its_table(self, table, message):
        with pytest.raises(ValueError, match=message):
            CorrelationLaw("tabulated", table)

    def test_tabulated_law_keeps_its_table(self):
        law = CorrelationLaw("tabulated", [[0, -1], [1, 0.25], [3, 0.75]])
        assert law == CorrelationLaw("tabulated", TABLE)
        assert law.table == TABLE and law.name == "tabulated"

    @pytest.mark.parametrize("knots", [
        [[0, -1], [1, 0.25], [3, 0.75]],
        [(0, -1), (1, 0.25), (3, 0.75)],
        ([0.0, -1.0], [1.0, 0.25], [3.0, 0.75]),
        [[False, -1], [True, 0.25], [3, 0.75]],
    ], ids=["list-of-int-lists", "list-of-int-tuples", "tuple-of-lists", "bools"])
    def test_tabulated_law_freezes_its_knots(self, knots):
        law, frozen = CorrelationLaw("tabulated", knots), CorrelationLaw("tabulated", TABLE)
        assert law == frozen and hash(law) == hash(frozen)
        assert type(law.table) is tuple
        assert all(type(knot) is tuple and list(map(type, knot)) == [float, float]
                   for knot in law.table)
        assert pickle.loads(pickle.dumps(law)) == law
        assert {law: 1}[frozen] == 1

    @pytest.mark.parametrize("field, bad, message", [
        ("error_prob", -0.1, "error probability must be >= 0, got -0.1"),
        ("error_prob", 0.6, "error probability 0.6 exceeds 1/2: relabel the bit so "
                            "that the prediction is right more often than wrong"),
        ("error_prob", math.nan, "error probability must be >= 0, got nan"),
        ("partition_fraction", 0.0, r"partition_fraction 0.0 outside \(0, 1\)"),
        ("partition_fraction", 1.0, r"partition_fraction 1.0 outside \(0, 1\)"),
        ("trials", 0, "trials must be >= 1, got 0"),
        ("seed", -1, r"seed must be in \[0, 2\*\*64\), got -1"),
        ("seed", 2**64, rf"seed must be in \[0, 2\*\*64\), got {2**64}"),
        ("seed", 2**64 + 7, rf"seed must be in \[0, 2\*\*64\), got {2**64 + 7}"),
    ])
    def test_engine_config_rejects_out_of_range_fields(self, field, bad, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EngineConfig(**dict(ENGINE, **{field: bad}))

    @pytest.mark.parametrize("bad", [2.5, 1e6, True])
    def test_engine_config_takes_only_int_trials(self, bad):
        # simulate would otherwise fail inside numpy, or run True as 1 trial
        with pytest.raises(TypeError, match=f"^trials must be an int, got "
                                            f"{type(bad).__name__}$"):
            EngineConfig(**dict(ENGINE, trials=bad))

    @pytest.mark.parametrize("make", [
        lambda: RandomStream(True),
        lambda: check_seed(False),
        lambda: EngineConfig(**dict(ENGINE, seed=True)),
    ], ids=["RandomStream", "check_seed", "EngineConfig"])
    def test_a_bool_is_not_a_seed(self, make):
        # True would otherwise run on the stream of seed 1 and print seed=True
        with pytest.raises(TypeError, match="^seed must be an int, got bool$"):
            make()


class TestRecords:
    def test_library_results_are_the_records(self):
        fit = fit_decay_exponent(CorrelationLaw("quantum"), 0.0)
        assert isinstance(fit, DecayFit) and fit.window == (1e-3, 1e-1)
        result = simulate(EngineConfig(**ENGINE))
        assert isinstance(result, CycleResult) and result.n == ENGINE["trials"]
        assert optimal_partition(0.0) == PartitionOptimum(1.0, math.log(2.0), True)
        assert optimal_partition(0.25) == PartitionOptimum(
            x_opt=0.75, w_opt_kT=optimal_partition(0.25).w_opt_kT)

    def test_partition_optimum_defaults_to_interior(self):
        assert PartitionOptimum(x_opt=0.5, w_opt_kT=0.0).boundary is False
