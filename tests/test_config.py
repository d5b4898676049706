import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revivalwalk import (
    CoinKind,
    CoinSpec,
    ConfigError,
    InitialEntry,
    RevivalMode,
    Tolerances,
    WalkConfig,
    build_instance,
    golden_config,
    parse_config,
    serialize_config,
)
from revivalwalk.config import parse_phase
from revivalwalk.golden import golden_config_text
from revivalwalk.shifts import usual_shift_choice


def minimal_config(**overrides):
    base = {
        "d": 1,
        "n": 2,
        "coin": {"kind": "cyclic", "phases": [0.0, 0.0]},
        "shifts": [[-1, 1]],
        "initial": [{"position": [0], "coin": 1, "amp_re": 1.0, "amp_im": 0.0}],
    }
    base.update(overrides)
    return json.dumps(base)


# -- angle strings ------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pi", math.pi),
        ("-pi", -math.pi),
        ("pi*2/3", math.pi * 2 / 3),
        ("pi/2", math.pi / 2),
        ("pi*4/3", math.pi * 4 / 3),
        ("pi*-1/3", -(math.pi / 3)),
    ],
)
def test_parse_phase_pi_strings(text, expected):
    assert parse_phase(text) == expected


def test_parse_phase_accepts_plain_numbers():
    assert parse_phase(0.25) == 0.25
    assert parse_phase(2) == 2.0


@pytest.mark.parametrize("bad", ["2*pi", "tau", "pie", "pi**2", "pi/0", True, None])
def test_parse_phase_rejects_garbage(bad):
    with pytest.raises(ConfigError):
        parse_phase(bad)


# -- parsing and validation ----------------------------------------------------


def test_bundled_three_state_config_parses():
    config = parse_config(golden_config_text(2))
    assert config.d == 1 and config.n == 3
    assert config.coin.kind == "cyclic"
    assert config.coin.phases == (0.0, math.pi * 2 / 3, math.pi * 4 / 3)
    assert config.shifts == ((-5, 3, 2),)
    assert not config.normalize
    assert config.revival_mode is RevivalMode.EXACT


def test_parse_config_accepts_bytes():
    config = parse_config(golden_config_text(1).encode("utf-8"))
    assert config.n == 2


def test_zero_sum_violation_carries_field_path():
    with pytest.raises(ConfigError) as info:
        parse_config(minimal_config(shifts=[[1, 2]]))
    assert info.value.field == "shifts[0]"


def test_phase_sum_violation_surfaces_with_residual():
    text = minimal_config(
        n=3,
        coin={"kind": "cyclic", "phases": [0.1, 0.2, 0.3]},
        shifts=[[-1, 0, 1]],
    )
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.field == "coin.phases"
    assert "6.000e-01" in str(info.value)


def test_non_unit_initial_rejected_unless_normalize():
    text = minimal_config(
        initial=[{"position": [0], "coin": 1, "amp_re": 0.5, "amp_im": 0.0}]
    )
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.field == "initial"
    normalized = json.loads(text)
    normalized["normalize"] = True
    config = parse_config(json.dumps(normalized))
    state = build_instance(config).initial
    assert math.isclose(state.norm(), 1.0, abs_tol=1e-15)


def test_malformed_json_and_bad_types():
    with pytest.raises(ConfigError):
        parse_config(b"{ not json")
    with pytest.raises(ConfigError):
        parse_config(json.dumps([1, 2]))
    with pytest.raises(ConfigError):
        parse_config(minimal_config(d="one"))
    with pytest.raises(ConfigError):
        parse_config(minimal_config(max_steps=-1))


def test_unknown_fields_rejected():
    obj = json.loads(minimal_config())
    obj["walk_speed"] = 3
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(obj))
    assert info.value.field == "walk_speed"

    with pytest.raises(ConfigError) as info:
        parse_config(minimal_config(coin={"kind": "cyclic", "phases": [0, 0], "spin": 1}))
    assert info.value.field == "coin.spin"

    entry = {"position": [0], "coin": 1, "amp_re": 1.0, "amp_im": 0.0, "spin": 1}
    with pytest.raises(ConfigError) as info:
        parse_config(minimal_config(initial=[entry]))
    assert info.value.field == "initial[0].spin"

    with pytest.raises(ConfigError) as info:
        parse_config(minimal_config(tolerances={"norm": 1e-10, "fuzz": 1.0}))
    assert info.value.field == "tolerances.fuzz"


def test_unknown_coin_kind():
    with pytest.raises(ConfigError) as info:
        parse_config(minimal_config(coin={"kind": "grover"}))
    assert info.value.field == "coin.kind"


ENTRY = {"position": [0], "coin": 1, "amp_re": 1.0, "amp_im": 0.0}
IDENTITY = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
KIND_FIELDS = {
    "cyclic": {"phases": [0, 0]},
    "partial_cycle": {"phases": [0.4, -0.4], "r": 2},
    "general_1d": {"theta": 0.5, "phi1": 0, "phi2": 0},
    "custom": {"custom_matrix": IDENTITY},
}


@pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
def test_coin_kind_takes_exactly_its_fields(kind):
    takes = KIND_FIELDS[kind]
    parse_config(minimal_config(coin={"kind": kind, **takes}))
    for name in takes:
        missing = {key: value for key, value in takes.items() if key != name}
        with pytest.raises(ConfigError) as info:
            parse_config(minimal_config(coin={"kind": kind, **missing}))
        assert info.value.field == f"coin.{name}"
    stray = {name: value for fields in KIND_FIELDS.values() for name, value in fields.items()}
    for name, value in stray.items():
        if name not in takes:
            with pytest.raises(ConfigError) as info:
                parse_config(minimal_config(coin={"kind": kind, **takes, name: value}))
            assert info.value.field == f"coin.{name}"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e309", "-" + "9" * 400])
@pytest.mark.parametrize(
    "coin,entry,field",
    [
        ({"kind": "cyclic", "phases": ["X", 0]}, ENTRY, "coin.phases[0]"),
        ({"kind": "general_1d", "theta": "X", "phi1": 0, "phi2": 0}, ENTRY, "coin.theta"),
        (
            {"kind": "custom", "custom_matrix": [[["X", 0], [0, 0]], [[0, 0], [1, 0]]]},
            ENTRY,
            "coin.custom_matrix[0][0][0]",
        ),
        ({"kind": "cyclic", "phases": [0, 0]}, {**ENTRY, "amp_re": "X"}, "initial[0].amp_re"),
    ],
)
def test_non_finite_numbers_rejected_where_they_enter(coin, entry, field, literal):
    text = minimal_config(coin=coin, initial=[entry]).replace('"X"', literal)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.field == field
    assert "finite" in str(info.value)


@pytest.mark.parametrize("angle", ["pi*" + "9" * 400, "pi*1/" + "9" * 400, "pi*" + "9" * 5000])
def test_angle_strings_beyond_the_float_range_are_config_errors(angle):
    with pytest.raises(ConfigError) as info:
        parse_phase(angle, "coin.phases[0]")
    assert info.value.field == "coin.phases[0]"


# One row per ConfigError raise site that parse_config reaches from malformed text.
MALFORMED = [
    ("angle syntax", {"coin": {"kind": "cyclic", "phases": ["pi*x", 0]}}, "coin.phases[0]"),
    ("angle zero denominator", {"coin": {"kind": "cyclic", "phases": ["pi/0", 0]}},
     "coin.phases[0]"),
    ("angle type", {"coin": {"kind": "cyclic", "phases": [[0], 0]}}, "coin.phases[0]"),
    ("missing field", {"shifts": None}, "shifts"),
    ("integer type", {"d": 1.5}, "d"),
    ("integer minimum", {"n": 1}, "n"),
    ("integer maximum", {"seed": 2**64}, "seed"),
    ("finite number", {"initial": [{**ENTRY, "amp_im": 1e400}]}, "initial[0].amp_im"),
    ("number type", {"initial": [{**ENTRY, "amp_re": "1"}]}, "initial[0].amp_re"),
    ("boolean type", {"normalize": 1}, "normalize"),
    ("unknown field", {"spin": 1}, "spin"),
    ("coin object", {"coin": [0, 0]}, "coin"),
    ("coin kind", {"coin": {"kind": "hadamard"}}, "coin.kind"),
    ("phase list", {"coin": {"kind": "cyclic", "phases": "pi"}}, "coin.phases"),
    ("matrix rows", {"coin": {"kind": "custom", "custom_matrix": IDENTITY[:1]}},
     "coin.custom_matrix"),
    ("matrix row", {"coin": {"kind": "custom", "custom_matrix": [IDENTITY[0][:1], IDENTITY[1]]}},
     "coin.custom_matrix[0]"),
    ("matrix entry", {"coin": {"kind": "custom", "custom_matrix": [[1, 0], IDENTITY[1]]}},
     "coin.custom_matrix[0][0]"),
    ("shift grid", {"shifts": 5}, "shifts"),
    ("shift rows", {"shifts": [[-1, 1], [-1, 1]]}, "shifts"),
    ("shift row", {"shifts": [[-1, 0, 1]]}, "shifts[0]"),
    ("initial list", {"initial": []}, "initial"),
    ("initial entry", {"initial": [5]}, "initial[0]"),
    ("position length", {"initial": [{**ENTRY, "position": [0, 0]}]}, "initial[0].position"),
    ("coin label", {"initial": [{**ENTRY, "coin": 3}]}, "initial[0].coin"),
    ("tolerance object", {"tolerances": 1e-9}, "tolerances"),
    ("tolerance value", {"tolerances": {"norm": -1.0}}, "tolerances.norm"),
    ("revival mode", {"revival_mode": "loose"}, "revival_mode"),
    ("schema version", {"schema_version": 2}, "schema_version"),
    # Fields are checked in CoinSpec order (r before theta), not in the file's order.
    ("fields the kind lacks",
     {"coin": {"kind": "cyclic", "theta": 1.0, "r": 2, "phases": [0, 0]}}, "coin.r"),
    ("field the kind needs", {"coin": {"kind": "partial_cycle", "phases": [0, 0]}}, "coin.r"),
    ("cyclic phase count", {"coin": {"kind": "cyclic", "phases": [0, 0, 0]}}, "coin.phases"),
    ("general_1d dimension",
     {"n": 3, "shifts": [[-1, 0, 1]], "coin": {"kind": "general_1d", "theta": 0, "phi1": 0,
                                              "phi2": 0}}, "n"),
    ("coin construction", {"coin": {"kind": "cyclic", "phases": [1.0, 0]}}, "coin.phases"),
    ("shift table", {"shifts": [[1, 1]]}, "shifts[0]"),
    ("initial state", {"initial": [{**ENTRY, "amp_re": 0.5}]}, "initial"),
]


@pytest.mark.parametrize("overrides,field", [row[1:] for row in MALFORMED],
                         ids=[row[0] for row in MALFORMED])
def test_malformed_config_names_the_field(overrides, field):
    obj = json.loads(minimal_config(**overrides))
    obj = {key: value for key, value in obj.items() if value is not None}
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(obj))
    assert info.value.field == field


@pytest.mark.parametrize(
    "text", [b"\xff{}", b"{", b"[]", b'{"d": 1' + b"0" * 5000 + b"}"],
    ids=["utf-8", "json syntax", "top level", "integer digit limit"],
)
def test_unreadable_config_text_is_a_config_error(text):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.field == "<config>"


def test_instance_mismatch_in_a_hand_built_config_is_a_config_error():
    three_by_three = tuple(tuple(complex(i == j) for j in range(3)) for i in range(3))
    config = WalkConfig(
        d=1, n=2, coin=CoinSpec(kind="custom", custom_matrix=three_by_three),
        shifts=((-1, 1),), initial=(InitialEntry((0,), 1, 1.0, 0.0),),
    )
    with pytest.raises(ConfigError) as info:
        config.instance
    assert info.value.field == "<config>"


def test_coin_label_range_checked():
    with pytest.raises(ConfigError) as info:
        parse_config(
            minimal_config(
                initial=[{"position": [0], "coin": 0, "amp_re": 1.0, "amp_im": 0.0}]
            )
        )
    assert info.value.field == "initial[0].coin"
    with pytest.raises(ConfigError):
        parse_config(
            minimal_config(
                initial=[{"position": [0], "coin": 3, "amp_re": 1.0, "amp_im": 0.0}]
            )
        )


def test_coin_labels_are_one_based():
    config = parse_config(minimal_config())
    state = build_instance(config).initial
    assert state.amplitude((0,), 0) == 1.0 + 0j


@pytest.mark.parametrize("coordinate", [2**63, -(2**63), 2**70])
def test_out_of_range_coordinate_rejected_with_field_path(coordinate):
    entry = {"position": [0, coordinate], "coin": 1, "amp_re": 1.0, "amp_im": 0.0}
    with pytest.raises(ConfigError) as info:
        parse_config(minimal_config(d=2, shifts=[[-1, 1], [1, -1]], initial=[entry]))
    assert info.value.field == "initial[0].position[1]"


def test_coordinate_at_the_limit_parses():
    entry = {"position": [2**63 - 1], "coin": 1, "amp_re": 1.0, "amp_im": 0.0}
    config = parse_config(minimal_config(initial=[entry]))
    assert config.initial[0].position == (2**63 - 1,)


def test_position_length_checked():
    with pytest.raises(ConfigError) as info:
        parse_config(
            minimal_config(
                initial=[{"position": [0, 0], "coin": 1, "amp_re": 1.0, "amp_im": 0.0}]
            )
        )
    assert info.value.field == "initial[0].position"


def test_schema_version_checked():
    with pytest.raises(ConfigError):
        parse_config(minimal_config(schema_version=99))


def test_seed_must_fit_64_bits():
    with pytest.raises(ConfigError):
        parse_config(minimal_config(seed=-1))
    with pytest.raises(ConfigError):
        parse_config(minimal_config(seed=2**64))
    config = parse_config(minimal_config(seed=2**64 - 1))
    assert config.seed == 2**64 - 1


def test_usual_shifts_expand_per_dimension():
    text = minimal_config(
        d=2,
        n=3,
        coin={"kind": "cyclic", "phases": [0, 0, 0]},
        shifts="usual",
        initial=[{"position": [0, 0], "coin": 1, "amp_re": 1.0, "amp_im": 0.0}],
    )
    config = parse_config(text)
    table = config.instance.shifts
    assert table.displacements == tuple([tuple(usual_shift_choice(3))] * 2)
    assert config.shifts == "usual"


def test_general_coin_config():
    text = minimal_config(
        coin={"kind": "general_1d", "theta": "pi/4", "phi1": 0, "phi2": 0}
    )
    coin = parse_config(text).instance.coin
    assert coin.kind is CoinKind.GENERAL_1D
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(coin.matrix, [[s, s], [s, -s]], atol=1e-15)


def test_custom_coin_config_checks_unitarity():
    good = minimal_config(
        coin={"kind": "custom", "custom_matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
    )
    coin = parse_config(good).instance.coin
    assert coin.kind is CoinKind.CUSTOM
    bad = minimal_config(
        coin={"kind": "custom", "custom_matrix": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}
    )
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    assert info.value.field == "coin"


def test_partial_cycle_config():
    text = minimal_config(
        n=4,
        coin={"kind": "partial_cycle", "r": 2, "phases": [0.4, -0.4]},
        shifts=[[-1, 1, 0, 0]],
    )
    coin = parse_config(text).instance.coin
    assert coin.kind is CoinKind.PARTIAL_CYCLE
    assert coin.cycle_length == 2


def test_tolerance_overrides():
    config = parse_config(minimal_config(tolerances={"revival": 1e-6, "norm": 1e-10}))
    assert config.tolerances == Tolerances(norm=1e-10, revival=1e-6)
    with pytest.raises(ConfigError):
        parse_config(minimal_config(tolerances={"fuzz": 1.0}))
    with pytest.raises(ConfigError):
        parse_config(minimal_config(tolerances={"norm": -1.0}))


@pytest.mark.parametrize("literal", ["1e309", "-1e309", "NaN"])
def test_non_finite_tolerances_rejected_with_field_path(literal):
    text = minimal_config(tolerances={"revival": "X"}).replace('"X"', literal)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.field == "tolerances.revival"
    with pytest.raises(ValueError):
        Tolerances(revival=float(literal))


def test_parsed_config_builds_its_instance_once():
    config = parse_config(minimal_config())
    assert build_instance(config) is build_instance(config)
    assert build_instance(config) is config.instance


def test_phase_tolerance_override_reaches_coin_construction():
    slightly_off = minimal_config(coin={"kind": "cyclic", "phases": [1e-6, 0.0]})
    with pytest.raises(ConfigError):
        parse_config(slightly_off)
    loose = json.loads(slightly_off)
    loose["tolerances"] = {"phase": 1e-4}
    config = parse_config(json.dumps(loose))
    assert config.instance.coin.kind is CoinKind.CYCLIC


def test_round_trip_identity_on_golden_configs():
    for which in (1, 2, 3):
        config = golden_config(which)
        assert parse_config(serialize_config(config)) == config


def test_round_trip_identity_preserves_usual_marker_and_floats():
    text = minimal_config(
        d=1,
        n=3,
        coin={"kind": "cyclic", "phases": [0.1, 0.2, -0.30000000000000004]},
        shifts="usual",
        max_steps=5,
        seed=7,
        revival_mode="global_phase",
    )
    config = parse_config(text)
    again = parse_config(serialize_config(config))
    assert again == config
    assert again.coin.phases == config.coin.phases


CANONICAL_CUSTOM_TEXT = """{
  "schema_version": 1,
  "d": 2,
  "n": 2,
  "coin": {
    "kind": "custom",
    "custom_matrix": [
      [
        [
          0.6,
          0.0
        ],
        [
          0.0,
          0.8
        ]
      ],
      [
        [
          0.0,
          0.8
        ],
        [
          0.6,
          0.0
        ]
      ]
    ]
  },
  "shifts": [
    [
      -1,
      1
    ],
    [
      2,
      -2
    ]
  ],
  "initial": [
    {
      "position": [
        0,
        -3
      ],
      "coin": 2,
      "amp_re": 0.6,
      "amp_im": -0.8
    }
  ],
  "normalize": true,
  "max_steps": 7,
  "tolerances": {
    "norm": 1e-11,
    "mat": 1e-09,
    "phase": 1e-08,
    "revival": 1e-07
  },
  "revival_mode": "global_phase",
  "seed": 42
}
"""


def test_serialize_is_a_fixed_point_on_canonical_text():
    config = parse_config(CANONICAL_CUSTOM_TEXT)
    assert config.coin.custom_matrix[0] == (0.6 + 0j, 0.8j)
    assert config.tolerances == Tolerances(norm=1e-11, mat=1e-9, phase=1e-8, revival=1e-7)
    assert serialize_config(config) == CANONICAL_CUSTOM_TEXT


def _zero_sum(draw, n: int, elements) -> tuple:
    head = draw(st.lists(elements, min_size=n - 1, max_size=n - 1))
    return (*head, -sum(head))


@st.composite
def walk_configs(draw):
    """Valid configs over every coin kind but custom, with random run controls."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["cyclic", "partial_cycle", "general_1d"]))
    n = 2 if kind == "general_1d" else draw(st.integers(3 if kind == "partial_cycle" else 2, 4))
    angle = st.floats(-10.0, 10.0)
    if kind == "general_1d":
        half_turn = st.floats(0.0, math.pi, exclude_max=True)
        coin = CoinSpec(
            kind=kind, theta=draw(st.floats(0.0, 2 * math.pi, exclude_max=True)),
            phi1=draw(half_turn), phi2=draw(half_turn),
        )
    else:
        r = draw(st.integers(2, n)) if kind == "partial_cycle" else None
        phases = _zero_sum(draw, r or n, angle)
        coin = CoinSpec(kind=kind, phases=phases, r=r)
    if draw(st.booleans()):
        shifts = "usual"
    else:
        rows = [list(_zero_sum(draw, n, st.integers(-3, 3))) for _ in range(d)]
        for row in rows:
            if not any(row):
                row[0], row[1] = 1, -1
        shifts = tuple(tuple(row) for row in rows)
    entry = st.builds(
        InitialEntry,
        position=st.tuples(*[st.integers(-5, 5)] * d),
        coin=st.integers(1, n),
        amp_re=st.floats(0.1, 1.0),
        amp_im=st.floats(-1.0, 1.0),
    )
    tolerances = Tolerances(
        norm=draw(st.floats(1e-12, 1e-3)),
        mat=draw(st.floats(1e-12, 1e-3)),
        phase=draw(st.floats(1e-9, 1e-3)),
        revival=draw(st.floats(1e-15, 1e-3)),
    )
    return WalkConfig(
        d=d, n=n, coin=coin, shifts=shifts,
        initial=tuple(draw(st.lists(entry, min_size=1, max_size=4))),
        normalize=True,
        max_steps=draw(st.integers(0, 50)),
        tolerances=tolerances,
        revival_mode=draw(st.sampled_from(list(RevivalMode))),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(config=walk_configs())
def test_round_trip_identity_on_generated_configs(config):
    assert parse_config(serialize_config(config)) == config
