"""Full measure bundles over a population family's shape, and the cell codec."""

import json
import math

from repro.analysis.census import (
    CELL_MEASURES,
    FAMILIES,
    batch_census_members,
    decode_cell_value,
    encode_cell_value,
    unit_census_member,
)

#: The census cell with the shape of the ``tiny-2x2x2s2`` family.
TINY = dict(source="tabular", **FAMILIES["tiny-2x2x2s2"])


class TestCells:
    def test_unit_and_batch_cells_agree(self):
        measures = ",".join(CELL_MEASURES)
        rows = [dict(TINY, member=member, measures=measures) for member in range(6)]
        assert batch_census_members(rows) == [
            unit_census_member(**row) for row in rows
        ]

    def test_cells_are_json_safe(self):
        cell = unit_census_member(
            **TINY, member=0, measures=",".join(CELL_MEASURES)
        )
        assert json.loads(json.dumps(cell, allow_nan=False)) == cell


class TestNonFiniteEncoding:
    def test_non_finite_floats_are_tagged_like_the_service_codec(self):
        # Regression: +-inf/nan used to pass straight through and
        # serialize as the non-strict JSON literals Infinity/NaN.
        payload = encode_cell_value(
            {"ratio": math.inf, "neg": -math.inf, "nan": math.nan, "ok": 1.5}
        )
        assert payload["ratio"] == {"t": "float", "v": "inf"}
        assert payload["neg"] == {"t": "float", "v": "-inf"}
        assert payload["nan"] == {"t": "float", "v": "nan"}
        assert payload["ok"] == 1.5
        json.dumps(payload, allow_nan=False)  # strict JSON round-trips

    def test_decode_restores_the_floats(self):
        decoded = decode_cell_value(
            encode_cell_value([math.inf, -math.inf, math.nan, 2.0])
        )
        assert decoded[0] == math.inf
        assert decoded[1] == -math.inf
        assert math.isnan(decoded[2])
        assert decoded[3] == 2.0

    def test_unit_cell_with_infinite_ratio_is_strict_json(self):
        # opt_p / worst-eqC style ratios can hit +inf when the complete-
        # information denominator is 0; the measure bundle must still be
        # strict JSON.  Build one synthetically through encode.
        value = encode_cell_value({"ratio": float("inf")})
        assert json.loads(json.dumps(value, allow_nan=False)) == value
