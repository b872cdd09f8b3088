"""Schema and admission-control unit tests for the serving protocol.

The protocol layer is where determinism is won: requests normalize
once at admission (deadline -> units, tighter budget wins), response
bodies render canonically, and every schema violation is a typed
:class:`ServeProtocolError` that serializes to a structured error
document.
"""

from __future__ import annotations

import json

import pytest

from repro.core.serialize import failure_from_dict
from repro.core.wire import canonical_json
from repro.resilience.budget import UNITS_PER_SECOND
from repro.serve.client import serve_request_to_dict
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ServeProtocolError,
    ServeRequest,
    canonical_body,
    deadline_units,
    effective_budget,
    error_response,
    execute_request,
    parse_request,
    request_fingerprint,
)
from tests.serve.conftest import POINT, grid_point, plan_request


class TestParseRequest:
    def test_plan_round_trip(self):
        request = parse_request(plan_request(id="r1"))
        assert request.op == "plan"
        assert request.points == (grid_point(),)
        assert request.budget == 64
        assert request.request_id == "r1"
        assert not request.no_fallback

    def test_wire_round_trip_is_stable(self):
        request = parse_request(plan_request(id="r1"))
        again = parse_request(serve_request_to_dict(request))
        assert again == request

    def test_sweep_round_trip(self):
        document = {
            "op": "sweep",
            "points": [dict(POINT), dict(POINT, seq_len=1024)],
        }
        request = parse_request(document)
        assert len(request.points) == 2
        assert parse_request(
            serve_request_to_dict(request)
        ) == request

    @pytest.mark.parametrize("document, fragment", [
        ("not an object", "JSON object"),
        ({"op": "plan"}, "requires 'point'"),
        ({"op": "mystery"}, "unknown op"),
        ({"op": "plan", "point": dict(POINT), "x": 1},
         "unknown request field"),
        ({"op": "plan", "point": dict(POINT, extra=1)},
         "unknown point field"),
        ({"op": "plan", "point": {"executor": "transfusion"}},
         "missing required field"),
        ({"op": "plan",
          "point": dict(POINT, seq_len="long")},
         "must be int"),
        ({"op": "plan", "point": dict(POINT, seq_len=0)},
         ">= 1"),
        ({"op": "plan", "point": dict(POINT), "budget": 0},
         ">= 1 search unit"),
        ({"op": "plan", "point": dict(POINT), "budget": "big"},
         "budget must be an integer"),
        ({"op": "plan", "point": dict(POINT), "deadline_s": 0},
         "deadline_s must be > 0"),
        ({"op": "sweep", "points": []}, "at least one point"),
        ({"op": "sweep", "point": dict(POINT)},
         "takes 'points'"),
        ({"op": "plan", "point": dict(POINT), "v": 99},
         "unsupported protocol version"),
        ({"op": "stats", "point": dict(POINT)},
         "no point arguments"),
        # The removed TileSeek warm-start flag is an unknown field,
        # and the error lists the fields a request may carry.
        ({"op": "sweep", "points": [dict(POINT)], "warm_start": True},
         "unknown request field(s) ['warm_start']; choose from "
         "['budget', 'deadline_s', 'id', 'no_fallback', 'op', 'point', "
         "'points', 'v']"),
    ])
    def test_rejections_are_typed_and_name_the_problem(
        self, document, fragment
    ):
        with pytest.raises(ServeProtocolError) as err:
            parse_request(document)
        assert fragment in str(err.value)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ServeProtocolError):
            parse_request(
                {"op": "plan", "point": dict(POINT, seq_len=True)}
            )


class TestAdmission:
    def test_deadline_maps_once_through_units_per_second(self):
        assert deadline_units(2.0) == 2 * UNITS_PER_SECOND
        assert deadline_units(1e-9) == 1  # floor at one unit

    def test_tighter_budget_wins(self):
        assert effective_budget(10, None) == 10
        assert effective_budget(None, 2.0) == 2 * UNITS_PER_SECOND
        assert effective_budget(10, 2.0) == 10
        assert effective_budget(10 ** 12, 1.0) == UNITS_PER_SECOND
        assert effective_budget(None, None) is None

    def test_parse_folds_deadline_into_budget(self):
        request = parse_request(
            plan_request(budget=None, deadline_s=1.0)
        )
        assert request.budget == UNITS_PER_SECOND


class TestFingerprint:
    def test_id_is_excluded(self):
        with_id = parse_request(plan_request(id="a"))
        other_id = parse_request(plan_request(id="b"))
        without = parse_request(plan_request())
        assert request_fingerprint(with_id) == \
            request_fingerprint(other_id) == \
            request_fingerprint(without)

    def test_budget_and_flags_are_included(self):
        base = parse_request(plan_request())
        assert request_fingerprint(base) != request_fingerprint(
            parse_request(plan_request(budget=65))
        )
        assert request_fingerprint(base) != request_fingerprint(
            parse_request(plan_request(no_fallback=True))
        )
        assert request_fingerprint(base) != request_fingerprint(
            parse_request(plan_request(op="validate"))
        )

    def test_budget_override_rekeys(self):
        request = parse_request(plan_request())
        assert request_fingerprint(request) != \
            request_fingerprint(request, budget=32)


class TestCanonicalBody:
    def test_round_trip_is_a_fixed_point(self):
        document = {"b": 1.5e-7, "a": ["x", {"c": 2}]}
        body = canonical_body(document)
        assert canonical_body(json.loads(body)) == body
        assert canonical_json(json.loads(body)) == body

    def test_sorted_and_compact(self):
        assert canonical_body({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestExecuteRequest:
    def test_plan_reports_provenance_and_budget(self):
        document = execute_request(parse_request(plan_request()))
        assert document["ok"] is True
        assert document["status"] == "ok"
        assert document["v"] == PROTOCOL_VERSION
        assert document["budget"] == 64
        assert document["provenance"] != ""
        assert document["report"]["workload"].startswith("t5")

    def test_unbudgeted_plan_is_complete(self):
        document = execute_request(
            parse_request(plan_request(budget=None))
        )
        assert document["provenance"] == "complete"
        assert "budget" not in document

    def test_validate_carries_audit(self):
        document = execute_request(
            parse_request(plan_request(op="validate", budget=None))
        )
        assert document["ok"] is True
        assert document["passed"] is True
        assert document["audit"]["checks"]

    def test_stats_needs_a_server(self):
        with pytest.raises(ServeProtocolError):
            execute_request(ServeRequest(op="stats"))


class TestErrorResponse:
    def test_typed_errors_round_trip(self):
        document = error_response(
            ServeProtocolError("bad request"), "plan", "r9"
        )
        assert document["ok"] is False
        assert document["status"] == "error"
        assert document["id"] == "r9"
        rebuilt = failure_from_dict(document["error"])
        assert isinstance(rebuilt, ServeProtocolError)
        assert "bad request" in str(rebuilt)

    def test_untyped_errors_degrade_to_sweep_error(self):
        document = error_response(RuntimeError("boom"))
        assert document["error"]["type"] == "SweepError"
        assert "boom" in document["error"]["message"]
