"""Wire protocol: canonical encoding and structural validation.

The serving correctness bar is byte identity, so the encoding layer has
exactly one job: every JSON value has one and only one wire
representation. The validation layer's job is to keep garbage out of the
engine with ``bad-request`` errors the client can act on.
"""

import math

import pytest

from repro.serve.protocol import (
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    canonical,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    parse_request,
)


class TestCanonicalEncoding:
    def test_sorted_compact_no_spaces(self):
        assert canonical({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'

    def test_floats_round_trip_exactly(self):
        # CPython's repr/parse is lossless; the disk cache tier and the
        # differential client both rely on it.
        for value in (0.1 + 0.2, 1.0 / 3.0, 2.5600000000000005, 1e-17):
            line = encode_line({"v": value})
            assert decode_line(line)["v"] == value
            # ...and re-encoding the decoded value is byte-stable.
            assert encode_line(decode_line(line)) == line

    def test_nan_is_rejected_not_emitted(self):
        with pytest.raises(ValueError):
            canonical({"v": math.nan})

    def test_encode_line_is_newline_delimited_utf8(self):
        line = encode_line({"op": "ping"})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1

    def test_decode_line_rejects_bad_json_and_bad_utf8(self):
        with pytest.raises(ProtocolError):
            decode_line(b"{not json}\n")
        with pytest.raises(ProtocolError):
            decode_line(b"\xff\xfe\n")


class TestEnvelopes:
    def test_ok_response_carries_envelope_and_payload(self):
        body = ok_response("q1", "ping", {"version": PROTOCOL_VERSION})
        assert body == {"id": "q1", "ok": True, "op": "ping",
                        "version": PROTOCOL_VERSION}

    def test_error_response_shape(self):
        body = error_response("q2", "overloaded", "queue full")
        assert body["ok"] is False
        assert body["error"] == "overloaded"

    def test_protocol_error_default_code(self):
        assert ProtocolError("nope").code == "bad-request"


def _admit(**overrides):
    req = {"op": "admit", "id": "q", "v_bank": 2.0,
           "app": "sense-store", "task": "sample"}
    req.update(overrides)
    return req


class TestParseRequest:
    def test_every_op_is_known(self):
        assert set(OPS) == {"ping", "admit", "simulate", "report",
                            "flush", "stats", "shutdown"}

    def test_valid_requests_pass_through_unchanged(self):
        for req in (
            {"op": "ping"},
            _admit(),
            _admit(trace=[[0.01, 0.2]], app=None, task=None,
                   system={"dc_esr": 6.0}, device="dev-1",
                   deadline_ms=100.0),
            {"op": "simulate", "id": "s", "v_start": 2.2,
             "app": "sense-tx", "harvesting": True, "stop": False,
             "env": {"model": "diurnal-solar"}},
            {"op": "report", "id": "r", "device": "dev-1",
             "outcome": "brownout"},
            {"op": "stats", "id": "st"},
            {"op": "shutdown", "id": "bye"},
        ):
            assert parse_request(req) is req

    @pytest.mark.parametrize("bad", [
        "ping",                                 # not an object
        {"op": "noop", "id": "q"},              # unknown op
        {"op": "admit", "v_bank": 2.0, "app": "a"},   # missing id
        _admit(v_bank=-0.1),                    # negative
        _admit(v_bank=True),                    # bool is not a number
        _admit(v_bank="2.0"),                   # string
        _admit(app=None, task=None),            # no task at all
        _admit(trace=[]),                       # empty trace
        _admit(trace=[[0.01]]),                 # not a pair
        _admit(trace=[[0.01, True]]),           # bool inside a segment
        _admit(trace="0.01,0.2"),               # not a list
        _admit(app=7),                          # non-string app
        _admit(task=7),                         # non-string task
        _admit(system=[1, 2]),                  # system not an object
        _admit(system={"bogus": 1.0}),          # unknown system field
        _admit(system={"dc_esr": True}),        # bool system value
        _admit(device=4),                       # non-string device
        _admit(deadline_ms=-1.0),               # negative deadline
        {"op": "simulate", "id": "s", "app": "a"},        # no v_start
        {"op": "simulate", "id": "s", "v_start": 2.0,
         "app": "a", "harvesting": 1},          # non-bool flag
        {"op": "simulate", "id": "s", "v_start": 2.0,
         "app": "a", "env": "sunny"},           # env not an object
        {"op": "report", "id": "r", "outcome": "brownout"},  # no device
        {"op": "report", "id": "r", "device": "",
         "outcome": "brownout"},                # empty device
        {"op": "report", "id": "r", "device": "d",
         "outcome": "meh"},                     # unknown outcome
    ])
    def test_malformed_requests_are_rejected(self, bad):
        with pytest.raises(ProtocolError):
            parse_request(bad)

    @pytest.mark.parametrize("literal", [
        "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400,
    ], ids=["nan", "inf", "-inf", "float-overflow", "int-overflow"])
    @pytest.mark.parametrize("template", [
        '{"op":"admit","id":"a","app":"a","v_bank":%s}',
        '{"op":"admit","id":"a","app":"a","v_bank":2.0,"deadline_ms":%s}',
        '{"op":"simulate","id":"s","app":"a","v_start":%s}',
        '{"op":"simulate","id":"s","v_start":2.0,"trace":[[%s,0.2]]}',
        '{"op":"simulate","id":"s","v_start":2.0,"trace":[[0.01,%s]]}',
        '{"op":"admit","id":"a","app":"a","v_bank":2.0,'
        '"system":{"dc_esr":%s}}',
        '{"op":"simulate","id":"s","app":"a","v_start":2.0,'
        '"harvesting":true,"env":{"model":"diurnal-solar",'
        '"peak_power":%s}}',
    ], ids=["v_bank", "deadline_ms", "v_start", "trace-current",
            "trace-duration", "system", "env"])
    def test_non_finite_numbers_are_rejected(self, template, literal):
        # json.loads decodes these to NaN, an infinity, or an integer
        # no float can hold; none may reach the engine.
        req = decode_line((template % literal).encode("utf-8"))
        with pytest.raises(ProtocolError, match="finite"):
            parse_request(req)
