"""Contract-checker tests: clean on the real registries, and every
failure mode (REP101, REP103–REP105) demonstrated against planted registry
entries.

The planted kernel classes live at module level so pickle can import
them — a locally-defined class would conflate "bad contract" with
"unpicklable test fixture".
"""

import numpy as np
import pytest

from repro.codes import get_code
from repro.decoders.kernels.base import KERNEL_BACKENDS, BPKernel
from repro.decoders.kernels.fused import FusedKernel
from repro.decoders.registry import DECODER_REGISTRY
from repro.devtools.contracts import (
    check_contracts,
    check_decoder_contracts,
    check_kernel_contracts,
    contract_report,
)
from repro.noise import code_capacity_problem


@pytest.fixture(scope="module")
def problem():
    return code_capacity_problem(get_code("surface_3"), 0.05)


def codes_for(violations, *, about=None):
    return [
        v.code for v in violations
        if about is None or about in v.message
    ]


# -- the real registries are clean ---------------------------------------


def test_real_registries_are_contract_clean(problem):
    assert check_contracts(problem) == []


def test_contract_report_shape(problem):
    report = contract_report(problem)
    assert report.clean
    assert report.mode == "contracts"
    assert report.files_checked >= len(DECODER_REGISTRY)
    payload = report.to_json()
    assert payload["mode"] == "contracts"
    assert payload["violation_count"] == 0


# -- decoder failure modes ----------------------------------------------


class _NotADecoder:
    """No decode/decode_many/reseed at all."""


def _raising_factory(problem):
    raise RuntimeError("boom at build time")


class _Unpicklable:
    def __init__(self):
        self.trap = lambda: None  # lambdas never pickle

    def decode(self, syndrome):
        raise NotImplementedError

    def decode_many(self, syndromes):
        raise NotImplementedError

    def reseed(self, rng):
        pass


def test_missing_decoder_protocol_is_rep101(problem, monkeypatch):
    monkeypatch.setitem(
        DECODER_REGISTRY, "planted", lambda p: _NotADecoder()
    )
    violations = list(check_decoder_contracts(problem))
    assert codes_for(violations, about="planted") == [
        "REP101", "REP101", "REP101"
    ]
    messages = " ".join(v.message for v in violations)
    for method in ("decode", "decode_many", "reseed"):
        assert repr(method) in messages


def test_raising_factory_is_rep104(problem, monkeypatch):
    monkeypatch.setitem(DECODER_REGISTRY, "planted", _raising_factory)
    violations = list(check_decoder_contracts(problem))
    assert codes_for(violations, about="planted") == ["REP104"]
    assert "boom at build time" in violations[-1].message


def test_unpicklable_decoder_is_rep103(problem, monkeypatch):
    monkeypatch.setitem(
        DECODER_REGISTRY, "planted", lambda p: _Unpicklable()
    )
    violations = list(check_decoder_contracts(problem))
    planted = [v for v in violations if "planted" in v.message]
    assert [v.code for v in planted] == ["REP103"]
    assert "does not pickle" in planted[0].message


class _BadReseed:
    def decode(self, syndrome):
        raise NotImplementedError

    def decode_many(self, syndromes):
        raise NotImplementedError

    def reseed(self):  # wrong arity: engine passes a Generator
        pass


def test_reseed_signature_drift_is_rep101(problem, monkeypatch):
    monkeypatch.setitem(
        DECODER_REGISTRY, "planted", lambda p: _BadReseed()
    )
    violations = list(check_decoder_contracts(problem))
    planted = [v for v in violations if "planted" in v.message]
    assert [v.code for v in planted] == ["REP101"]
    assert "reseed(Generator) raised" in planted[0].message


# -- kernel failure modes -----------------------------------------------


class _MisnamedKernel(FusedKernel):
    name = "not-the-registry-key"


class _HoleyKernel(BPKernel):
    """Concrete-looking backend with abstract protocol holes."""

    name = "planted"

    # start/check_update/... all left abstract.


class _MinimalKernel(BPKernel):
    """A direct BPKernel subclass implementing the whole protocol."""

    name = "planted"

    def start(self, syndromes, prior):
        return np.zeros((syndromes.shape[0], self.edges.n_edges),
                        dtype=self.dtype)

    @property
    def sign_syn(self):
        return np.zeros(0, dtype=self.dtype)

    def check_update(self, v2c, sign_syn, alpha):
        return v2c

    def variable_update(self, c2v, prior):
        return c2v, c2v

    def hard_decision(self, marg):
        return (marg <= 0).astype(np.uint8)

    def converged(self, hard):
        return np.zeros(hard.shape[0], dtype=bool)

    def compact(self, v2c, keep):
        return v2c[keep]


class _FakeFusionKernel(_MinimalKernel):
    name = "planted"
    supports_iteration_fusion = True  # ...but no fused_* API


def _plant(monkeypatch, cls):
    monkeypatch.setitem(KERNEL_BACKENDS, "planted", cls)


def _planted_violations(problem):
    return [
        v for v in check_kernel_contracts(problem)
        if "planted" in v.message
    ]


def test_kernel_name_mismatch_is_rep105(problem, monkeypatch):
    _plant(monkeypatch, _MisnamedKernel)
    violations = _planted_violations(problem)
    assert [v.code for v in violations] == ["REP105"]


def test_abstract_protocol_holes_are_rep101(problem, monkeypatch):
    _plant(monkeypatch, _HoleyKernel)
    violations = _planted_violations(problem)
    rep101 = [v for v in violations if v.code == "REP101"]
    # Every abstract protocol method plus the sign_syn property.
    assert len(rep101) >= 6
    # Abstract classes are never instantiated, so no REP104 cascade.
    assert "REP104" not in [v.code for v in violations]


def test_fusion_claim_without_api_is_rep101(problem, monkeypatch):
    _plant(monkeypatch, _FakeFusionKernel)
    violations = _planted_violations(problem)
    fusion = [v for v in violations
              if "supports_iteration_fusion" in v.message]
    assert [v.code for v in fusion] == ["REP101", "REP101"]
    assert {v.message.rsplit(" ", 1)[-1] for v in fusion} == {
        "'fused_start'", "'fused_run'",
    }


def test_violations_anchor_at_class_source(problem, monkeypatch):
    _plant(monkeypatch, _MisnamedKernel)
    violation = _planted_violations(problem)[0]
    assert violation.path.endswith("tests/devtools/test_contracts.py")
    assert violation.line > 0
