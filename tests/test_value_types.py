"""The package's value types are tuples.  The validated values
(OscillatorParams, PhasePoint, ClassicalState, ComplexStructure, ConeGeometry,
Polarization, RunConfig) store what their checks return, and _replace builds
through their constructors; the records the library and verify return are
typing.NamedTuples.
Each is immutable, equal and hashed by value, and printed as
Name(field=value, ...)."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bundleqm import bundles, checks, classical, cli, orbifold, oscillator, polarizations
from bundleqm.bundles import GaugeConnection
from bundleqm.checks import Check
from bundleqm.classical import ClassicalState, ComplexStructure, OscillatorParams, PhasePoint
from bundleqm.cli import RunConfig
from bundleqm.errors import BundleqmError
from bundleqm.orbifold import ConeGeometry, ConeMetric, TransportResult
from bundleqm.oscillator import EnergyLevel, LaplacianReport
from bundleqm.polarizations import ComplexGaugeConnection, LimitCheckReport, Polarization

# a valid value of each validated type, and a value one of its fields refuses
VALIDATED = {
    OscillatorParams: (OscillatorParams(1.5, 2.0), {"m": -1.0}),
    PhasePoint: (PhasePoint(0.5, -1.0), {"p": np.nan}),
    ClassicalState: (ClassicalState(1 + 1j, -1), {"charge": 2}),
    ComplexStructure: (ComplexStructure(-1), {"sign": 0}),
    ConeGeometry: (ConeGeometry(3), {"n": 0}),
    Polarization: (Polarization("momentum"), {"kind": "up"}),
    RunConfig: (RunConfig(2.0, 0.5, 6.0, "runs", -1), {"m": -1.0}),
}


def _a_x(x, p):
    return 0.5 * p


def _a_p(x, p):
    return -0.5 * x


# each record built from one number s in every field that holds a number; a
# report's sequences are tuples here, since the lists the library gives it
# make it unhashable, as they make any tuple
RECORDS = {
    EnergyLevel: lambda s: EnergyLevel(n=s, E=s, q_l=s, q_v=s),
    ConeMetric: lambda s: ConeMetric(conformal_factor=s, rho=s, g_rho_rho=1.0, g_phi_phi=s),
    TransportResult: lambda s: TransportResult(vector=s, holonomy_angle=s, loop_winding=s),
    LaplacianReport: lambda s: LaplacianReport(n=s, measured=s, expected=s, rel_error=s,
                                               hamiltonian_eigenvalue=s),
    LimitCheckReport: lambda s: LimitCheckReport(direction="w->0", w_values=(1.0, s),
                                                 residual_norms=(s,)),
    GaugeConnection: lambda s: GaugeConnection(a_x=_a_x, a_p=_a_p),
    ComplexGaugeConnection: lambda s: ComplexGaugeConnection(a_z=np.conj, a_zbar=np.negative),
    Check: lambda s: Check(name="check", measured=s, tolerance=s),
}

_INTS = ((np.int8, 8), (np.int16, 16), (np.int32, 32), (np.int64, 64))
_FLOATS = ((np.float16, 16), (np.float32, 32), (np.float64, 64))
# Python's int and float, and numpy's integers and floats of every width
SCALARS = st.one_of(
    st.integers(), st.floats(),
    *(st.integers(-2 ** (bits - 1), 2 ** (bits - 1) - 1).map(t) for t, bits in _INTS),
    *(st.floats(width=bits).map(t) for t, bits in _FLOATS))

MODULES = (classical, bundles, polarizations, oscillator, orbifold, cli, checks)


def _outcome(build):
    """A build's value, or the type and message of the error it raises."""
    try:
        return build()
    except BundleqmError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cls", [*VALIDATED, *RECORDS], ids=lambda cls: cls.__name__)
@given(s=SCALARS)
def test_value_type(cls, s):
    assert not hasattr(cls, "__dataclass_fields__")
    if cls in VALIDATED:
        base, refused = VALIDATED[cls]
        # _replace builds through the constructor: the same value or the same error
        for changes in [refused] + [{field: s} for field in cls._fields]:
            made = _outcome(lambda: cls(**{**base._asdict(), **changes}))
            assert _outcome(lambda: base._replace(**changes)) == made
        assert not isinstance(_outcome(lambda: base._replace(**refused)), cls)
        builds = [lambda field=field: cls(**{**base._asdict(), field: s})
                  for field in cls._fields]
    else:
        builds = [lambda: RECORDS[cls](s)]
    for build in builds:
        a = _outcome(build)
        if not isinstance(a, cls):
            continue
        b = build()
        assert a == b and hash(a) == hash(b)
        assert repr(a).startswith(f"{cls.__name__}(")
        for name in (cls._fields[0], "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, 1.0)
        if cls in VALIDATED:
            # what the checks return: a float, complex, int or str, as in base
            assert [type(v) for v in a] == [type(v) for v in base]


def test_library_modules_define_no_dataclass():
    # every tuple type the seven modules define is one of the value types above
    defined = {obj for module in MODULES for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__}
    assert not any(dataclasses.is_dataclass(obj) for obj in defined)
    assert {obj for obj in defined if issubclass(obj, tuple)} == {*VALIDATED, *RECORDS}


def test_package_import_leaves_dataclasses_out():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c",
         "import bundleqm, bundleqm.cli, sys; assert 'dataclasses' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
