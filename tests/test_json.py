"""JSON format of every field, domain and one-form kind, read and written.

Each kind must survive a round trip through its loader, keep its key names,
and reject unknown keys, unknown kinds and a missing kind with the exact
error text the CLI prints.
"""

import json

import numpy as np
import pytest

from confinement_lab.domains import (Annulus2D, Ball3D, Disk2D, PuncturedSpace, SolidTorus3D,
                                     domain_from_json, rotated_unit_square)
from confinement_lab.errors import ValidationError
from confinement_lab.fields import (AzimuthalOneForm, ConstantField, DipoleField,
                                    DiskCounterexampleField, GaugeShiftField, MonopoleField,
                                    MultipoleField, NonToroidalField, Polynomial, PolytopeField,
                                    RotationOneForm, ToroidalField, field_from_json,
                                    one_form_from_json)

# (loader, object, JSON keys besides "kind", label in unknown-key errors)
KINDS = [
    (field_from_json, ConstantField(np.array([[0.0, 2.0], [-2.0, 0.0]])), {"two_form"},
     "constant field"),
    (field_from_json, PolytopeField(rotated_unit_square()), {"domain"}, "polytope field"),
    (field_from_json, ToroidalField(2.0, SolidTorus3D(3.0, 1.0), RotationOneForm(0.5)),
     {"alpha", "domain", "base_one_form"}, "toroidal field"),
    (field_from_json, NonToroidalField(Ball3D(1.0)), {"domain", "base_one_form"},
     "non-toroidal field"),
    (field_from_json, DiskCounterexampleField(0.5), {"alpha"}, "disk counterexample"),
    (field_from_json, MonopoleField(4), {"charge"}, "monopole"),
    (field_from_json, DipoleField((0.0, 1.0, 0.0)), {"direction"}, "dipole"),
    (field_from_json, MultipoleField([(0, 0, 1), (1, 0, 0)]), {"directions"}, "multipole"),
    (field_from_json, GaugeShiftField(DiskCounterexampleField(0.3),
                                      Polynomial(terms=[(1.0, (1, 1))])),
     {"base", "polynomial"}, "gauge shift"),
    (domain_from_json, Disk2D(0.7), {"radius"}, "disk2d"),
    (domain_from_json, Annulus2D(0.5, 2.0), {"r_in", "r_out"}, "annulus2d"),
    (domain_from_json, Ball3D(1.5), {"radius"}, "ball3d"),
    (domain_from_json, SolidTorus3D(3.0, 1.0), {"major_radius", "minor_radius"},
     "solid_torus3d"),
    (domain_from_json, rotated_unit_square(), {"functionals"}, "polytope"),
    (domain_from_json, PuncturedSpace(4), {"dim"}, "punctured_space"),
    (one_form_from_json, AzimuthalOneForm(), set(), "azimuthal one-form"),
    (one_form_from_json, RotationOneForm(0.4), {"scale"}, "rotation_z one-form"),
]


@pytest.mark.parametrize("load,obj,keys,label", KINDS,
                         ids=[k[1].to_json()["kind"] for k in KINDS])
def test_round_trip_and_unknown_key(load, obj, keys, label):
    blob = obj.to_json()
    assert set(blob) == {"kind"} | keys
    assert json.loads(json.dumps(blob)) == blob
    assert load(blob).to_json() == blob
    with pytest.raises(ValidationError) as err:
        load({**blob, "spin": 1})
    assert str(err.value) == f"unknown keys for {label}: ['spin']"


LOADERS = [(field_from_json, "field"), (domain_from_json, "domain"),
           (one_form_from_json, "one-form")]


@pytest.mark.parametrize("load,what", LOADERS, ids=[w for _, w in LOADERS])
@pytest.mark.parametrize("blob,message", [
    ({"kind": "solenoid"}, "unknown {} kind 'solenoid'"),
    ({"kind": ["disk2d"]}, "unknown {} kind ['disk2d']"),
    ({"charge": 2}, "{} JSON must be an object with a 'kind' key"),
    ([{"kind": "monopole"}], "{} JSON must be an object with a 'kind' key"),
], ids=["unknown-kind", "unhashable-kind", "no-kind", "not-an-object"])
def test_loader_rejects_kind(load, what, blob, message):
    with pytest.raises(ValidationError) as err:
        load(blob)
    assert str(err.value) == message.format(what)
