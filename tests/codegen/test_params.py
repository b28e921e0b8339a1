"""Validation and derived quantities of KernelParams."""

import dataclasses
import json
import pickle
from itertools import islice

import pytest

from repro.codegen.algorithms import Algorithm
from repro.codegen.layouts import Layout
from repro.codegen.params import KernelParams, StrideMode
from repro.errors import ParameterError

from tests.conftest import make_params


class TestValidation:
    def test_minimal_valid_params(self):
        p = make_params()
        assert p.workgroup_size == 16

    @pytest.mark.parametrize("field,value", [
        ("mwg", 0), ("nwg", -1), ("kwg", 0), ("mdimc", 0), ("ndimc", 0), ("kwi", 0),
    ])
    def test_rejects_nonpositive(self, field, value):
        with pytest.raises(ParameterError):
            make_params(**{field: value})

    def test_rejects_bad_precision(self):
        with pytest.raises(ParameterError, match="precision"):
            make_params(precision="x")

    def test_rejects_indivisible_mwg(self):
        with pytest.raises(ParameterError, match="mwg"):
            make_params(mwg=20, mdimc=8)

    def test_rejects_indivisible_nwg(self):
        with pytest.raises(ParameterError, match="nwg"):
            make_params(nwg=20, ndimc=8)

    def test_rejects_indivisible_kwi(self):
        with pytest.raises(ParameterError, match="kwg"):
            make_params(kwg=8, kwi=3)

    @pytest.mark.parametrize("vw", [3, 5, 16, 0])
    def test_rejects_invalid_vector_width(self, vw):
        with pytest.raises(ParameterError):
            make_params(vw=vw)

    def test_rejects_vector_width_not_dividing_mwi(self):
        # mwi = 16/4 = 4, vw=8 does not divide it.
        with pytest.raises(ParameterError, match="mwi"):
            make_params(vw=8)

    def test_vector_width_must_divide_nwi_too(self):
        with pytest.raises(ParameterError, match="nwi"):
            make_params(mwg=32, vw=8, nwg=16, ndimc=4)  # mwi=8 ok, nwi=4 not

    def test_staging_reshape_constraints(self):
        # wg size 16, mdima=8 -> kdima=2; mwg%8==0 and kwg%2==0: valid.
        p = make_params(shared_a=True, mdima=8, mwg=32, kwg=8)
        assert p.kdima == 2
        # mdima that does not divide the work-group size is invalid.
        with pytest.raises(ParameterError, match="mdima"):
            make_params(shared_a=True, mdima=3)
        # mdima not dividing mwg is invalid.
        with pytest.raises(ParameterError, match="mwg"):
            make_params(shared_a=True, mdima=16, mwg=24, mdimc=4, ndimc=4)

    def test_staging_params_canonicalised_when_not_shared(self):
        p = make_params(shared_a=False, mdima=8)
        assert p.mdima == 0
        assert p.effective_mdima == p.mdimc

    def test_db_requires_local_memory(self):
        with pytest.raises(ParameterError, match="DB"):
            make_params(algorithm=Algorithm.DB)

    def test_db_requires_even_half_buffers(self):
        with pytest.raises(ParameterError):
            make_params(algorithm=Algorithm.DB, shared_b=True, kwg=6, kwi=3)

    def test_db_half_must_be_loadable(self):
        # kwg=8, wg=16, ndimb=2 -> kdimb=8; half=4 not divisible by 8.
        with pytest.raises(ParameterError, match="half"):
            make_params(algorithm=Algorithm.DB, shared_b=True, ndimb=2, kwi=1)

    @pytest.mark.parametrize("field,value", [
        ("mwg", 16.0), ("nwg", 16.0), ("mdimc", True), ("kwi", 2.0),
        ("vw", True), ("mdima", 4.0),
    ])
    def test_rejects_non_integer_fields(self, field, value):
        # 16.0 == 16, but it serialises (and so keys caches) differently;
        # the constraint prover rejects it with the same message.
        message = f"field '{field}' must be an integer"
        with pytest.raises(ParameterError, match=message):
            make_params(**{field: value})
        text = json.dumps({**make_params().to_dict(), field: value})
        with pytest.raises(ParameterError, match=message):
            KernelParams.from_json(text)

    def test_pl_without_local_memory_is_allowed(self):
        # Degenerate PL (Cayman's SGEMM winner in Table II has no Shared).
        p = make_params(algorithm=Algorithm.PL)
        assert not (p.shared_a or p.shared_b)


class TestDerivedQuantities:
    def test_paper_notation_identities(self):
        p = make_params(mwg=96, nwg=32, kwg=48, mdimc=16, ndimc=16, kwi=2,
                        vw=2, shared_b=True, ndimb=16)
        assert p.mwi == 6 and p.nwi == 2
        assert p.workgroup_size == 256
        assert p.kdimb == 16
        assert p.nwib == 2 and p.kwib == 3
        assert p.lcm == 96  # lcm(96, 32, 48)

    def test_element_size(self):
        assert make_params(precision="d").element_size == 8
        assert make_params(precision="s").element_size == 4

    def test_local_memory_bytes(self):
        p = make_params(shared_a=True, shared_b=True)
        expected = (16 * 8 + 16 * 8) * 8
        assert p.local_memory_bytes() == expected
        # DB doubles the local footprint.
        p_db = make_params(algorithm=Algorithm.DB, shared_a=True, shared_b=True)
        assert p_db.local_memory_bytes() == 2 * expected

    def test_local_memory_zero_when_unshared(self):
        assert make_params().local_memory_bytes() == 0

    def test_private_elements_counts_pl_staging(self):
        base = make_params(shared_a=True, shared_b=True)
        pl = base.replace(algorithm=Algorithm.PL)
        assert pl.private_elements() > base.private_elements()

    def test_private_elements_caps_live_fragments(self):
        # Fragment registers are recycled across the unrolled loop: going
        # from kwi=2 to kwi=8 must not grow the footprint.
        small = make_params(kwi=2)
        big = make_params(kwi=8)
        assert big.private_elements() == small.private_elements()

    def test_flops_per_iteration(self):
        p = make_params()
        assert p.flops_per_workgroup_iteration() == 2 * 16 * 16 * 8


#: Methods whose value each instance computes at most once.
ONCE_PER_INSTANCE = ("cache_key", "to_json", "local_memory_bytes",
                     "private_elements", "private_bytes")


def _space_sample(per_space: int = 12):
    from repro.codegen.space import enumerate_space
    from repro.devices import get_device_spec
    from repro.devices.catalog import list_device_names

    for device in list_device_names():
        for precision in ("s", "d"):
            space = enumerate_space(get_device_spec(device), precision)
            yield from islice(space, per_space)


def _fresh_values(p: KernelParams) -> dict:
    """The once-per-instance values, computed on a new instance."""
    copy = KernelParams(**{f.name: getattr(p, f.name)
                           for f in dataclasses.fields(p)})
    return {name: getattr(copy, name)() for name in ONCE_PER_INSTANCE}


class TestOncePerInstance:
    def test_values_match_a_fresh_computation(self):
        checked = 0
        for p in _space_sample():
            for name, fresh in _fresh_values(p).items():
                first = getattr(p, name)()
                assert first == fresh, name
                assert getattr(p, name)() is first, name
            checked += 1
        assert checked > 100

    def test_values_follow_replace_json_and_pickle(self):
        for p in islice(_space_sample(), 0, None, 7):
            for name in ONCE_PER_INSTANCE:
                getattr(p, name)()  # fill every slot before copying
            other = "d" if p.precision == "s" else "s"
            copies = (dataclasses.replace(p, precision=other),
                      p.replace(precision=other),
                      KernelParams.from_json(p.to_json()),
                      pickle.loads(pickle.dumps(p)))
            for q in copies:
                assert {n: getattr(q, n)() for n in ONCE_PER_INSTANCE} \
                    == _fresh_values(q)
            assert copies[0] != p and copies[2] == p == copies[3]
            assert hash(copies[3]) == hash(p) and repr(copies[3]) == repr(p)

    def test_to_dict_is_a_new_dict_per_call(self):
        p = make_params()
        first = p.to_dict()
        first["mwg"] = -1
        assert p.to_dict() is not first
        assert p.to_dict()["mwg"] == 16
        assert KernelParams.from_dict(p.to_dict()) == p


class TestSerialization:
    def test_round_trip_all_matrix_entries(self):
        from tests.conftest import PARAM_MATRIX

        for p in PARAM_MATRIX:
            assert KernelParams.from_dict(p.to_dict()) == p
            assert KernelParams.from_json(p.to_json()) == p

    def test_json_is_byte_identical_to_asdict_serialisation(self):
        # Tuning caches and checkpoints hash this text, so the direct
        # to_dict build must serialise exactly as asdict plus labels did.
        from itertools import islice

        from repro.codegen.space import enumerate_space
        from repro.devices import get_device_spec
        from tests.conftest import PARAM_MATRIX

        subjects = list(PARAM_MATRIX)
        for device, precision in (("tahiti", "s"), ("bulldozer", "d")):
            space = enumerate_space(get_device_spec(device), precision)
            subjects += islice(space, 200)
        for p in subjects:
            d = dataclasses.asdict(p)
            d["stride"] = p.stride.label()
            d["layout_a"] = p.layout_a.value
            d["layout_b"] = p.layout_b.value
            d["algorithm"] = p.algorithm.value
            assert list(p.to_dict()) == list(d)
            assert p.to_json() == json.dumps(d, sort_keys=True)

    def test_cache_key_distinguishes(self):
        a = make_params()
        b = make_params(vw=2)
        assert a.cache_key() != b.cache_key()
        assert a.cache_key() == make_params().cache_key()

    def test_replace_validates(self):
        p = make_params()
        with pytest.raises(ParameterError):
            p.replace(kwi=3)


class TestStrideMode:
    def test_labels(self):
        assert StrideMode().label() == "-"
        assert StrideMode(m=True).label() == "M"
        assert StrideMode(n=True).label() == "N"
        assert StrideMode(m=True, n=True).label() == "M,N"

    @pytest.mark.parametrize("label", ["-", "", "M", "N", "M,N", "n", " m , n "])
    def test_from_label_round_trip(self, label):
        mode = StrideMode.from_label(label)
        assert StrideMode.from_label(mode.label()) == mode

    def test_from_label_rejects_garbage(self):
        with pytest.raises(ParameterError):
            StrideMode.from_label("K")


class TestPresentation:
    def test_summary_mentions_key_parameters(self):
        text = make_params(vw=2, mwg=32, nwg=16, mdimc=8).summary()
        assert "wg=32,16,8" in text
        assert "vw=2" in text
        assert "alg=BA" in text

    def test_table2_cells_match_paper_rows(self):
        cells = make_params().table2_cells()
        assert set(cells) == {
            "Mwg,Nwg,Kwg", "Mwi,Nwi,Kwi", "MdimC,NdimC", "MdimA,KdimA",
            "KdimB,NdimB", "Vector", "Stride", "Shared", "Layout", "Algorithm",
        }

    def test_shared_label(self):
        assert make_params().shared_label() == "-"
        assert make_params(shared_a=True).shared_label() == "A"
        assert make_params(shared_a=True, shared_b=True).shared_label() == "A,B"
