"""Non-finite and out-of-domain input, and internal checks under ``python -O``."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qqmems
from qqmems import purity_mems
from qqmems.acs import AcsTrace, acs_run, pi_objective, pi_step, rho_step, vector_subproblem
from qqmems.cli import CheckError, EXIT_CHECK, EXIT_OK, EXIT_USAGE, _validated, main
from qqmems.linalg import (
    MatrixError,
    check_density_matrix,
    eig_hermitian,
    negativity,
    purity,
    random_density_fixed_purity,
    trace_norm,
)
from qqmems.purity_mems import (
    FAMILIES,
    DomainError,
    construct_deg,
    construct_rank2,
    construct_rank3,
    deg_spectrum,
    hedemann_negativity,
    n_x_p_deg,
    n_x_p_rank2,
    n_x_p_rank3,
    rank2_spectrum,
    rank3_spectrum,
)
from qqmems.spectrum import (
    best_sequence_bruteforce,
    construct_spectrum_xmems,
    n_x_lambda,
    s_value,
    validate_spectrum,
)
from qqmems.tgx import TgxParams, maximize_tgx2, maximize_tgx3
from qqmems.xstate import XState, XStateError, from_matrix

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
PURITY_FUNCTIONS = [
    n_x_p_rank2,
    n_x_p_rank3,
    n_x_p_deg,
    hedemann_negativity,
    rank2_spectrum,
    rank3_spectrum,
    deg_spectrum,
    construct_rank2,
    construct_rank3,
    construct_deg,
]
# Lower end of each family's purity domain and whether it is open, written out
# here rather than read from purity_mems.FAMILIES; in `curves` column order.
LOWER_ENDS = {"rank2": (0.5, False), "rank3": (1.0 / 3.0, False), "deg": (0.2, True)}


def _in_domain(key, P):
    lo, lo_open = LOWER_ENDS[key]
    return bool((lo < P if lo_open else lo <= P) and P < 1.0)


@settings(max_examples=60, deadline=None)
@given(fn=st.sampled_from(PURITY_FUNCTIONS), bad=NON_FINITE, as_array=st.booleans())
def test_non_finite_purity_is_rejected_naming_the_purity(fn, bad, as_array):
    P = np.array([0.7, bad, 0.8]) if as_array else bad
    with pytest.raises(ValueError, match=rf"purity {bad} outside .* domain"):
        fn(P)


@pytest.mark.parametrize("fn", PURITY_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_a_2d_array_of_purities_is_rejected_naming_its_shape(fn):
    with pytest.raises(ValueError, match=re.escape("a float or a 1-D array, got shape (1, 2)")):
        fn(np.array([[0.3, 0.4]]))


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(sorted(LOWER_ENDS)), P=st.floats())
def test_curves_return_a_value_exactly_on_their_domain(key, P):
    fn = getattr(purity_mems, f"n_x_p_{key}")
    if _in_domain(key, P):
        value = fn(P)
        assert isinstance(value, float) and 0.0 <= value <= 1.0
    else:
        with pytest.raises(ValueError, match="purity .* outside"):
            fn(P)


PURITY_ENTRY_POINTS = {fn.__name__: fn for fn in PURITY_FUNCTIONS} | {
    "verify_certificate": lambda P: purity_mems.verify_certificate("rank2", P),
    "maximize_tgx2": maximize_tgx2,
    "maximize_tgx3": maximize_tgx3,
    "acs_run": lambda P: acs_run(P, np.eye(6) / 6),
    "rho_step": lambda P: rho_step(np.eye(6), P),
    "random_density_fixed_purity": lambda P: random_density_fixed_purity(P, 0),
}


@pytest.mark.parametrize("name", list(PURITY_ENTRY_POINTS))
@pytest.mark.parametrize("bad", ["0.3", ["0.3"], 0.3 + 0j], ids=["str", "str_list", "complex"])
def test_a_purity_that_is_not_real_is_a_type_error(name, bad):
    with pytest.raises(TypeError, match=re.escape(f"purity {bad!r} is not a real number")):
        PURITY_ENTRY_POINTS[name](bad)


RNG_FREE_ENTRY_POINTS = {fn.__name__: fn for fn in PURITY_FUNCTIONS} | {
    "verify_certificate": lambda P: purity_mems.verify_certificate("rank2", P),
    "verify_certificate_deg": lambda P: purity_mems.verify_certificate("deg", P),
}


def _plain(result):
    """A result as data that compares by value: a matrix for an XState, a
    dict for a certificate report."""
    if isinstance(result, XState):
        return result.to_matrix()
    if isinstance(result, purity_mems.CertificateReport):
        return result.to_dict()
    return result


@pytest.mark.parametrize("name", list(RNG_FREE_ENTRY_POINTS))
def test_an_array_of_purities_gives_the_scalar_results(name):
    fn = RNG_FREE_ENTRY_POINTS[name]
    P = np.array([0.5, 0.55, 0.7, 0.999])  # in every domain; 0.5 is asymptotic for rank 2
    stacked = _plain(fn(P))
    assert len(stacked) == len(P)
    for row, p in zip(stacked, P):
        single = _plain(fn(float(p)))
        if isinstance(single, dict):
            assert _plain(row) == single
        else:
            assert np.array_equal(row, single)


SPECTRUM_ENTRY_POINTS = {
    "validate_spectrum": validate_spectrum,
    "s_value": lambda lam: s_value(lam, (1, 2, 3, 4)),
    "best_sequence_bruteforce": best_sequence_bruteforce,
    "n_x_lambda": n_x_lambda,
    "construct_spectrum_xmems": construct_spectrum_xmems,
    "vector_subproblem": lambda lam: vector_subproblem(lam, 0.5),
}


@pytest.mark.parametrize("name", list(SPECTRUM_ENTRY_POINTS))
@pytest.mark.parametrize(
    "bad",
    [["0.5", "0.5", 0, 0, 0, 0], np.array([0.5, 0.5, 0, 0, 0, 0]) + 0j],
    ids=["str_list", "complex"],
)
def test_a_spectrum_that_is_not_real_is_a_type_error(name, bad):
    with pytest.raises(TypeError, match="is not a real number"):
        SPECTRUM_ENTRY_POINTS[name](bad)


def test_a_purity_bound_that_is_not_real_is_a_type_error():
    with pytest.raises(TypeError, match=re.escape("purity bound '0.5' is not a real number")):
        vector_subproblem([1.0, 0, 0, 0, 0, 0], "0.5")


MATRIX_ENTRY_POINTS = {
    "eig_hermitian": eig_hermitian,
    "trace_norm": trace_norm,
    "negativity": negativity,
    "purity": purity,
    "check_density_matrix": check_density_matrix,
    "from_matrix": from_matrix,
    "pi_step": pi_step,
    "pi_objective": lambda m: pi_objective(m, np.eye(6) / 6),
    "rho_step": lambda m: rho_step(m, 0.5),
    "acs_run": lambda m: acs_run(0.5, m),
}


@pytest.mark.parametrize("name", list(MATRIX_ENTRY_POINTS))
@pytest.mark.parametrize(
    "bad", [(np.eye(6) / 6).astype(str), np.full((6, 6), None)], ids=["str", "none"]
)
def test_a_matrix_that_is_not_numbers_is_a_type_error(name, bad):
    # a complex conversion would parse the strings
    with pytest.raises(TypeError, match=re.escape(f"has dtype {bad.dtype}, not real or complex")):
        MATRIX_ENTRY_POINTS[name](bad)


@pytest.mark.parametrize("name", list(MATRIX_ENTRY_POINTS))
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_matrix_with_a_non_finite_entry_is_a_matrix_error(name, value):
    # before any arithmetic, so no RuntimeWarning and no wrong cause such as
    # "not Hermitian"
    bad = np.eye(6) / 6
    bad[1, 2] = value
    match = re.escape(f"has a non-finite entry: max |entry| = {value}")
    with pytest.raises(MatrixError, match=match) as exc:
        MATRIX_ENTRY_POINTS[name](bad)
    assert exc.value.index == ()


STACK_ENTRY_POINTS = {
    name: MATRIX_ENTRY_POINTS[name]
    for name in ("eig_hermitian", "check_density_matrix", "negativity", "purity", "pi_objective")
} | {"acs_run": lambda m: acs_run(np.full(len(m), 0.5), m)}


@pytest.mark.parametrize("name", list(STACK_ENTRY_POINTS))
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_stack_names_its_first_matrix_with_a_non_finite_entry(name, value):
    stack = np.stack([np.eye(6) / 6] * 4).astype(complex)
    stack[2, 0, 0] = stack[3, 5, 4] = value
    with pytest.raises(MatrixError, match="has a non-finite entry") as exc:
        STACK_ENTRY_POINTS[name](stack)
    assert exc.value.index == (2,)


def _accepts(fn, *args, **kwargs):
    """True if fn returns, False if it rejects its input with DomainError."""
    try:
        fn(*args, **kwargs)
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("key", list(LOWER_ENDS))
def test_every_consumer_agrees_on_the_domain(key, capsys):
    lo, lo_open = LOWER_ENDS[key]
    assert (FAMILIES[key].lo, FAMILIES[key].lo_open) == (lo, lo_open)
    column = 1 + list(LOWER_ENDS).index(key)

    def curves_cell(P):
        code = main(["curves", f"--p-min={P!r}", f"--p-max={P!r}", "--p-steps", "1"])
        out = capsys.readouterr().out
        assert code in (EXIT_OK, EXIT_USAGE)  # P = 1 is no grid point
        return code == EXIT_OK and out.splitlines()[1].split(",")[column] != ""

    def certify(P):
        code = main(["certify", "--theorem", key, f"--p-min={P!r}", f"--p-max={P!r}",
                     "--p-steps", "1"])
        capsys.readouterr()
        return {EXIT_OK: True, EXIT_CHECK: True, EXIT_USAGE: False}[code]

    def search(P):
        if key == "deg":
            return _accepts(rho_step, np.eye(6), P)
        maximizer = {"rank2": maximize_tgx2, "rank3": maximize_tgx3}[key]
        return _accepts(maximizer, P, restarts=1, rng=0)

    consumers = {
        "curve": lambda P: _accepts(getattr(purity_mems, f"n_x_p_{key}"), P),
        "spectrum": lambda P: _accepts(getattr(purity_mems, f"{key}_spectrum"), P),
        "construction": lambda P: _accepts(getattr(purity_mems, f"construct_{key}"), P),
        "curves cell": curves_cell,
        "certify": certify,
        "search": search,
    }
    for P in (lo, np.nextafter(lo, 0), np.nextafter(lo, 1), np.nextafter(1, 0), 1.0, np.nan):
        P = float(P)
        got = {name: accepts(P) for name, accepts in consumers.items()}
        assert got == dict.fromkeys(consumers, _in_domain(key, P)), P


# A valid record of each type whose fields must be real: its class, its
# error for a non-finite field, and its fields.
REAL_RECORDS = {
    "TgxParams2": (TgxParams, ValueError, {"theta": (0.3, 0.2), "p": (0.4, 0.6)}),
    "TgxParams3": (TgxParams, ValueError, {"theta": (0.3, 0.2, 0.1), "p": (0.5, 0.3, 0.2)}),
    "XState": (XState, XStateError,
               {"a": (0.2, 0.1, 0.2), "b": (0.2, 0.1, 0.2), "r": (0, 0, 0), "phi": (0, 0, 0)}),
}
REAL_FIELDS = [(key, field) for key, (*_, fields) in REAL_RECORDS.items() for field in fields]
TGX_FIELDS = [(key, field) for key, field in REAL_FIELDS if key != "XState"]
# Ways a field can fail to be real, each made from the valid field v.
NOT_REAL = {
    "str": lambda v: "a",
    "str_list": lambda v: [str(x) for x in v],
    "none_list": lambda v: [None] * len(v),
    "bool_list": lambda v: [bool(x) for x in v],
    "complex": lambda v: np.array(v) + 0j,
}


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(REAL_FIELDS), k=st.integers(0, 2), bad=NON_FINITE)
def test_records_reject_non_finite_fields(case, k, bad):
    (record, error, fields), field = REAL_RECORDS[case[0]], case[1]
    record(**fields)
    value = list(fields[field])
    value[k % len(value)] = bad
    # the message shows the field, so it names the bad entry: (nan, 0.2) or [0.2 nan 0.2]
    match = re.escape(f"{field} must be finite, got ") + ".*" + re.escape(str(bad))
    with pytest.raises(error, match=match):
        record(**(fields | {field: value}))


@pytest.mark.parametrize("case", REAL_FIELDS, ids=[f"{key}.{field}" for key, field in REAL_FIELDS])
@pytest.mark.parametrize("bad", list(NOT_REAL))
def test_records_reject_non_real_fields(case, bad):
    (record, _, fields), field = REAL_RECORDS[case[0]], case[1]
    value = NOT_REAL[bad](fields[field])
    with pytest.raises(TypeError, match=re.escape(f"{field} {value!r} is not a real number")):
        record(**(fields | {field: value}))


# A scalar None or 1j as a whole TGX field (for XState, None means zeros).
@pytest.mark.parametrize("case", TGX_FIELDS, ids=[f"{key}.{field}" for key, field in TGX_FIELDS])
@pytest.mark.parametrize("bad", [None, 1j])
def test_tgx_records_reject_scalar_non_real_fields(case, bad):
    (record, _, fields), field = REAL_RECORDS[case[0]], case[1]
    with pytest.raises(TypeError, match=re.escape(f"{field} {bad!r} is not a real number")):
        record(**(fields | {field: bad}))


def test_xstate_from_dict_rejects_non_real_entries():
    d = XState(*REAL_RECORDS["XState"][2].values()).to_dict()
    with pytest.raises(TypeError, match=re.escape("r ['0.0', 0.0, 0.0] is not a real number")):
        XState.from_dict(d | {"r1": "0.0"})


def test_records_with_array_fields_compare_by_identity():
    # equal-valued records: `==` must not ask an array for its truth value
    for make in (
        lambda: XState([0.2, 0.1, 0.2], [0.2, 0.1, 0.2], [0.0, 0.0, 0.0]),
        lambda: AcsTrace(0.5, [0.0, 0.1], np.eye(6) / 6, "converged"),
    ):
        a, b = make(), make()
        assert a == a and a != b


@given(k=st.integers(0, 5), bad=NON_FINITE)
def test_spectrum_rejects_non_finite_entries(k, bad):
    lam = np.array([0.4, 0.3, 0.2, 0.1, 0.0, 0.0])
    lam[k] = bad
    with pytest.raises(ValueError, match="finite"):
        validate_spectrum(lam)


@given(bad=NON_FINITE)
def test_gate_rejects_a_non_finite_closed_form_value(bad):
    rho = construct_rank2(0.7).to_matrix()
    with pytest.raises(CheckError, match="state: closed-form value"):
        _validated(bad, rho, 1e-10, lambda _: "state")
    stack = construct_rank2(np.array([0.6, 0.7, 0.8])).to_matrix()
    values = np.array([n_x_p_rank2(0.6), bad, n_x_p_rank2(0.8)])
    with pytest.raises(CheckError, match="row 1: "):
        _validated(values, stack, 1e-10, lambda i: f"row {i}")
    assert _validated(values[0], stack[0], 1e-10, lambda _: "ok") == values[0]
    assert abs(negativity(stack[0]) - values[0]) <= 1e-10


@pytest.mark.parametrize("family", ["rank2", "rank3", "deg"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_state_non_finite_purity_is_a_domain_error(family, value, capsys):
    code = main(["state", "--family", family, f"--p={value}"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert f"purity {float(value)} outside" in err
    assert "Hermitian" not in err


def test_internal_checks_survive_optimize_flag():
    # The invariant is raised explicitly, so `python -O` cannot strip it.
    code = textwrap.dedent(
        """
        import dataclasses
        import sys
        from qqmems import purity_mems

        print("optimize", sys.flags.optimize)
        # a transcription error in the certificate data
        fams = purity_mems.FAMILIES
        fams["rank2"] = dataclasses.replace(fams["rank2"], offset=0.25)
        try:
            purity_mems.verify_certificate("rank2", 0.7)
        except RuntimeError as exc:
            print("certificate:", exc)
        """
    )
    path = [str(Path(qqmems.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1].startswith("certificate: certificate data for rank2 at P=0.7")
