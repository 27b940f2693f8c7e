"""Frozen bytes of every file each subcommand writes.

The SHA-256 digests were taken from the per-point json.dumps writer that the
vectorised JSONL writer replaced, so a change to the row contract or to the
float formatting shows up here.  The token test pins the writer to
json.dumps(_jnum(x)) over the whole float line.  The two cm_report.json
digests were re-taken when bessel_j moved to the j0/j1 recurrence: only their
"winding_residual" line changed, the roundoff of a phase sum that is an
integer multiple of 2*pi by construction.
"""
import hashlib
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistatom.cli import _jnum, _json_floats, main

OFFSET = ["--impact-b", "600", "-400", "--tilt", "1e-4", "-0.00005"]

CASES = {
    "cm-default": (["cm-state", "--resolution", "9"], {
        "cm_grid.jsonl": "ea622f28347e0a90d624514b4540871a8f601572c64baafbb35bedeb2796859e",
        "cm_report.json": "ee2be78b7d6338607a9fc291e3548950fefa4d89e6360ae5dfa1b98a9540cf29",
        "run_config.json": "c7329e76167fbd19d2454bc950350ff1342f2057c586a83275f761795326a50b",
    }),
    "cm-offset": (["cm-state", "--resolution", "9", *OFFSET], {
        "cm_grid.jsonl": "6679ecc51f62643c784517579bfa2d0cae0a901ab19f721971cb9beed2ec7d0b",
        "cm_report.json": "7a0f1c692950a9d5434b8bafe391e5a9ff8576799d281c7dfb415b1bce58165c",
        "run_config.json": "f5a48afc25f9d2dd7b80c051dd4ab94fcf4614848365104120b4a238c72814de",
    }),
    "field-default": (["photon-field", "--resolution", "9"], {
        "photon_arg_ax.jsonl": "c8829aa4603ec2e3be81186b1abd6b516a20d15d09cdda6d2660c205432761e9",
        "photon_arg_az.jsonl": "80a3f56fd8776e0c47fa12a7a9a6721129da2791d0a87e892dcc27137bc93523",
        "photon_density.jsonl": "60df9465d3c878b7bea01d16f661931a0eeb71a6723563acfcba75db6d458d0d",
        "run_config.json": "1645b76549009d6fdf37b300ba05591d3c2f364b9863d196e6d5b25e420e0577",
    }),
    "field-offset": (["photon-field", "--resolution", "9", *OFFSET], {
        "photon_arg_ax.jsonl": "a2d32a7b9ab4f66b3304778a6a06e45709611377b14c54c765fd18c8560a16d5",
        "photon_arg_az.jsonl": "c492691a333a4ed3fb3a873dffd504d7d914c50e814933c293ba3502b95a65bf",
        "photon_density.jsonl": "7160d6e333b943b77f37ce033c46487ee942103bf4a1fe2de4e424b389e30d9f",
        "run_config.json": "845eaa16bb506b8cca951d91927158ef0929636c24f168aec204b6f50c9aef33",
    }),
    "amplitudes": (["amplitudes", "--points", "5"], {
        "amplitudes.csv": "80757c1b1ec2c77a02c6f6ea9b609bbfe620495e019e16dbc7ed34ccf7d801fa",
        "run_config.json": "e4ff8683cfe10a381c5c9d88c7063138930980905aad5a14b53231897ffe8138",
    }),
    "zeeman": (["zeeman", "--config", "{zeeman_cfg}"], {
        "zeeman_report.json": "bf18e6d1931f4229160a168393618f8518763f0f19e4142bd4077476bf930cd6",
        "run_config.json": "81afec6e9395f988d2a2551165530a4fec430a0b484abee25319aa3db5e135d6",
    }),
    "baseline": (["baseline"], {
        "baseline_report.json": "6e9d8d3abcbb48e9a20fbe061bda222436d6da16fa42db14f7b61923c978375b",
        "run_config.json": "dc317f01d909b73896ca27d250ea3451b3b81ba0bb527024cce798556485d3a2",
    }),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_hashes(case, tmp_path):
    argv, expected = CASES[case]
    cfg = tmp_path / "zeeman.cfg"
    cfg.write_text("B = 1e-5\ntune_m_b = 1\n")
    out = tmp_path / "out"
    argv = [a.format(zeeman_cfg=cfg) for a in argv]
    assert main(argv + ["--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
    assert written == expected


EDGE_VALUES = [0.0, -0.0, 1.0, -3.0, 42.0, 5e-324, -2.225e-310, 2.2250738585072014e-308,
               1e-4, 9.99999999999e-5, 1e-5, 999999999999.0, 999999999999.7,
               1e12, -1.5e13, 123456789012345.0, 9999999999999998.0, 1e16,
               1.2345678901234e17, 1e300, math.pi, -math.e * 1e-7]


@pytest.mark.parametrize("x", EDGE_VALUES)
def test_json_token_edges(x):
    assert _json_floats([x]) == [json.dumps(_jnum(x))]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8)
       | st.lists(st.floats(min_value=-1e17, max_value=1e17), min_size=1, max_size=8)
       | st.lists(st.floats(min_value=-1e-3, max_value=1e-3), min_size=1, max_size=8)
       | st.lists(st.integers(-10**17, 10**17).map(float), min_size=1, max_size=8))
@example([float("nan"), float("inf"), -float("inf")])
def test_json_tokens_match_json_dumps(values):
    assert _json_floats(values) == [json.dumps(_jnum(x)) for x in values]
